"""Output checks applied to every benchmark run, and run digests.

A check returns a list of problems; an empty list means the run's outputs
are correct. The Euclidean velocity excess (acceptance check 10, red by
design) is counted and reported, never treated as a failure.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

# Evacuation rounds of scenarios/room.txt at the default configuration over
# seeds 0-999 (mean 18.07 over seeds 0-99). A batch mean must lie within
# BAND_SIGMAS standard errors of the difference of two independent means, so
# a change of random streams that keeps the distribution still passes.
ROOM_REFERENCE_MEAN = 17.932
ROOM_REFERENCE_SD = 3.814
ROOM_REFERENCE_SEEDS = 1000
BAND_SIGMAS = 5.0


def check_trajectory(traj: np.ndarray, v_max: np.ndarray, is_exit: np.ndarray) -> tuple[list[str], dict]:
    """Checks on a (round, agent, x, y) table; also derives the run's counts.

    Returns problems and a dict with `rows_per_round` (trajectory rows per
    round, round 0 being the spawn), `exit_rounds` (agent -> round it stood
    on an exit), `survivors`, `last_round` and `euclid_excess` (agent-rounds
    whose net move exceeds v_max in the Euclidean norm).
    """
    problems: list[str] = []
    rounds, agents, xs, ys = (traj[:, i] for i in range(4))
    h, w = is_exit.shape

    cell_keys = (rounds * h + ys) * w + xs
    if np.unique(cell_keys).size != len(cell_keys):
        problems.append("two agents share a cell in some round")

    order = np.lexsort((rounds, agents))
    r, a, x, y = rounds[order], agents[order], xs[order], ys[order]
    same = a[1:] == a[:-1]
    if np.any(r[1:][same] - r[:-1][same] != 1):
        problems.append("an agent's trajectory skips or repeats a round")
    dx = np.abs(x[1:] - x[:-1])[same]
    dy = np.abs(y[1:] - y[:-1])[same]
    vm = v_max[a[1:][same]]
    if np.any(np.maximum(dx, dy) > vm):
        problems.append("a per-round Chebyshev displacement exceeds v_max")
    euclid_excess = int(np.count_nonzero(dx * dx + dy * dy > vm * vm))

    last_round = int(rounds.max())
    rows_per_round = np.bincount(rounds, minlength=last_round + 1)
    if np.any(np.diff(rows_per_round) > 0):
        problems.append("the number of live agents increases")
    if rows_per_round[0] != len(v_max):
        problems.append(f"{rows_per_round[0]} agents at round 0, expected {len(v_max)}")

    is_last = np.append(~same, True)
    exit_rounds: dict[int, int] = {}
    survivors = 0
    for aid, rr, xx, yy in zip(a[is_last], r[is_last], x[is_last], y[is_last]):
        if rr > 0 and is_exit[yy, xx]:
            exit_rounds[int(aid)] = int(rr)
        elif rr == last_round:
            survivors += 1
        else:
            problems.append(f"agent {aid} vanished at round {rr} away from an exit")
    if len(exit_rounds) + survivors != len(v_max):
        problems.append("exited plus surviving agents differ from the agent total")
    return problems, {
        "rows_per_round": rows_per_round,
        "exit_rounds": exit_rounds,
        "survivors": survivors,
        "last_round": last_round,
        "euclid_excess": euclid_excess,
    }


def check_result(result, v_max: np.ndarray, is_exit: np.ndarray) -> tuple[list[str], dict]:
    """All output checks for an in-process SimResult; returns problems and derived counts."""
    problems, derived = check_trajectory(np.asarray(result.trajectory, dtype=np.int64), v_max, is_exit)
    alive = np.asarray(result.alive_counts)
    if np.any(np.diff(alive) > 0):
        problems.append("alive counts increase")
    if len(result.exit_rounds) + int(alive[-1]) != result.agents_total:
        problems.append("exit_rounds plus survivors differ from agents_total")
    if not np.array_equal(derived["rows_per_round"][1:], alive[:-1]):
        problems.append("trajectory rows per round disagree with alive counts")
    if result.exit_rounds != derived["exit_rounds"]:
        problems.append("exit_rounds disagree with the trajectory")
    evacuated = int(alive[-1]) == 0
    if result.evacuation_rounds != (len(alive) - 1 if evacuated else None):
        problems.append("evacuation_rounds disagrees with the alive counts")
    return problems, derived


def read_summary(path: str) -> dict[str, str]:
    with open(path) as fh:
        return dict(line.split("=", 1) for line in fh.read().split())


def check_cli_seed(out_dir: str, seed: int, v_max: np.ndarray, is_exit: np.ndarray) -> tuple[list[str], dict]:
    """Checks on the artifacts cli.main wrote for one seed.

    Returns problems and the derived counts of `check_trajectory`, plus
    `evacuation_rounds` (None when the cap was hit).
    """
    traj = np.loadtxt(os.path.join(out_dir, f"trajectories_{seed}.csv"),
                      delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    problems, derived = check_trajectory(traj, v_max, is_exit)
    summary = read_summary(os.path.join(out_dir, f"summary_{seed}.txt"))
    if summary.get("seed") != str(seed) or summary.get("agents_total") != str(len(v_max)):
        problems.append(f"summary_{seed}.txt has the wrong seed or agent total")
    evac = derived["evacuation_rounds"] = derived["last_round"] if derived["survivors"] == 0 else None
    if summary.get("evacuation_rounds") != ("none" if evac is None else str(evac)):
        problems.append(f"summary_{seed}.txt evacuation_rounds disagrees with the trajectory")
    snapshots = os.path.join(out_dir, f"snapshots_{seed}")
    if len(os.listdir(snapshots)) != derived["last_round"] + 1:
        problems.append(f"snapshots_{seed} does not hold one map per round")
    for name in (f"heatmap_{seed}.pgm", f"steplog_{seed}.txt"):
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"{name} is missing")
    return problems, derived


def batch_band(n_runs: int) -> tuple[float, float]:
    """Accepted interval for the mean evacuation rounds of n_runs seeds of room.txt."""
    half = BAND_SIGMAS * ROOM_REFERENCE_SD * math.sqrt(1.0 / n_runs + 1.0 / ROOM_REFERENCE_SEEDS)
    return ROOM_REFERENCE_MEAN - half, ROOM_REFERENCE_MEAN + half


def result_digest(result) -> str:
    """SHA-256 of a run's trajectory and step log."""
    h = hashlib.sha256()
    h.update(np.asarray(result.trajectory, dtype=np.int64).tobytes())
    h.update(np.asarray(result.step_log, dtype=np.int64).tobytes())
    return h.hexdigest()


def artifact_digest(out_dir: str, seed: int) -> str:
    """SHA-256 over every artifact cli.main wrote for one seed, by relative path."""
    h = hashlib.sha256()
    names = [n for n in os.listdir(out_dir) if n.rsplit(".", 1)[0].endswith(f"_{seed}")]
    paths = []
    for name in names:
        full = os.path.join(out_dir, name)
        if os.path.isdir(full):
            paths += [os.path.join(name, sub) for sub in os.listdir(full)]
        else:
            paths.append(name)
    for rel in sorted(paths):
        h.update(rel.encode())
        with open(os.path.join(out_dir, rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
