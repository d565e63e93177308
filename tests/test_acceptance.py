"""Acceptance gate: ten checks at fixed tolerances, one verdict line each.

Each test prints `ACCEPTANCE <n> <name>: PASS|FAIL` so the gate's outcome can
be read off the log without parsing pytest output. Check 10 (per-round net
displacement bounded by v_max in Euclidean length) follows from the step rule:
every destination lies in the v_max disc, and no step leaves the disc around
the round-start cell whose radius is the destination's distance, so a detour
around blocked cells cannot end outside it. The check keeps its 1e-9
tolerance.
"""

from __future__ import annotations

import math
import pathlib

import numpy as np
import pytest
from scipy import stats

from evacsim.cli import main as cli_main
from evacsim.decision import choose_destination, choose_exit
from evacsim.dynamic_field import DynamicField
from evacsim.engine import init_state, run_simulation
from evacsim.scenario import Grid, SimConfig, parse_scenario
from evacsim.static_field import compute_static_field

from helpers import (
    agent_distribution,
    kind_from_rows,
    make_agents,
    make_profile,
    make_state,
    open_room_rows,
    random_kind,
    relaxation_distances,
)

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ----------------------------------------------------- crowded-run fixture

_PROFILES = [
    ("runner", 3, "profile runner v_max=3 k_S=2"),
    ("stroller", 1, "profile stroller v_max=1 k_S=1 k_P=0.5"),
    ("drifter", 2, "profile drifter v_max=2 k_S=0 k_D=0.3 k_I=0.5"),
    ("edge", 4, "profile edge v_max=4 k_S=1.5 k_W=0.8 k_E=1.0"),
]


def _generate_crowd_scenario(rng: np.random.Generator) -> tuple[str, dict]:
    """Random 20x20 room, ~8% interior walls, 30% agent density, mixed profiles."""
    side = 20
    grid = [["." for _ in range(side)] for _ in range(side)]
    for i in range(side):
        grid[0][i] = grid[side - 1][i] = grid[i][0] = grid[i][side - 1] = "W"
    for y in range(1, side - 1):
        for x in range(1, side - 1):
            if rng.random() < 0.08:
                grid[y][x] = "W"
    grid[9][side - 1] = "E"
    grid[10][side - 1] = "E"
    grid[side - 1][int(rng.integers(3, 17))] = "E"
    rows = ["".join(r) for r in grid]

    kind = kind_from_rows(rows)
    exits = [(int(x), int(y)) for y, x in np.argwhere(kind == 2)]
    dist = relaxation_distances(kind, exits)
    floors = [(x, y) for y, x in np.argwhere(kind == 1)]
    reachable = [(x, y) for x, y in floors if np.isfinite(dist[y, x])]
    n_agents = min(int(round(0.3 * len(floors))), len(reachable))
    picks = rng.choice(len(reachable), size=n_agents, replace=False)

    agent_lines = []
    vmax_by_spawn: dict[tuple[int, int], int] = {}
    for i in picks:
        x, y = reachable[i]
        name, v_max, _ = _PROFILES[int(rng.integers(len(_PROFILES)))]
        agent_lines.append(f"agent {x} {y} {name}")
        vmax_by_spawn[(x, y)] = v_max
    profile_lines = [line for _, _, line in _PROFILES]
    return "\n".join(rows + profile_lines + agent_lines) + "\n", vmax_by_spawn


@pytest.fixture(scope="module")
def crowd_runs():
    """Ten 500-round crowded runs; collects exclusion outcome and displacements."""
    rng = np.random.default_rng(118999)
    exclusion_failures: list[tuple[int, str]] = []
    displacements: list[tuple[int, float]] = []  # (v_max, net length) per agent-round
    agent_rounds = 0
    for k in range(10):
        text, vmax_by_spawn = _generate_crowd_scenario(rng)
        spec = parse_scenario(text)
        id_vmax = {i: vmax_by_spawn[(s.x, s.y)] for i, s in enumerate(spec.spawns)}
        try:
            result = run_simulation(spec, SimConfig(seed=k, max_rounds=500))
        except AssertionError as exc:
            exclusion_failures.append((k, str(exc)))
            continue
        last: dict[int, tuple[int, tuple[int, int]]] = {}
        for r, aid, x, y in result.trajectory:
            if aid in last and last[aid][0] == r - 1:
                displacements.append((id_vmax[aid], math.dist(last[aid][1], (x, y))))
                agent_rounds += 1
            last[aid] = (r, (x, y))
    return {
        "exclusion_failures": exclusion_failures,
        "displacements": displacements,
        "agent_rounds": agent_rounds,
    }


# ------------------------------------------------------------- the criteria

def test_criterion_01_exclusion(crowd_runs):
    failures = crowd_runs["exclusion_failures"]
    _verdict(
        1,
        "exclusion invariant",
        not failures,
        f"{crowd_runs['agent_rounds']} agent-rounds, failures={failures}",
    )


def test_criterion_02_distance_field_exactness():
    rng = np.random.default_rng(20250814)
    worst = 0.0
    grids = 0
    while grids < 200:
        kind = random_kind(rng, max_side=12)
        grid = Grid.from_kind(kind)
        grids += 1
        for eid in range(grid.n_exits):
            dist = compute_static_field(grid)[eid]
            sources = [(int(x), int(y)) for y, x in np.argwhere(grid.exit_id == eid)]
            oracle = relaxation_distances(kind, sources)
            finite = np.isfinite(oracle)
            if not np.array_equal(finite, np.isfinite(dist)):
                _verdict(2, "distance-field exactness", False, "reachability mismatch")
            worst = max(worst, float(np.abs(dist[finite] - oracle[finite]).max()))
    _verdict(2, "distance-field exactness", worst <= 1e-9, f"200 grids, worst |err|={worst:.2e}")


def test_criterion_03_destination_normalization():
    rng = np.random.default_rng(333)
    states = [
        make_state(open_room_rows(15, 15, exits=[(0, 7)])),
        make_state(
            ["WWWWWWWWWWWW",
             "WE.....W...W",
             "W......W...W",
             "W..WWWWW...W",
             "W..........W",
             "W.....WWW..W",
             "W..........W",
             "WWWWWWWWWWWW"]
        ),
    ]
    worst = 0.0
    for trial in range(10_000):
        state = states[trial % len(states)]
        state.dyn_field.dx[:] = rng.integers(-5000, 5001, state.dyn_field.dx.shape)
        state.dyn_field.dy[:] = rng.integers(-5000, 5001, state.dyn_field.dy.shape)
        floors = np.argwhere(state.grid.kind != 0)
        y, x = floors[int(rng.integers(len(floors)))]
        profile = make_profile(
            v_max=int(rng.integers(1, 5)),
            k_s=float(rng.uniform(0, 20)),
            k_d=float(rng.uniform(-80, 80)),
            k_i=float(rng.uniform(0, 15)),
            k_w=float(rng.uniform(0, 10)),
            k_p=float(rng.uniform(0, 10)),
        )
        agent = make_agents(state.grid, [(int(x), int(y))], profiles=[profile])
        agent["chosen_exit"] = 0
        agent["last_disp"] = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
        if not np.isfinite(state.exit_dist[0, y, x]):
            continue
        dist = agent_distribution(agent, state)
        if (dist.probs < 0).any():
            _verdict(3, "destination normalization", False, "negative probability")
        worst = max(worst, abs(float(dist.probs.sum()) - 1.0))
    _verdict(3, "destination normalization", worst <= 1e-12, f"worst |sum-1|={worst:.2e}")


def test_criterion_04_zero_coupling_uniformity():
    state = make_state(open_room_rows(17, 17, exits=[(0, 8)]))
    agent = make_agents(state.grid, [(8, 8)], profiles=[make_profile(v_max=2)])
    agent["chosen_exit"] = 0
    dist = agent_distribution(agent, state)
    assert len(dist.probs) == 13
    rng = np.random.default_rng(440044)
    n = 100_000
    tally: dict[tuple[int, int], int] = {}
    for c in map(tuple, choose_destination(np.repeat(agent, n), state, rng.random(n)).tolist()):
        tally[c] = tally.get(c, 0) + 1
    observed = [tally.get((int(x), int(y)), 0) for x, y in dist.cells]
    res = stats.chisquare(observed)
    _verdict(4, "zero-coupling uniformity", res.pvalue > 0.001,
             f"chi2 p={res.pvalue:.4f} over 13 candidates")


def test_criterion_05_exit_choice_law():
    spec = parse_scenario((SCENARIOS / "two_exits.txt").read_text())
    fields = init_state(spec, SimConfig()).exit_dist
    n = 100_000

    agent = make_agents(spec.grid, [(3, 1)], profiles=[make_profile(exits=(0, 1))])
    rng = np.random.default_rng(55)
    near = np.count_nonzero(choose_exit(np.repeat(agent, n), fields, rng.random(n)) == 0)
    plain_err = abs(near / n - 0.8)

    sticky = make_agents(spec.grid, [(3, 1)], profiles=[make_profile(exits=(0, 1), k_e=1.0)])
    sticky["chosen_exit"] = 1  # far exit was last round's choice
    near_sticky = np.count_nonzero(choose_exit(np.repeat(sticky, n), fields, rng.random(n)) == 0)
    sticky_err = abs(near_sticky / n - 2 / 3)

    ok = plain_err < 0.01 and sticky_err < 0.01
    _verdict(5, "exit-choice law", ok,
             f"p(near)={near / n:.4f} vs 0.8, with persistence {near_sticky / n:.4f} vs 2/3")


def test_criterion_06_trace_conservation_and_decay():
    # conservation: diffusion far from walls moves quanta but never loses them
    side = 220
    grid = Grid.from_kind(np.full((side, side), 1, dtype=np.int8))
    field = DynamicField(grid)
    field.record_moves([((110, 110), (113, 108))] * 1111)  # dx=+3333, dy=-2222
    rng = np.random.default_rng(660)
    conserved = True
    for _ in range(100):
        field.decay_and_diffuse(0.0, 0.8, rng)
        if int(field.dx.sum()) != 3333 or int(field.dy.sum()) != -2222:
            conserved = False
            break

    # decay: survivors of a 10^4-quanta cell are Binomial(10^4, 0.5)
    n = 10_000
    min_p = 1.0
    for trial in range(50):
        f = DynamicField(Grid.from_kind(np.full((9, 9), 1, dtype=np.int8)))
        f.record_moves([((4, 4), (5, 4))] * n)
        f.decay_and_diffuse(0.5, 0.0, np.random.default_rng(7000 + trial))
        p = stats.binomtest(int(f.dx[4, 4]), n, 0.5).pvalue
        min_p = min(min_p, p)
    ok = conserved and min_p >= 1e-6
    _verdict(6, "trace conservation and decay", ok,
             f"conserved={conserved}, min binomial p={min_p:.2e} over 50 trials")


def test_criterion_07_corridor_speed():
    spec = parse_scenario((SCENARIOS / "corridor.txt").read_text())
    rounds = [run_simulation(spec, SimConfig(seed=s)).evacuation_rounds for s in range(3)]
    _verdict(7, "corridor speed", all(r == 10 for r in rounds),
             f"evacuation_rounds={rounds}, 12 m at 1.2 m/s")


def test_criterion_08_inertia_suppression():
    state = make_state(open_room_rows(25, 25, exits=[(0, 12)]))
    agent = make_agents(state.grid, [(12, 12)], profiles=[make_profile(v_max=3, k_i=5.0)])
    agent["chosen_exit"] = 0
    agent["last_disp"] = (3, 0)  # one forced eastward round at full speed
    dist = agent_distribution(agent, state)
    backward = 0.0
    for (x, y), p in zip(dist.cells, dist.probs):
        off = (int(x) - 12, int(y) - 12)
        if off == (0, 0):
            continue
        cos_phi = off[0] / math.hypot(*off)  # last_disp points east
        if math.acos(max(-1.0, min(1.0, cos_phi))) > math.pi / 2:
            backward += float(p)
    _verdict(8, "inertia suppression", backward < 0.01,
             f"mass at |turn|>90 deg = {backward:.2e}")


def test_criterion_09_cli_determinism(tmp_path):
    mismatches = []
    for name in ("corridor", "two_exits", "room"):
        dirs = [tmp_path / f"{name}_{i}" for i in (1, 2)]
        for d in dirs:
            status = cli_main([
                "--scenario", str(SCENARIOS / f"{name}.txt"), "--seed", "9",
                "--out", str(d), "--emit", "trajectories,summary,heatmap",
            ])
            assert status == 0
        for artifact in (f"trajectories_9.csv", f"summary_9.txt", f"heatmap_9.pgm"):
            if (dirs[0] / artifact).read_bytes() != (dirs[1] / artifact).read_bytes():
                mismatches.append(f"{name}/{artifact}")
    _verdict(9, "run determinism", not mismatches, f"mismatches={mismatches or 'none'}")


def test_criterion_10_velocity_bound(crowd_runs):
    worst = 0.0
    violations = 0
    for v_max, length in crowd_runs["displacements"]:
        excess = length - v_max
        worst = max(worst, excess)
        if excess > 1e-9:
            violations += 1
    _verdict(
        10,
        "euclidean velocity bound",
        worst <= 1e-9,
        f"{violations} of {crowd_runs['agent_rounds']} agent-rounds exceed v_max, "
        f"worst excess {worst:.6f}",
    )
