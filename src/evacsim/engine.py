"""Round loop: decisions, movement, trace update, exit removal, bookkeeping.

Randomness discipline: every random draw comes from a stream keyed by
(master seed, round, purpose), so a run is exactly reproducible from its
seed. Exit and destination choice each draw one uniform per agent id from a
single per-round stream, so an agent's draws do not depend on which other
agents are still in the room. One round models one second; one cell edge is
0.4 m. The agent table (`agent_table`) holds the rows of the agents still in
the room; a round updates them in place and drops the rows of those that left.
End-of-round bookkeeping runs on arrays of the agents' final cells, and a round
records integer columns, not tuples: its agents' ids and end cells and its step
rows, which the finished run joins into its tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .decision import SimulationError, choose_destination, choose_exit, crowd_counts, exit_weights
from .dynamic_field import DynamicField
from .movement import execute_round
from .scenario import EXIT, Grid, ScenarioSpec, SimConfig
from .static_field import compute_static_field, compute_wall_distance

ROUND_SECONDS = 1.0

# purpose tags for derive_stream
PURPOSE_EXIT = 0
PURPOSE_DESTINATION = 1
PURPOSE_MOVEMENT = 2
PURPOSE_FIELD = 3


def derive_stream(master_seed: int, round_idx: int, purpose: int) -> np.random.Generator:
    """Independent deterministic substream for one (round, purpose); the pinned digests rest on the key's fixed 0."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, round_idx, 0, purpose]))


@dataclass
class SimState:
    """Everything a run reads and mutates round to round.

    `agents` is the agent table (see `agent_table`) of the agents still in
    the room, in ascending id order.
    `exit_dist` is the (E, H, W) stack of per-exit distances and `wall_dist`
    the (H, W) wall distance clamped to `config.w_max`; both are read-only.
    Round r records its agents' ids and end (x, y) (round 0: the spawns) and its step rows in
    `round_ids[r]`, `round_cells[r]` and `round_steps[r - 1]`.
    """

    grid: Grid
    config: SimConfig
    agents: np.ndarray
    exit_dist: np.ndarray
    wall_dist: np.ndarray
    dyn_field: DynamicField
    occupancy: np.ndarray
    counts: np.ndarray
    t: int = 0
    round_ids: list[np.ndarray] = field(default_factory=list)
    round_cells: list[np.ndarray] = field(default_factory=list)
    round_steps: list[np.ndarray] = field(default_factory=list)
    alive_counts: list[int] = field(default_factory=list)
    exit_rounds: dict[int, int] = field(default_factory=dict)


@dataclass
class SimResult:
    """Observables of one finished run. `trajectory` is the (n, 4) int64 table of (round, agent, x, y),
    round 0 the spawn, each round by ascending id, exits included; `step_log` the (n, 7) int64 table of
    (round, step, agent, from_x, from_y, to_x, to_y), `step` counting each round's steps from 0."""

    evacuation_rounds: int | None
    agents_total: int
    seed: int
    alive_counts: list[int]
    exit_rounds: dict[int, int]
    trajectory: np.ndarray
    step_log: np.ndarray
    grid: Grid

    @property
    def evacuation_seconds(self) -> float | None:
        return None if self.evacuation_rounds is None else self.evacuation_rounds * ROUND_SECONDS


def agent_table(spec: ScenarioSpec) -> np.ndarray:
    """The agent table at spawn, row i being agent i: the fields `id`, `pos` (x, y), `last_disp` (dx, dy)
    of its last round, `chosen_exit` (-1 before its first choice), and its profile's `v_max`, `k` (k_S,
    k_D, k_I, k_W, k_P), `k_e` and `allowed`, the mask of the exits it may use.

    Its elements are `np.record`s, so a row reads its fields as attributes (`row.pos`) and a column is a
    plain field read (`agents["pos"]`). Built a column at a time: one profile index per spawn into small
    arrays of the profiles' values.
    """
    n, n_exits = len(spec.spawns), spec.grid.n_exits
    profiles = list(spec.profiles.values())
    index = {name: i for i, name in enumerate(spec.profiles)}
    which = np.fromiter([index[s.profile] for s in spec.spawns], np.intp, n)
    agents = np.empty(n, dtype=np.dtype((np.record, [
        ("id", np.int64), ("pos", np.int64, 2), ("last_disp", np.int64, 2), ("chosen_exit", np.int64),
        ("v_max", np.int64), ("k", np.float64, 5), ("k_e", np.float64), ("allowed", bool, n_exits),
    ])))
    agents["id"] = np.arange(n)
    agents["pos"] = np.fromiter(chain.from_iterable([(s.x, s.y) for s in spec.spawns]), np.int64, 2 * n).reshape(-1, 2)
    agents["last_disp"] = 0
    agents["chosen_exit"] = -1
    agents["v_max"] = np.array([p.v_max for p in profiles], dtype=np.int64)[which]
    k = [(p.k_s, p.k_d, p.k_i, p.k_w, p.k_p) for p in profiles]
    agents["k"] = np.array(k, dtype=np.float64).reshape(len(profiles), 5)[which]
    agents["k_e"] = np.array([p.k_e for p in profiles], dtype=np.float64)[which]
    mask = [[p.allowed_exits is None or e in p.allowed_exits for e in range(n_exits)] for p in profiles]
    agents["allowed"] = np.array(mask, dtype=bool).reshape(len(profiles), n_exits)[which]
    return agents


def init_state(
    spec: ScenarioSpec, config: SimConfig, fields: tuple[np.ndarray, np.ndarray] | None = None
) -> SimState:
    """Precompute fields, spawn agents, and validate exit reachability.

    `fields` is the read-only (exit_dist, wall_dist) pair of an earlier state
    of the same grid and `config.w_max`; the seeds of a batch share one pair,
    so a batch computes the floor fields once. Without it both are computed.
    """
    grid = spec.grid
    if fields is None:
        exit_dist = compute_static_field(grid)
        wall_dist = compute_wall_distance(grid, config.w_max)
    else:
        exit_dist, wall_dist = fields

    agents = agent_table(spec)
    stuck = np.flatnonzero(~exit_weights(agents, exit_dist).any(axis=1))
    if stuck.size:
        a = agents[int(stuck[0])]
        raise SimulationError(f"agent {a.id} at ({a.pos[0]}, {a.pos[1]}) cannot reach any of its allowed exits")

    pos = agents["pos"].copy()  # round 0's record, which the table's later writes must not change
    xs, ys = pos.T
    occupancy = np.zeros((grid.height, grid.width), dtype=bool)
    occupancy[ys, xs] = True

    state = SimState(
        grid=grid,
        config=config,
        agents=agents,
        exit_dist=exit_dist,
        wall_dist=wall_dist,
        dyn_field=DynamicField(grid),
        occupancy=occupancy,
        counts=crowd_counts(occupancy),
    )
    state.round_ids.append(agents["id"].copy())
    state.round_cells.append(pos)
    state.alive_counts.append(len(agents))
    return state


def run_round(state: SimState) -> None:
    """Advance one round; see the module docstring for the phase order."""
    cfg = state.config
    seed = cfg.seed
    t = state.t
    rows = state.agents
    ids = rows["id"].copy()  # the round's record, which must not hold this table once it is replaced
    n = state.alive_counts[0]  # the spawns: one draw per agent id, whoever has left

    rows["chosen_exit"] = choose_exit(rows, state.exit_dist, derive_stream(seed, t, PURPOSE_EXIT).random(n)[ids])
    destinations = np.zeros((n, 2), dtype=np.int64)
    destinations[ids] = choose_destination(rows, state, derive_stream(seed, t, PURPOSE_DESTINATION).random(n)[ids])
    moved = execute_round(rows, destinations, state.grid, derive_stream(seed, t, PURPOSE_MOVEMENT))

    start = rows["pos"]
    state.dyn_field.record_moves(np.concatenate((start, moved.end), axis=1))
    state.dyn_field.decay_and_diffuse(cfg.delta, cfg.alpha, derive_stream(seed, t, PURPOSE_FIELD))

    round_no = t + 1
    state.round_ids.append(ids)
    state.round_cells.append(moved.end)
    state.round_steps.append(moved.steps)
    rows["last_disp"] = moved.end - start
    rows["pos"] = moved.end
    xs, ys = moved.end.T
    out = state.grid.kind[ys, xs] == EXIT
    state.exit_rounds.update(dict.fromkeys(ids[out].tolist(), round_no))
    stay = ~out
    state.occupancy = np.zeros_like(state.occupancy)
    state.occupancy[ys[stay], xs[stay]] = True
    if np.count_nonzero(state.occupancy) < np.count_nonzero(stay):
        held, counts = np.unique(np.stack((xs[stay], ys[stay]), axis=1), axis=0, return_counts=True)
        cell = tuple(held[counts > 1][0].tolist())
        raise SimulationError(f"two agents on cell {cell} at the end of round {round_no}")
    state.counts = crowd_counts(state.occupancy)
    state.agents = rows[stay]
    state.alive_counts.append(len(state.agents))
    state.t = round_no


def run_simulation(
    spec: ScenarioSpec, config: SimConfig, fields: tuple[np.ndarray, np.ndarray] | None = None
) -> SimResult:
    """Run rounds until everyone evacuated or max_rounds is hit; `fields` as in `init_state`."""
    state = init_state(spec, config, fields)
    while state.alive_counts[-1] and state.t < config.max_rounds:
        run_round(state)
    evacuated = not state.alive_counts[-1]
    trajectory, step_log = record_tables(state)
    return SimResult(
        evacuation_rounds=state.t if evacuated else None,
        agents_total=state.alive_counts[0],
        seed=config.seed,
        alive_counts=state.alive_counts,
        exit_rounds=state.exit_rounds,
        trajectory=trajectory,
        step_log=step_log,
        grid=state.grid,
    )


def record_tables(state: SimState) -> tuple[np.ndarray, np.ndarray]:
    """The trajectory and step-log tables (see `SimResult`) of the rounds recorded in `state`, filled in place."""
    sizes = [len(ids) for ids in state.round_ids]
    trajectory = np.empty((sum(sizes), 4), dtype=np.int64)
    trajectory[:, 0] = np.repeat(np.arange(len(sizes)), sizes)
    np.concatenate(state.round_ids, out=trajectory[:, 1])
    np.concatenate(state.round_cells, out=trajectory[:, 2:])
    counts = np.array([len(s) for s in state.round_steps], dtype=np.int64)
    step_log = np.empty((counts.sum(), 7), dtype=np.int64)
    step_log[:, 0] = np.repeat(np.arange(1, len(counts) + 1), counts)
    step_log[:, 1] = np.arange(len(step_log)) - np.repeat(np.cumsum(counts) - counts, counts)
    np.concatenate([np.empty((0, 3), dtype=np.int64), *state.round_steps], out=step_log[:, 2:5])
    step_log[:, 3::2], step_log[:, 4::2] = np.divmod(step_log[:, 3:5], state.grid.width)[::-1]
    return trajectory, step_log
