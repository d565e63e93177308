"""Round loop: decisions, movement, trace update, exit removal, bookkeeping.

Randomness discipline: every random draw comes from a stream keyed by
(master seed, round, purpose), so a run is exactly reproducible from its
seed: numpy's PCG64 stream of `SeedSequence([seed, round, 0, purpose])`. A
lockstep of L seeds hashes the keys of ceil(64 / L) rounds at once
(`stream_words`) and builds each stream from its words (`derive_stream`).
Exit and destination choice each draw one uniform per agent id from a single
per-round stream, so an agent's draws do not depend on which other agents
are still in the room. One round models one second; one cell edge is 0.4 m.

Seeds of one scenario run in lockstep, and a single run is a lockstep of one.
A `SimState`'s agent table (`agent_table`) holds every seed's agents still in
the room. A round makes one exit-choice, one destination-choice and one trace
update call over all of them, and its end-of-round bookkeeping runs once; per
seed are the streams, the movement phase, the trace update's draws, byte for
byte those of its run alone, and the record (`SimResult`) that `run_batch`
yields. A seed leaves the lockstep when its last agent has. Its record keeps
one array of positions and one of steps per round, and joins them into the
trajectory and step-log tables only when they are read, so a summary-only run
builds no tables.

Budget: `run_batch` runs lockstep groups of L seeds, L the largest count with
L x spawned agents <= LOCKSTEP_ROWS and L x H x W <= LOCKSTEP_CELLS, and at
least 1. So up to 163 seeds of `scenarios/room.txt` (20 x 20 cells, 11 agents)
run as one lockstep, and a 120 x 120 room of 4177 agents one seed at a time. A
lockstep's per-seed grids (trace, occupancy, crowd counts) take 18 bytes a
cell, at most 1.2 MB; its seeds' records grow with their rows and rounds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, product
from typing import Iterator

import numpy as np

from .decision import SimulationError, choose_destination, choose_exit, crowd_counts, exit_weights
from .dynamic_field import DynamicField
from .movement import execute_round
from .scenario import EXIT, Grid, ScenarioSpec, SimConfig
from .static_field import compute_static_field, compute_wall_distance

ROUND_SECONDS = 1.0
LOCKSTEP_ROWS = 4096
LOCKSTEP_CELLS = 1 << 16

PURPOSE_EXIT, PURPOSE_DESTINATION, PURPOSE_MOVEMENT, PURPOSE_FIELD = range(4)  # a stream key's last word

# numpy's SeedSequence hash: its entropy pool's (`hashmix`, `mix`) and `generate_state`'s multipliers
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _key_words(n: int) -> list[int]:
    """The 32-bit little-endian words `SeedSequence` makes of an int >= 0 (0 is one word)."""
    return [n & 0xFFFFFFFF, *_key_words(n >> 32)] if n >> 32 > 0 else [n]


def _hashes(init: int, mult: int, calls: int) -> np.ndarray:
    """The (calls + 1, 1) uint32 rows init * mult**j mod 2**32: hash j xors with row j, then multiplies by row j + 1."""
    return np.cumprod([[init]] + [[mult]] * calls, axis=0, dtype=np.uint32)


def _hashmix(value: np.ndarray, hashes: np.ndarray, j: int, n: int) -> np.ndarray:  # hashes j, ..., j + n - 1
    value = (value ^ hashes[j:j + n]) * hashes[j + 1:j + n + 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * MIX_MULT_L - y * MIX_MULT_R
    return value ^ (value >> 16)


def stream_words(seeds: list[int], first_round: int, rounds: int) -> np.ndarray:
    """The (rounds, len(seeds), 4, 4) uint64 PCG64 seed words [r, i, p] of numpy's `SeedSequence([seeds[i],
    first_round + r, 0, p]).generate_state(4, np.uint64)`, the digests pinning the 0. One pass per (seed, round) word
    count hashes its keys; pool word d takes in key word s by hash 4 + 3 s + d - (d > s) if s < 4, else 4 s + d."""
    seed_words = [_key_words(s) for s in seeds]
    round_words = [_key_words(first_round + r) for r in range(rounds)]
    hashes = _hashes(INIT_A, MULT_A, 4 * (max(map(len, seed_words)) + len(round_words[-1]) + 2))
    out = np.empty((rounds, len(seeds), 4, 4), dtype=np.uint64)
    for ns, nr in product(set(map(len, seed_words)), set(map(len, round_words))):
        at = [i for i, w in enumerate(seed_words) if len(w) == ns]
        rs = [r for r, w in enumerate(round_words) if len(w) == nr]
        key = np.zeros((ns + nr + 2, len(rs), len(at), 4), dtype=np.uint32)  # word, round, seed, purpose
        key[:ns] = np.array([seed_words[i] for i in at], dtype=np.uint32).T[:, None, :, None]
        key[ns:-2] = np.array([round_words[r] for r in rs], dtype=np.uint32).T[:, :, None, None]
        key[-1] = np.arange(4, dtype=np.uint32)
        key = key.reshape(len(key), -1)
        pool = _hashmix(key[:4], hashes, 0, 4)
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], hashes, 4 + 3 * src, 3))
        for src in range(4, len(key)):
            pool = _mix(pool, _hashmix(key[src], hashes, 4 * src, 4))
        state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hashes(INIT_B, MULT_B, 8), 0, 8)  # generate_state
        out[np.ix_(rs, at)] = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").reshape(len(rs), len(at), 4, 4)
    return out


@dataclass
class _Words(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is the words it was given: a (4,) uint64 `stream_words` entry."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def derive_stream(words: np.ndarray) -> np.random.Generator:
    """The stream of a `stream_words` entry: numpy's PCG64 stream of its key's `SeedSequence`, seeded by its words."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


@dataclass(eq=False)
class SimResult:
    """The record of one seed, filled by `run_round` while its lockstep runs: its master seed, `alive_counts[r]`,
    its agents after round r, `exit_rounds`, the round in which each agent that left stood on an exit, by id,
    `positions[r]`, the (n, 3) int64 (id, x, y) of its rows at the end of round r (round 0: the spawns, exits
    included), and `steps[r - 1]`, round r's step rows. The two tables are joined from these on first read, which
    comes once the seed has left: `trajectory`, the (n, 4) int64 table of (round, agent, x, y), each round by
    ascending id; `step_log`, the (n, 7) int64 table of (round, step, agent, from_x, from_y, to_x, to_y), `step`
    counting each round's steps from 0. A run that reads neither builds neither."""

    seed: int
    grid: Grid
    alive_counts: list[int]
    positions: list[np.ndarray] = field(repr=False)
    steps: list[np.ndarray] = field(default_factory=list, repr=False)
    exit_rounds: dict[int, int] = field(default_factory=dict)

    @property
    def agents_total(self) -> int:
        return self.alive_counts[0]

    @property
    def evacuation_rounds(self) -> int | None:
        return None if self.alive_counts[-1] else len(self.alive_counts) - 1

    @property
    def evacuation_seconds(self) -> float | None:
        return None if self.evacuation_rounds is None else self.evacuation_rounds * ROUND_SECONDS

    @cached_property
    def trajectory(self) -> np.ndarray:
        sizes = [len(a) for a in self.positions]
        trajectory = np.empty((sum(sizes), 4), dtype=np.int64)
        trajectory[:, 0] = np.repeat(np.arange(len(sizes)), sizes)
        np.concatenate(self.positions, out=trajectory[:, 1:])
        return trajectory

    @cached_property
    def step_log(self) -> np.ndarray:
        counts = np.array([len(s) for s in self.steps], dtype=np.int64)
        step_log = np.empty((counts.sum(), 7), dtype=np.int64)
        step_log[:, 0] = np.repeat(np.arange(1, len(counts) + 1), counts)
        step_log[:, 1] = np.arange(len(step_log)) - np.repeat(np.cumsum(counts) - counts, counts)
        np.concatenate([np.empty((0, 3), dtype=np.int64), *self.steps], out=step_log[:, 2:5])
        step_log[:, 3::2], step_log[:, 4::2] = np.divmod(step_log[:, 3:5], self.grid.width)[::-1]
        return step_log


@dataclass
class SimState:
    """A lockstep: everything its rounds read and mutate, for seeds config.seed, config.seed + 1, ...

    `agents` is the agent table (see `agent_table`) of the agents still in the room, by seed, then in ascending
    id order; `runs` holds each seed's record (`SimResult`), in seed order, and a seed without agents has left.
    `exit_dist` is the (E, H, W) stack of per-exit distances and `wall_dist` the (H, W) wall distance clamped to
    `config.w_max`; both are read-only and shared by the seeds. `occupancy`, `counts` (crowd counts) and the
    components of `dyn_field`, the trace field, are (L, H + 1, W) and (2, L, H + 1, W) stacks of the seeds'
    grids: seed i's grid is the first H rows of block i, at flat offset i (H + 1) W; the last row is spare, and
    the trace update sinks lost quanta there. `alive_counts[r]` counts the rows after round r; `t` is the last
    round. `words` holds the `stream_words` of the block of B = ceil(64 / L) rounds from t - t % B on, which
    `run_round` hashes at its start.
    """

    grid: Grid
    config: SimConfig
    agents: np.ndarray
    exit_dist: np.ndarray
    wall_dist: np.ndarray
    occupancy: np.ndarray
    counts: np.ndarray
    dyn_field: DynamicField
    runs: list[SimResult]
    t: int = 0
    alive_counts: list[int] = field(default_factory=list)
    words: np.ndarray = field(default_factory=lambda: np.empty((0, 0, 4, 4), dtype=np.uint64))


def agent_table(spec: ScenarioSpec) -> np.ndarray:
    """The agent table at spawn, row i being agent i: the fields `id`, `pos` (x, y), `last_disp` (dx, dy)
    of its last round, `chosen_exit` (-1 before its first choice), its profile's `v_max`, `k` (k_S,
    k_D, k_I, k_W, k_P), `k_e` and `allowed`, the mask of the exits it may use, and `offset`, the flat
    offset of its seed's grids in a lockstep's per-seed stacks (0 here).

    Its elements are `np.record`s, so a row reads its fields as attributes (`row.pos`) and a column is a
    plain field read (`agents["pos"]`). Built a column at a time: one profile index per spawn into small
    arrays of the profiles' values.
    """
    n, n_exits = len(spec.spawns), spec.grid.n_exits
    profiles = list(spec.profiles.values())
    index = {name: i for i, name in enumerate(spec.profiles)}
    which = np.fromiter([index[s.profile] for s in spec.spawns], np.intp, n)
    agents = np.zeros(n, dtype=np.dtype((np.record, [
        ("id", np.int64), ("pos", np.int64, 2), ("last_disp", np.int64, 2), ("chosen_exit", np.int64),
        ("v_max", np.int64), ("k", np.float64, 5), ("k_e", np.float64), ("allowed", bool, n_exits),
        ("offset", np.int64),
    ])))
    agents["id"] = np.arange(n)
    agents["pos"] = np.fromiter(chain.from_iterable([(s.x, s.y) for s in spec.spawns]), np.int64, 2 * n).reshape(-1, 2)
    agents["chosen_exit"] = -1
    agents["v_max"] = np.array([p.v_max for p in profiles], dtype=np.int64)[which]
    k = [(p.k_s, p.k_d, p.k_i, p.k_w, p.k_p) for p in profiles]
    agents["k"] = np.array(k, dtype=np.float64).reshape(len(profiles), 5)[which]
    agents["k_e"] = np.array([p.k_e for p in profiles], dtype=np.float64)[which]
    mask = [[p.allowed_exits is None or e in p.allowed_exits for e in range(n_exits)] for p in profiles]
    agents["allowed"] = np.array(mask, dtype=bool).reshape(len(profiles), n_exits)[which]
    return agents


def lockstep_size(spec: ScenarioSpec) -> int:
    """The most seeds of `spec` that one lockstep holds within LOCKSTEP_ROWS and LOCKSTEP_CELLS; at least 1."""
    return max(1, min(LOCKSTEP_ROWS // max(len(spec.spawns), 1), LOCKSTEP_CELLS // spec.grid.kind.size))


def init_state(spec: ScenarioSpec, config: SimConfig, seeds: int = 1) -> SimState:
    """Precompute the floor fields, then spawn a lockstep of the seeds config.seed, ...,
    config.seed + seeds - 1 (see `spawn`)."""
    exit_dist = compute_static_field(spec.grid)
    return spawn(spec, config, seeds, exit_dist, compute_wall_distance(spec.grid, config.w_max))


def spawn(spec: ScenarioSpec, config: SimConfig, seeds: int, exit_dist: np.ndarray, wall_dist: np.ndarray) -> SimState:
    """A lockstep of `seeds` seeds from config.seed on, at spawn, on the read-only floor fields
    (exit_dist, wall_dist) of `spec.grid` and `config.w_max`; validates exit reachability."""
    grid = spec.grid
    table = agent_table(spec)
    stuck = np.flatnonzero(~exit_weights(table, exit_dist).any(axis=1))
    if stuck.size:
        a = table[int(stuck[0])]
        raise SimulationError(f"agent {a.id} at ({a.pos[0]}, {a.pos[1]}) cannot reach any of its allowed exits")

    block = (grid.height + 1) * grid.width
    agents = np.tile(table, seeds)
    agents["offset"] = np.repeat(np.arange(seeds) * block, len(table))
    occupancy = np.zeros((seeds, grid.height + 1, grid.width), dtype=bool)
    occupancy.reshape(-1)[cells_of(agents, grid.width)] = True
    spawned = np.column_stack((table["id"], table["pos"]))  # round 0's record, shared by the seeds
    runs = [SimResult(config.seed + i, grid, [len(table)], [spawned]) for i in range(seeds)]
    return SimState(
        grid=grid,
        config=config,
        agents=agents,
        exit_dist=exit_dist,
        wall_dist=wall_dist,
        occupancy=occupancy,
        counts=crowd_counts(occupancy),
        dyn_field=DynamicField(grid, np.zeros((2, seeds, grid.height + 1, grid.width), dtype=np.int64)),
        runs=runs,
        alive_counts=[len(agents)],
    )


def cells_of(agents: np.ndarray, width: int) -> np.ndarray:
    """Each row's flat index `offset + y * width + x` into the per-seed stacks."""
    pos = agents["pos"]
    return agents["offset"] + pos[:, 1] * width + pos[:, 0]


def run_round(state: SimState) -> None:
    """Advance every seed of the lockstep one round; see the module docstring for the phase order."""
    t = state.t
    rows = state.agents
    runs = state.runs
    ids = rows["id"]
    cuts = np.searchsorted(rows["offset"], np.arange(len(runs) + 1) * state.occupancy[0].size)
    bounds = cuts.tolist()
    block = -(-64 // len(runs))  # rounds whose stream keys, about 256, are hashed at once
    if t % block == 0:
        state.words = stream_words([run.seed for run in runs], t, block)
    words = state.words[t % block]
    spans = [(run, key, lo, hi) for run, key, lo, hi in zip(runs, words, bounds, bounds[1:]) if lo < hi]

    u = {purpose: np.empty(len(rows)) for purpose in (PURPOSE_EXIT, PURPOSE_DESTINATION)}
    for run, key, lo, hi in spans:  # a seed's spawns get one draw per agent id, whoever has left
        for purpose, draws in u.items():
            draws[lo:hi] = derive_stream(key[purpose]).random(run.alive_counts[0])[ids[lo:hi]]
    rows["chosen_exit"] = choose_exit(rows, state.exit_dist, u[PURPOSE_EXIT])
    picked = choose_destination(rows, state, u[PURPOSE_DESTINATION])

    end = np.empty_like(picked)
    for run, key, lo, hi in spans:
        seed_rows = rows[lo:hi]
        destinations = np.zeros((run.alive_counts[0], 2), dtype=np.int64)
        destinations[ids[lo:hi]] = picked[lo:hi]
        moved = execute_round(seed_rows, destinations, state.grid, derive_stream(key[PURPOSE_MOVEMENT]))
        end[lo:hi] = moved.end
        run.positions.append(np.column_stack((ids[lo:hi], moved.end)))
        run.steps.append(moved.steps)
    state.dyn_field.record_moves(np.concatenate((rows["pos"], end), axis=1), rows["offset"])
    rngs = (derive_stream(key[PURPOSE_FIELD]) if run.alive_counts[-1] else None for run, key in zip(runs, words))
    state.dyn_field.decay_and_diffuse(state.config.delta, state.config.alpha, *rngs)

    round_no = t + 1
    rows["last_disp"] = end - rows["pos"]
    rows["pos"] = end
    xs, ys = end.T
    out = state.grid.kind[ys, xs] == EXIT
    owner = np.searchsorted(cuts, np.flatnonzero(out), side="right") - 1
    for k, agent in zip(owner.tolist(), ids[out].tolist()):
        runs[k].exit_rounds[agent] = round_no
    stay = ~out
    cells = cells_of(rows, state.grid.width)[stay]
    state.occupancy = np.zeros_like(state.occupancy)
    state.occupancy.reshape(-1)[cells] = True
    if np.count_nonzero(state.occupancy) < len(cells):
        held, counts = np.unique(np.column_stack((rows["offset"], end))[stay], axis=0, return_counts=True)
        cell = tuple(held[counts > 1][0, 1:].tolist())
        raise SimulationError(f"two agents on cell {cell} at the end of round {round_no}")
    state.counts = crowd_counts(state.occupancy)
    kept = np.concatenate(([0], np.cumsum(stay))).tolist()  # kept[i]: rows before row i that stay
    for run, _, lo, hi in spans:
        run.alive_counts.append(kept[hi] - kept[lo])
    state.agents = rows[stay]
    state.alive_counts.append(len(state.agents))
    state.t = round_no


def run_batch(spec: ScenarioSpec, config: SimConfig, seeds: int) -> Iterator[SimResult]:
    """The results of seeds config.seed, ..., config.seed + seeds - 1, in seed order, run in lockstep
    groups of at most `lockstep_size(spec)` seeds that share one pair of floor fields.

    The first group is spawned before this returns, so a scenario whose agents cannot reach their
    exits raises here, before any result is read. A result is yielded once its seed and every
    earlier one have finished.
    """
    state = init_state(spec, config, min(seeds, lockstep_size(spec)))
    return _results(spec, state, config.seed + seeds)


def _results(spec: ScenarioSpec, state: SimState, stop: int) -> Iterator[SimResult]:
    """Run each lockstep group to its end, and the next from the seed after its last, until `stop`."""
    while True:
        pending = deque(state.runs)  # seeds not yet yielded, in seed order
        while pending:
            over = not state.alive_counts[-1] or state.t >= state.config.max_rounds
            while pending and (over or not pending[0].alive_counts[-1]):
                yield pending.popleft()
            if pending:
                run_round(state)
        first, size = state.runs[-1].seed + 1, len(state.runs)
        if first == stop:
            return
        state = spawn(spec, replace(state.config, seed=first), min(stop - first, size), state.exit_dist, state.wall_dist)


def run_simulation(spec: ScenarioSpec, config: SimConfig) -> SimResult:
    """Run rounds until everyone evacuated or max_rounds is hit: a lockstep of one seed."""
    return next(run_batch(spec, config, 1))
