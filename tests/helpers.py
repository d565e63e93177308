"""Shared test oracles and scenario builders.

`moore_steps` is the scalar oracle of the step rule that `Grid.steps` holds
as bits. Two distance oracles share no code with the package's vectorised
relaxation over that table: `relaxation_distances` (naive fixpoint sweeps
over the whole grid) and `dijkstra_distances` (a priority-queue search over
`moore_steps`, which the package's fields must equal bit for bit).
`make_profile` and `make_agents` build rows of the package's agent table
(`engine.agent_table`) for given cells, ids and profiles; the oracles read
such rows one record at a time (`a.pos`, `a.k`, `a.chosen_exit`, ...).
The per-cell `logw_*` scalars and `exit_weight` are the independent oracles
for the package's batched decision kernels, which read one seed's state built
by `make_state`; `neighborhood` lists the in-grid non-wall cells of a speed
disc, from which the destination kernel takes its candidates.
`reference_exit_weights` and `reference_destination_distribution` are the
batched decision kernels as they stood before they read the table's columns:
per-agent gathers, and the inertia and wall terms computed per block; the
kernels must equal them bit for bit. `softmax_from_log` is the softmax they
use.
`reference_execute_round` is the movement phase as it stood before the token
loop went flat: id-keyed dicts, an (H, W) `blocked` array and per-token
numpy reads, consuming the same draws; it writes each row's `pos` as it
steps. Its tokens, like the package's, are laid out in ascending id before
the shuffle. `flat_execute_step` is the step rule as it stood before the
token loop read cached tiers: a scan of a cell's `step_moves`, the per-width
table of the moves each step byte permits, that keeps the nearest admissible
moves. `dest_table` builds the id-indexed destination array that
`execute_round` reads, and `step_coords` turns its (id, from cell, to cell)
step rows into (id, fx, fy, tx, ty) rows.
`reference_update_component` is the trace update as it stood before it went
sparse: binomial and multinomial draws over every cell of the grid, then one
shifted add per von Neumann direction.
`reference_table_text` is the artifact table formatter as it stood before it
formatted fixed blocks of rows: one `%` operation over the whole table.
`reference_crowd_counts` is the crowd count as it stood before the box sum:
eight shifted slices of one padded `int32` array.
`reference_relax` is the field relaxation as it stood before a pass relaxed its
eight moves in one block, and `reference_grid_kind` the parser's per-character
walk over the grid rows; the package must equal both byte for byte.
`render_scenario` writes a spec back as scenario text, so the parser's
round-trip tests can compare `parse_scenario(render_scenario(spec))` to it
with `same_spec`.
"""

from __future__ import annotations

import heapq
import math
from types import SimpleNamespace

import numpy as np

WALL, FLOOR, EXIT = 0, 1, 2
SQRT2 = math.sqrt(2.0)


def chebyshev(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def relaxation_distances(kind: np.ndarray, sources: list[tuple[int, int]]) -> np.ndarray:
    """Shortest Moore-graph distances by repeated relaxation to fixpoint.

    Steps cost 1 orthogonally, sqrt(2) diagonally; a diagonal step is
    forbidden when both of its orthogonal corner cells are walls. Walls and
    unreachable cells stay at +inf.
    """
    h, w = kind.shape
    dist = np.full((h, w), np.inf)
    for x, y in sources:
        dist[y, x] = 0.0
    changed = True
    while changed:
        changed = False
        for y in range(h):
            for x in range(w):
                if kind[y, x] == WALL:
                    continue
                best = dist[y, x]
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if dx == 0 and dy == 0:
                            continue
                        ny, nx = y + dy, x + dx
                        if not (0 <= nx < w and 0 <= ny < h):
                            continue
                        if kind[ny, nx] == WALL:
                            continue
                        if dx != 0 and dy != 0:
                            if kind[y, nx] == WALL and kind[ny, x] == WALL:
                                continue
                            cost = SQRT2
                        else:
                            cost = 1.0
                        if dist[ny, nx] + cost < best:
                            best = dist[ny, nx] + cost
                if best < dist[y, x] - 1e-15:
                    dist[y, x] = best
                    changed = True
    return dist


def moore_steps(grid, x: int, y: int):
    """Yield (nx, ny, cost) for permitted single steps out of (x, y).

    A step targets an in-grid non-wall Moore neighbor; cost is 1 for
    orthogonal and sqrt(2) for diagonal steps. A diagonal step is forbidden
    when both of its orthogonal corner cells are walls (no squeezing through
    a closed corner). Offsets come in the order of `MOORE_OFFSETS`.
    """
    from evacsim.scenario import MOORE_OFFSETS

    kind = grid.kind
    w, h = grid.width, grid.height
    for dx, dy in MOORE_OFFSETS:
        nx, ny = x + dx, y + dy
        if not (0 <= nx < w and 0 <= ny < h):
            continue
        if kind[ny, nx] == WALL:
            continue
        if dx != 0 and dy != 0:
            if kind[y, nx] == WALL and kind[ny, x] == WALL:
                continue
            yield nx, ny, SQRT2
        else:
            yield nx, ny, 1.0


def dijkstra_distances(grid, sources: list[tuple[int, int]]) -> np.ndarray:
    """Shortest `moore_steps` distances from the (x, y) sources by a priority-queue search."""
    dist = np.full((grid.height, grid.width), np.inf)
    heap: list[tuple[float, int, int]] = []
    for x, y in sources:
        dist[y, x] = 0.0
        heap.append((0.0, x, y))
    heapq.heapify(heap)
    while heap:
        d, x, y = heapq.heappop(heap)
        if d > dist[y, x]:
            continue
        for nx, ny, cost in moore_steps(grid, x, y):
            nd = d + cost
            if nd < dist[ny, nx]:
                dist[ny, nx] = nd
                heapq.heappush(heap, (nd, nx, ny))
    return dist


def reference_relax(grid, sources: np.ndarray, bound: float) -> np.ndarray:
    """`static_field._relax` as it stood before a pass relaxed its eight moves in one block: one
    block of numpy calls per `MOORE_OFFSETS` entry, then a scan of the whole `improved` stack."""
    from evacsim.scenario import MOORE_OFFSETS

    cells = grid.height * grid.width
    steps = grid.steps.ravel()
    dist = np.where(sources.ravel(), 0.0, bound)
    improved = np.zeros(dist.size, dtype=bool)
    front = np.flatnonzero(sources)
    while front.size:
        bits, d = steps[front % cells], dist[front]
        for k, (dx, dy) in enumerate(MOORE_OFFSETS):
            has = (bits & (1 << k)) != 0
            target, nd = front[has] + (dy * grid.width + dx), d[has] + (SQRT2 if dx and dy else 1.0)
            better = nd < dist[target]
            # distinct front cells have distinct targets, so a plain store keeps the least
            dist[target[better]] = nd[better]
            improved[target[better]] = True
        front = np.flatnonzero(improved)
        improved[front] = False
    return dist.reshape(sources.shape)


def random_kind(rng: np.random.Generator, max_side: int = 12) -> np.ndarray:
    """Random closed grid with interior walls and at least one exit and floor."""
    while True:
        w = int(rng.integers(4, max_side + 1))
        h = int(rng.integers(4, max_side + 1))
        kind = np.full((h, w), FLOOR, dtype=np.int8)
        kind[0, :] = kind[-1, :] = WALL
        kind[:, 0] = kind[:, -1] = WALL
        interior = rng.random((h - 2, w - 2)) < 0.2
        kind[1:-1, 1:-1][interior] = WALL
        floors = np.argwhere(kind == FLOOR)
        if len(floors) == 0:
            continue
        n_exits = int(rng.integers(1, 3))
        picks = rng.choice(len(floors), size=min(n_exits, len(floors)), replace=False)
        for i in picks:
            y, x = floors[i]
            kind[y, x] = EXIT
        if (kind == FLOOR).any():
            return kind


def rows_to_text(rows: list[str], directives: list[str] | None = None) -> str:
    return "\n".join(rows + (directives or [])) + "\n"


def kind_from_rows(rows: list[str]) -> np.ndarray:
    table = {"W": WALL, ".": FLOOR, "E": EXIT}
    return np.array([[table[ch] for ch in row] for row in rows], dtype=np.int8)


def reference_grid_kind(rows: list[tuple[int, str]]) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """`scenario._grid_kind` as it stood before it read code points: one walk over the characters to
    validate the (lineno, row) grid rows, one to map them to kinds, one to collect the 'a' cells."""
    from evacsim.scenario import _CHAR_KIND, ParseError

    width = len(rows[0][1])
    for lineno, row in rows:
        if len(row) != width:
            raise ParseError(f"ragged grid row: expected {width} cells, got {len(row)}", lineno)
        for col, ch in enumerate(row, start=1):
            if ch not in _CHAR_KIND:
                raise ParseError(f"unknown cell character {ch!r}", lineno, col)
    kind = np.array([[_CHAR_KIND[ch] for ch in row] for _, row in rows], dtype=np.int8)
    return kind, [(x, y) for y, (_, row) in enumerate(rows) for x, ch in enumerate(row) if ch == "a"]


def render_scenario(spec) -> str:
    """Render a spec back to scenario text; inverse of parse_scenario."""
    from evacsim.scenario import DEFAULT_PROFILE, KIND_CHAR, PROFILE_KEYS

    grid = spec.grid
    chars = [[KIND_CHAR[int(grid.kind[y, x])] for x in range(grid.width)] for y in range(grid.height)]
    directives = []
    for spawn in spec.spawns:
        if spawn.profile == "default":
            chars[spawn.y][spawn.x] = "a"
        else:
            directives.append(f"agent {spawn.x} {spawn.y} {spawn.profile}")
    lines = ["".join(row) for row in chars]
    for name, p in spec.profiles.items():
        if name == "default" and p == DEFAULT_PROFILE:
            continue
        fields = " ".join(f"{key}={getattr(p, attr)}" for key, attr in PROFILE_KEYS.items())
        exits = "all" if p.allowed_exits is None else ",".join(str(e) for e in p.allowed_exits)
        lines.append(f"profile {name} {fields} exits={exits}")
    lines.extend(directives)
    return "\n".join(lines) + "\n"


def same_spec(a, b) -> bool:
    """Whether two specs hold equal grids (`kind`, `exit_id`, `steps`, `n_exits`), profiles and spawns.

    `Grid` compares by identity, so two parses of one text are never `==`.
    """
    arrays = [(getattr(a.grid, name), getattr(b.grid, name)) for name in ("kind", "exit_id", "steps")]
    return (
        all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in arrays)
        and a.grid.n_exits == b.grid.n_exits
        and a.profiles == b.profiles
        and a.spawns == b.spawns
    )


def make_profile(v_max=3, exits=(0,), **couplings):
    """Profile with all couplings zero unless overridden, allowed to use `exits`."""
    from evacsim.scenario import AgentProfile

    kw = dict(k_s=0.0, k_d=0.0, k_i=0.0, k_w=0.0, k_p=0.0, k_e=0.0)
    kw.update(couplings)
    return AgentProfile(v_max=v_max, allowed_exits=tuple(exits), **kw)


def make_agents(grid, cells, ids=None, profiles=None):
    """Agent-table rows, built by `agent_table` on `grid`, of agents at the (x, y) `cells`: row i has id
    ids[i] (default i) and profile profiles[i] (default `make_profile()`)."""
    from evacsim.engine import agent_table
    from evacsim.scenario import ScenarioSpec, Spawn

    profiles = [make_profile()] * len(cells) if profiles is None else list(profiles)
    names = {}
    for p in profiles:
        names.setdefault(p, f"p{len(names)}")
    spawns = tuple(Spawn(int(x), int(y), names[p]) for (x, y), p in zip(cells, profiles))
    agents = agent_table(ScenarioSpec(grid=grid, profiles={n: p for p, n in names.items()}, spawns=spawns))
    if ids is not None:
        agents["id"] = ids
    return agents


def neighborhood(p: tuple[int, int], v_max: int, grid) -> np.ndarray:
    """In-grid non-wall cells within Euclidean distance v_max of p, incl. p.

    Returns an (m, 2) array of (x, y) positions.
    """
    from evacsim.scenario import disc_offsets

    cells = np.asarray(p, dtype=np.int64) + disc_offsets(v_max)
    ok = (
        (cells[:, 0] >= 0)
        & (cells[:, 0] < grid.width)
        & (cells[:, 1] >= 0)
        & (cells[:, 1] < grid.height)
    )
    cells = cells[ok]
    ok = grid.kind[cells[:, 1], cells[:, 0]] != WALL
    return cells[ok]


def open_room_rows(width: int, height: int, exits: list[tuple[int, int]]) -> list[str]:
    """Closed rectangle of floor with exit cells at the given positions."""
    grid = [["." for _ in range(width)] for _ in range(height)]
    for x in range(width):
        grid[0][x] = grid[height - 1][x] = "W"
    for y in range(height):
        grid[y][0] = grid[y][width - 1] = "W"
    for x, y in exits:
        grid[y][x] = "E"
    return ["".join(row) for row in grid]


# ------------------------------------------------------- decision oracles

# The oracles below read one agent-table record `agent`: its profile's couplings are
# agent.k = (k_S, k_D, k_I, k_W, k_P), agent.k_e and the exit mask agent.allowed.

def exit_weight(agent, exit_id: int, dist: np.ndarray) -> float:
    """(1 + persistence bonus) / max(S, 1)^2 for one allowed, reachable exit; else 0."""
    x, y = agent.pos.tolist()
    s = dist[y, x]
    if not agent.allowed[exit_id] or not math.isfinite(s):
        return 0.0
    bonus = float(agent.k_e) if exit_id == agent.chosen_exit else 0.0
    return (1.0 + bonus) / max(s, 1.0) ** 2


def logw_static(agent, cell: tuple[int, int], dist: np.ndarray) -> float:
    """-k_S * S at the candidate cell, S read from one exit's distance array."""
    return -float(agent.k[0]) * dist[cell[1], cell[0]]


def logw_dynamic(agent, cell: tuple[int, int], df) -> float:
    """k_D * (trace at the candidate) . (candidate offset from the agent's cell)."""
    x, y = agent.pos.tolist()
    dx, dy = df.dx[cell[1], cell[0]], df.dy[cell[1], cell[0]]
    return float(agent.k[1]) * (dx * (cell[0] - x) + dy * (cell[1] - y))


def logw_inertia(agent, cell: tuple[int, int]) -> float:
    """-k_I * (v_next + v_prev) * sin(|phi|/2), phi the turn angle; 0 when standing."""
    ux, uy = agent.last_disp.tolist()
    x, y = agent.pos.tolist()
    vx, vy = cell[0] - x, cell[1] - y
    v_prev = math.hypot(ux, uy)
    v_next = math.hypot(vx, vy)
    if v_prev == 0.0 or v_next == 0.0:
        return 0.0
    cos_phi = max(-1.0, min(1.0, (ux * vx + uy * vy) / (v_prev * v_next)))
    sin_half = math.sqrt((1.0 - cos_phi) / 2.0)
    return -float(agent.k[2]) * (v_next + v_prev) * sin_half


def logw_wall(cell: tuple[int, int], wall_dist: np.ndarray, k_w: float, w_max: float) -> float:
    """-k_W * (w_max - W) inside the wall zone; 0 once W >= w_max."""
    w = wall_dist[cell[1], cell[0]]
    if w >= w_max:
        return 0.0
    return -k_w * (w_max - w)


def logw_polite(cell: tuple[int, int], counts: np.ndarray, k_p: float) -> float:
    """-k_P * number of agents adjacent to the candidate cell."""
    return -k_p * counts[cell[1], cell[0]]


def logw_total(agent, cell: tuple[int, int], state) -> float:
    """Sum of the five per-cell factors for the agent's chosen exit."""
    return (
        logw_static(agent, cell, state.exit_dist[agent.chosen_exit])
        + logw_dynamic(agent, cell, state.dyn_field)
        + logw_inertia(agent, cell)
        + logw_wall(cell, state.wall_dist, float(agent.k[3]), state.config.w_max)
        + logw_polite(cell, state.counts, float(agent.k[4]))
    )


def agent_distribution(agent, state) -> SimpleNamespace:
    """The candidate cells (m, 2) and their probabilities (m,) of `agent`, a one-row agent table, by the kernel."""
    from evacsim.decision import destination_distribution

    (block,) = destination_distribution(agent, state)
    keep = block.candidate[0]
    return SimpleNamespace(cells=(block.origin[0] + block.offsets)[keep], probs=block.probs[0][keep])


def make_state(rows: list[str], *, w_max: float = 3.0, others=()):
    """Start-of-run state of an agent-free grid, with the cells in `others` marked occupied.

    Built by `init_state`, so its fields are the ones a run reads; the grid
    need not pass scenario validation. It holds the lockstep's one seed as
    (H, W) views of its stacks, the shapes the kernels read for rows whose
    `offset` is 0: `occupancy`, `counts` and `dyn_field`, a lone field over
    the lockstep's trace storage.
    """
    from evacsim.decision import crowd_counts
    from evacsim.dynamic_field import DynamicField
    from evacsim.engine import init_state
    from evacsim.scenario import DEFAULT_PROFILE, Grid, ScenarioSpec, SimConfig

    spec = ScenarioSpec(
        grid=Grid.from_kind(kind_from_rows(rows)), profiles={"default": DEFAULT_PROFILE}, spawns=()
    )
    lockstep = init_state(spec, SimConfig(w_max=w_max))
    state = SimpleNamespace(
        grid=lockstep.grid, config=lockstep.config, exit_dist=lockstep.exit_dist, wall_dist=lockstep.wall_dist,
        occupancy=lockstep.occupancy[0, :-1],
        dyn_field=DynamicField(lockstep.grid, lockstep.dyn_field.trace.reshape(2, -1, lockstep.grid.width)),
    )
    for x, y in others:
        state.occupancy[y, x] = True
    state.counts = crowd_counts(state.occupancy)
    return state


# ------------------------------------------------------ decision kernel oracles

def softmax_from_log(logw: np.ndarray) -> np.ndarray:
    """exp-normalize log weights along the last axis; invariant under adding any constant."""
    w = np.exp(logw - np.max(logw, axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def reference_exit_weights(agents, exit_dist: np.ndarray) -> np.ndarray:
    """The batched exit kernel with per-agent gathers from the records of the agent rows: (N, E) weights."""
    n_exits = exit_dist.shape[0]
    pos = np.array([a.pos.tolist() for a in agents], dtype=np.int64).reshape(-1, 2)
    s = exit_dist[:, pos[:, 1], pos[:, 0]].T
    allowed = np.array([[bool(a.allowed[e]) for e in range(n_exits)] for a in agents], dtype=bool)
    chosen = np.array([int(a.chosen_exit) for a in agents], dtype=np.int64)
    k_e = np.array([float(a.k_e) for a in agents], dtype=np.float64)
    bonus = np.where(chosen[:, None] == np.arange(n_exits), k_e[:, None], 0.0)
    usable = allowed.reshape(-1, n_exits) & np.isfinite(s)
    return np.where(usable, (1.0 + bonus) / np.maximum(np.where(usable, s, 1.0), 1.0) ** 2, 0.0)


def reference_destination_distribution(agents, state):
    """The batched destination kernel with per-agent gathers from the records of the agent rows,
    and the inertia and wall terms computed per block: the same blocks as
    `destination_distribution`, each a namespace of rows, cells (n, K, 2), candidate, logw and
    probs."""
    from evacsim import decision
    from evacsim.scenario import disc_offsets

    pos = np.array([a.pos.tolist() for a in agents], dtype=np.int64).reshape(-1, 2)
    v_max = np.array([int(a.v_max) for a in agents], dtype=np.int64)
    chosen = np.array([int(a.chosen_exit) for a in agents], dtype=np.int64)
    last = np.array([a.last_disp.tolist() for a in agents], dtype=np.float64).reshape(-1, 2)
    k = np.array([a.k.tolist() for a in agents], dtype=np.float64).reshape(-1, 5)
    width, height = state.grid.width, state.grid.height
    w_max = state.config.w_max
    flat_dist = state.exit_dist.reshape(len(state.exit_dist), -1)
    for v in sorted(set(v_max.tolist())):
        offx, offy = disc_offsets(v).T
        own = (offx == 0) & (offy == 0)
        v_next = np.hypot(offx, offy)
        of_class = np.nonzero(v_max == v)[0]
        for start in range(0, len(of_class), decision.BLOCK_ROWS):
            rows = of_class[start : start + decision.BLOCK_ROWS]
            cx = pos[rows, 0, None] + offx
            cy = pos[rows, 1, None] + offy
            inside = (cx >= 0) & (cx < width) & (cy >= 0) & (cy < height)
            at = np.where(inside, cy * width + cx, 0)
            candidate = inside & (np.take(state.grid.kind, at) != WALL) & (own | ~np.take(state.occupancy, at))
            k_rows = k[rows]
            _, on_d, on_i, on_w, on_p = k_rows.any(axis=0).tolist()
            k_s, k_d, k_i, k_w, k_p = (col[:, None] for col in k_rows.T)

            s = flat_dist[chosen[rows, None], at]
            reachable = candidate & np.isfinite(s)
            logw = np.where(reachable, -k_s * np.where(reachable, s, 0.0), -np.inf)
            if on_d:
                logw += k_d * (np.take(state.dyn_field.dx, at) * offx + np.take(state.dyn_field.dy, at) * offy)
            if on_i:
                ux, uy = last[rows, 0, None], last[rows, 1, None]
                v_prev = np.hypot(ux, uy)
                turning = (v_next > 0.0) & (v_prev > 0.0)
                cos_phi = np.clip(
                    np.divide(ux * offx + uy * offy, v_next * v_prev, out=np.zeros(turning.shape), where=turning),
                    -1.0,
                    1.0,
                )
                sin_half = np.sqrt((1.0 - cos_phi) / 2.0)
                logw -= np.where(turning, k_i * (v_next + v_prev) * sin_half, 0.0)
            if on_w:
                w = np.take(state.wall_dist, at)
                logw -= k_w * np.where(w >= w_max, 0.0, w_max - w)
            if on_p:
                logw -= k_p * np.take(state.counts, at)
            yield SimpleNamespace(
                rows=rows, cells=np.stack((cx, cy), axis=-1), candidate=candidate, logw=logw,
                probs=softmax_from_log(logw),
            )


# ------------------------------------------------------- movement oracle

def dest_table(destinations: dict[int, tuple[int, int]]) -> np.ndarray:
    """(max id + 1, 2) int64 destinations indexed by agent id; rows of absent ids are (0, 0)."""
    table = np.zeros((max(destinations, default=-1) + 1, 2), dtype=np.int64)
    for aid, cell in destinations.items():
        table[aid] = cell
    return table


def step_coords(steps: np.ndarray, width: int) -> np.ndarray:
    """(k, 5) (id, fx, fy, tx, ty) rows of `RoundExecution.steps`' (id, from cell, to cell) rows."""
    out = np.empty((len(steps), 5), dtype=np.int64)
    out[:, 0] = steps[:, 0]
    out[:, 2], out[:, 1] = np.divmod(steps[:, 1], width)
    out[:, 4], out[:, 3] = np.divmod(steps[:, 2], width)
    return out


def step_moves(width: int):
    """For each step-table byte, the (ox, oy, oy * width + ox) of its set bits, in MOORE_OFFSETS order."""
    from evacsim.scenario import MOORE_OFFSETS

    moves = [(ox, oy, oy * width + ox) for ox, oy in MOORE_OFFSETS]
    return tuple(tuple(m for k, m in enumerate(moves) if b >> k & 1) for b in range(256))


def flat_execute_step(x, y, at, goal, moves, blocked: bytearray, rng):
    """One micro-step from (x, y) toward the destination, or None when the agent's round is over.

    `at` = y * width + x indexes the byte map `blocked`; `moves` is the
    `step_moves(width)` entry of the cell's step byte; `goal` is (tx, ty, sx,
    sy, radius): destination, round-start cell, their squared distance. The
    target is the unblocked permitted cell no farther from the start than the
    destination that is nearest the destination (exact integers, ties uniform
    at random) and strictly nearer than staying put; it is marked blocked.
    """
    tx, ty, sx, sy, radius = goal
    dx, dy = x - tx, y - ty
    rx0, ry0 = x - sx, y - sy
    best = here = dx * dx + dy * dy
    best_moves = []
    for move in moves:
        ox, oy, delta = move
        if blocked[at + delta]:
            continue
        ddx, ddy = dx + ox, dy + oy
        d2 = ddx * ddx + ddy * ddy
        # worse than the best so far, or only as good as staying put
        if d2 > best or d2 == here:
            continue
        rx, ry = rx0 + ox, ry0 + oy
        if rx * rx + ry * ry > radius:
            continue
        if d2 < best:
            best = d2
            best_moves = [move]
        else:
            best_moves.append(move)
    if not best_moves:
        return None
    ox, oy, delta = best_moves[int(rng.integers(len(best_moves)))] if len(best_moves) > 1 else best_moves[0]
    blocked[at + delta] = 1
    return x + ox, y + oy


def _reference_execute_step(pos, dest, grid, blocked: np.ndarray, rng, start):
    """One micro-step toward dest, or None; marks the target in `blocked`."""
    from evacsim.scenario import MOORE_OFFSETS

    sx, sy = start
    rx = dest[0] - sx
    ry = dest[1] - sy
    radius = rx * rx + ry * ry
    dx0 = pos[0] - dest[0]
    dy0 = pos[1] - dest[1]
    here = dx0 * dx0 + dy0 * dy0
    best = here
    best_cells: list[tuple[int, int]] = []
    x, y = pos
    bits = int(grid.steps[y, x])
    for k, (ox, oy) in enumerate(MOORE_OFFSETS):
        if not bits >> k & 1:
            continue
        nx, ny = x + ox, y + oy
        if blocked[ny, nx]:
            continue
        ddx = nx - dest[0]
        ddy = ny - dest[1]
        d2 = ddx * ddx + ddy * ddy
        if d2 > best or d2 == here:
            continue
        rx = nx - sx
        ry = ny - sy
        if rx * rx + ry * ry > radius:
            continue
        if d2 < best:
            best = d2
            best_cells = [(nx, ny)]
        else:
            best_cells.append((nx, ny))
    if not best_cells:
        return None
    target = best_cells[int(rng.integers(len(best_cells)))] if len(best_cells) > 1 else best_cells[0]
    blocked[target[1], target[0]] = True
    return target


def reference_execute_round(agents, destinations, grid, rng):
    """The movement phase of the agent rows with id-keyed tokens, laid out in ascending id before
    the shuffle; writes each row's `pos` step by step.

    Returns the step log as (id, fx, fy, tx, ty) rows.
    """
    from evacsim.decision import SimulationError

    blocked = np.zeros((grid.height, grid.width), dtype=bool)
    occupied: set[tuple[int, int]] = set()
    for a in agents:
        x, y = a.pos.tolist()
        blocked[y, x] = True
        occupied.add((x, y))
    start = {int(a.id): tuple(a.pos.tolist()) for a in agents}
    pos = dict(start)
    by_id = {int(a.id): a for a in agents}
    finished: set[int] = set()

    ids = np.asarray(sorted(by_id), dtype=np.int64)
    reps = [chebyshev(pos[aid], destinations[aid]) for aid in sorted(by_id)]
    seq = np.repeat(ids, reps)
    rng.shuffle(seq)

    steps = []
    for aid in seq:
        aid = int(aid)
        if aid in finished:
            continue
        here = pos[aid]
        if here == destinations[aid]:
            continue
        new_pos = _reference_execute_step(here, destinations[aid], grid, blocked, rng, start[aid])
        if new_pos is None:
            finished.add(aid)
            continue
        if new_pos in occupied:
            raise SimulationError(f"two agents on one cell {new_pos}")
        occupied.discard(here)
        occupied.add(new_pos)
        steps.append((aid, here[0], here[1], new_pos[0], new_pos[1]))
        pos[aid] = new_pos
        by_id[aid].pos = new_pos
    return steps


# ------------------------------------------------------- trace field oracle

def reference_table_text(header: str, table: np.ndarray, sep: str) -> str:
    """`cli._table_text` as it stood before it formatted blocks of rows: one `%` over the whole table."""
    line = sep.join(["%d"] * table.shape[1]) + "\n"
    return header + "\n" + (line * len(table)) % tuple(table.ravel().tolist())


def reference_update_component(comp: np.ndarray, wall: np.ndarray, delta: float, alpha: float, rng) -> np.ndarray:
    """One decay-and-diffuse update of a trace component, drawn over the whole grid."""
    from evacsim.dynamic_field import _VN_DIRS

    quanta = np.abs(comp)
    sign = np.sign(comp)
    survivors = rng.binomial(quanta, 1.0 - delta)
    movers = rng.binomial(survivors, alpha)
    split = rng.multinomial(movers, (0.25, 0.25, 0.25, 0.25))
    out = sign * (survivors - movers)
    for k, (dx, dy) in enumerate(_VN_DIRS):
        leaving = sign * split[..., k]
        dst = out[max(dy, 0) : out.shape[0] + min(dy, 0), max(dx, 0) : out.shape[1] + min(dx, 0)]
        src = leaving[max(-dy, 0) : out.shape[0] + min(-dy, 0), max(-dx, 0) : out.shape[1] + min(-dx, 0)]
        dst += src
    out[wall] = 0
    return out


# ------------------------------------------------------ crowd count oracle

def reference_crowd_counts(occupancy: np.ndarray) -> np.ndarray:
    """Occupied-cell count over each cell's 8 Moore neighbors, as eight shifted slices on int32."""
    h, w = occupancy.shape
    p = np.zeros((h + 2, w + 2), dtype=np.int32)
    p[1:-1, 1:-1] = occupancy
    counts = p[:-2, :-2] + p[:-2, 1:-1]
    for dy, dx in ((0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)):
        counts += p[dy : dy + h, dx : dx + w]
    return counts
