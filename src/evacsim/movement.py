"""Sequential step execution: randomly interleaved single-cell moves.

Each agent owes one movement token per Chebyshev step between its position
and its destination. Tokens from all agents are shuffled into one sequence
and consumed in order; every executed step moves one agent to the permitted
neighbor cell (a set bit of `Grid.steps`, tried in `MOORE_OFFSETS` order)
nearest (Euclidean) to its destination. A step never leaves the disc around
the agent's round-start cell whose radius is the destination's distance, so
a detour around blocked cells cannot carry the net move past the speed disc
the destination was drawn from. A cell occupied at any moment of a round
stays blocked until the round ends, so agents consume the space along their
paths, not just their endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decision import Agent, SimulationError
from .scenario import MOORE_OFFSETS, Grid

# _STEP_OFFSETS[b]: the offsets whose bits are set in step-table byte b, in MOORE_OFFSETS order
_STEP_OFFSETS = tuple(tuple(o for k, o in enumerate(MOORE_OFFSETS) if b >> k & 1) for b in range(256))


def chebyshev(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@dataclass
class RoundExecution:
    """Movement-phase outcome: the per-step log."""

    steps: list[tuple[int, int, int, int, int]] = field(default_factory=list)


def build_step_sequence(
    agents: list[Agent],
    destinations: dict[int, tuple[int, int]],
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniformly shuffled token sequence; agent i appears Chebyshev(pos, dest) times."""
    ids: list[int] = []
    reps: list[int] = []
    for a in agents:
        ids.append(a.id)
        reps.append(chebyshev(a.pos, destinations[a.id]))
    seq = np.repeat(np.asarray(ids, dtype=np.int64), reps)
    rng.shuffle(seq)
    return seq


def execute_step(
    pos: tuple[int, int],
    dest: tuple[int, int],
    grid: Grid,
    blocked: np.ndarray,
    rng: np.random.Generator,
    start: tuple[int, int],
) -> tuple[int, int] | None:
    """One micro-step toward dest, or None when the agent's round is over.

    Candidates are the permitted step targets out of pos that are unblocked
    and no farther (Euclidean) from the round-start cell `start` than dest
    is; the chosen one minimizes Euclidean distance to dest (exact integer
    arithmetic, ties uniform at random) and must strictly beat staying put.
    The target cell is marked blocked.
    """
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
    for ox, oy in _STEP_OFFSETS[int(grid.steps[y, x])]:
        nx, ny = x + ox, y + oy
        if blocked[ny, nx]:
            continue
        ddx = nx - dest[0]
        ddy = ny - dest[1]
        d2 = ddx * ddx + ddy * ddy
        # worse than the best so far, or only as good as staying put
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


def execute_round(
    agents: list[Agent],
    destinations: dict[int, tuple[int, int]],
    grid: Grid,
    rng: np.random.Generator,
) -> RoundExecution:
    """Run the whole movement phase, mutating agent positions.

    Blocking starts from every agent's current cell and only grows. Tokens of
    agents that already reached their destination, or that found no improving
    unblocked step inside their destination radius earlier in the round, are
    skipped.
    """
    blocked = np.zeros((grid.height, grid.width), dtype=bool)
    occupied: set[tuple[int, int]] = set()
    for a in agents:
        blocked[a.pos[1], a.pos[0]] = True
        occupied.add(a.pos)
    start = {a.id: a.pos for a in agents}
    by_id = {a.id: a for a in agents}
    finished: set[int] = set()

    result = RoundExecution()
    for aid in build_step_sequence(agents, destinations, rng):
        aid = int(aid)
        if aid in finished:
            continue
        a = by_id[aid]
        if a.pos == destinations[aid]:
            continue
        new_pos = execute_step(a.pos, destinations[aid], grid, blocked, rng, start[aid])
        if new_pos is None:
            finished.add(aid)
            continue
        if new_pos in occupied:
            raise SimulationError(f"two agents on one cell {new_pos}")
        occupied.discard(a.pos)
        occupied.add(new_pos)
        result.steps.append((aid, a.pos[0], a.pos[1], new_pos[0], new_pos[1]))
        a.pos = new_pos
    return result
