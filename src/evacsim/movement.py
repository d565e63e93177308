"""Sequential step execution: randomly interleaved single-cell moves.

Each agent owes one movement token per Chebyshev step between its position
and its destination. The tokens are agent rows (indices into the round's
agent list); all of them are shuffled into one sequence and consumed in
order. Every executed step moves one agent to the permitted neighbor cell (a
set bit of `Grid.steps`, tried in `MOORE_OFFSETS` order) nearest (Euclidean)
to its destination. A step never leaves the disc around the agent's
round-start cell whose radius is the destination's distance, so a detour
around blocked cells cannot carry the net move past the speed disc the
destination was drawn from. A cell occupied at any moment of a round stays
blocked until the round ends, so agents consume the space along their paths,
not just their endpoints.

The token loop reads no numpy element: step bits and blocking are flat byte
maps indexed `y * width + x`, and positions are a list by row, written back
to the agents once when the round ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decision import Agent, SimulationError
from .scenario import MOORE_OFFSETS, Grid

# _STEP_OFFSETS[b]: the offsets whose bits are set in step-table byte b, in MOORE_OFFSETS order
_STEP_OFFSETS = tuple(tuple(o for k, o in enumerate(MOORE_OFFSETS) if b >> k & 1) for b in range(256))


@dataclass
class RoundExecution:
    """Movement-phase outcome: the per-step log of (id, fx, fy, tx, ty) rows."""

    steps: list[tuple[int, int, int, int, int]] = field(default_factory=list)


def build_step_sequence(
    agents: list[Agent],
    destinations: dict[int, tuple[int, int]],
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniformly shuffled token sequence; row i appears Chebyshev(pos, dest) times."""
    pos = np.array([a.pos for a in agents], dtype=np.int64).reshape(-1, 2)
    dest = np.array([destinations[a.id] for a in agents], dtype=np.int64).reshape(-1, 2)
    seq = np.repeat(np.arange(len(agents)), np.abs(dest - pos).max(axis=1))
    rng.shuffle(seq)
    return seq


def execute_step(
    pos: tuple[int, int], dest: tuple[int, int], steps: bytes, width: int,
    blocked: bytearray, rng: np.random.Generator, start: tuple[int, int],
) -> tuple[int, int] | None:
    """One micro-step toward dest, or None when the agent's round is over.

    `steps` is `Grid.steps.tobytes()` and `blocked` a byte per cell, both
    indexed `y * width + x`. Candidates are the permitted step targets out of
    pos that are unblocked and no farther (Euclidean) from the round-start
    cell `start` than dest is; the chosen one minimizes Euclidean distance to
    dest (exact integer arithmetic, ties uniform at random) and must strictly
    beat staying put. The target cell is marked blocked.
    """
    x, y = pos
    tx, ty = dest
    sx, sy = start
    radius = (tx - sx) ** 2 + (ty - sy) ** 2
    best = here = (x - tx) ** 2 + (y - ty) ** 2
    best_cells: list[tuple[int, int]] = []
    for ox, oy in _STEP_OFFSETS[steps[y * width + x]]:
        nx = x + ox
        ny = y + oy
        if blocked[ny * width + nx]:
            continue
        ddx = nx - tx
        ddy = ny - ty
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
    blocked[target[1] * width + target[0]] = 1
    return target


def execute_round(
    agents: list[Agent],
    destinations: dict[int, tuple[int, int]],
    grid: Grid,
    rng: np.random.Generator,
) -> RoundExecution:
    """Run the whole movement phase, then write each agent's final `pos` once.

    Blocking starts from every agent's current cell and only grows. Tokens of
    an agent that found no improving unblocked step inside its destination
    radius earlier in the round are skipped. An agent at its destination has
    used all its tokens, since a step shortens the Chebyshev distance by at
    most one.
    """
    width = grid.width
    steps = grid.steps.tobytes()
    blocked = bytearray(width * grid.height)
    start = [a.pos for a in agents]
    for x, y in start:
        blocked[y * width + x] = 1
    pos = list(start)
    dest = [destinations[a.id] for a in agents]
    done = [False] * len(agents)
    occupied = set(start)

    result = RoundExecution()
    for row in build_step_sequence(agents, destinations, rng).tolist():
        if done[row]:
            continue
        here = pos[row]
        new_pos = execute_step(here, dest[row], steps, width, blocked, rng, start[row])
        if new_pos is None:
            done[row] = True
            continue
        if new_pos in occupied:
            raise SimulationError(f"two agents on one cell {new_pos}")
        occupied.discard(here)
        occupied.add(new_pos)
        result.steps.append((agents[row].id, here[0], here[1], new_pos[0], new_pos[1]))
        pos[row] = new_pos
    for a, p in zip(agents, pos):
        a.pos = p
    return result
