"""Sequential step execution: randomly interleaved single-cell moves.

Each agent owes one movement token per Chebyshev step between its position
and its destination. The tokens are agent rows (indices into the round's
agent list) laid out by ascending id, so the list order changes no move; all
of them are shuffled into one sequence and consumed in order. Every executed
step moves one agent to the permitted neighbor cell (a set bit of
`Grid.steps`, tried in `MOORE_OFFSETS` order) nearest (Euclidean) to its
destination. A step never leaves the disc around the agent's
round-start cell whose radius is the destination's distance, so a detour
around blocked cells cannot carry the net move past the speed disc the
destination was drawn from. A cell occupied at any moment of a round stays
blocked until the round ends, so agents consume the space along their paths,
not just their endpoints.

The token loop reads no numpy element: step bits, blocking and the
exclusion check are flat byte maps indexed `y * width + x`, a cell's moves
come from a per-width table, and each row's radius is computed once.
Positions are a list by row, written back to the agents when the round ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .decision import Agent, SimulationError, pair_column
from .scenario import MOORE_OFFSETS, Grid

@dataclass
class RoundExecution:
    """Movement-phase outcome: the per-step log of (id, fx, fy, tx, ty) rows."""

    steps: list[tuple[int, int, int, int, int]] = field(default_factory=list)


@lru_cache(maxsize=16)
def step_moves(width: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each step-table byte, the (ox, oy, oy * width + ox) of its set bits, in MOORE_OFFSETS order."""
    moves = [(ox, oy, oy * width + ox) for ox, oy in MOORE_OFFSETS]
    return tuple(tuple(m for k, m in enumerate(moves) if b >> k & 1) for b in range(256))


def build_step_sequence(
    agents: list[Agent],
    destinations: dict[int, tuple[int, int]],
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniformly shuffled token sequence; row i appears Chebyshev(pos, dest) times, rows by ascending id."""
    pos = pair_column([a.pos for a in agents])
    dest = pair_column([destinations[a.id] for a in agents])
    order = np.argsort(np.fromiter([a.id for a in agents], np.int64, len(agents)))
    seq = np.repeat(order, np.abs(dest - pos).max(axis=1)[order])
    rng.shuffle(seq)
    return seq


def execute_step(
    x: int, y: int, at: int, goal: tuple[int, int, int, int, int],
    moves: tuple[tuple[int, int, int], ...], blocked: bytearray, rng: np.random.Generator,
) -> tuple[int, int] | None:
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
    best_moves: list[tuple[int, int, int]] = []
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
    moves = step_moves(width)
    pos = [a.pos for a in agents]
    blocked = bytearray(width * grid.height)
    for x, y in pos:
        blocked[y * width + x] = 1
    occupied = bytearray(blocked)
    dest = [destinations[a.id] for a in agents]
    goal = [(tx, ty, sx, sy, (tx - sx) ** 2 + (ty - sy) ** 2) for (sx, sy), (tx, ty) in zip(pos, dest)]
    ids = [a.id for a in agents]
    done = [False] * len(agents)

    log = []
    for row in build_step_sequence(agents, destinations, rng).tolist():
        if done[row]:
            continue
        x, y = pos[row]
        at = y * width + x
        new_pos = execute_step(x, y, at, goal[row], moves[steps[at]], blocked, rng)
        if new_pos is None:
            done[row] = True
            continue
        to = new_pos[1] * width + new_pos[0]
        if occupied[to]:
            raise SimulationError(f"two agents on one cell {new_pos}")
        occupied[at] = 0
        occupied[to] = 1
        log.append((ids[row], x, y, new_pos[0], new_pos[1]))
        pos[row] = new_pos
    for a, p in zip(agents, pos):
        a.pos = p
    return RoundExecution(log)
