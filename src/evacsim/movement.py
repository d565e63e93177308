"""Sequential step execution: randomly interleaved single-cell moves.

Each agent owes one movement token per Chebyshev step between its position
and its destination. The tokens are row indices into the round's rows of
the agent table, laid out by ascending id, so the row order changes no move;
all of them are shuffled into one sequence and consumed in order. Every
executed step moves one agent to the permitted neighbor cell (a set bit of
`Grid.steps`, tried in `MOORE_OFFSETS` order) nearest (Euclidean) to its
destination. A step never leaves the disc around the agent's
round-start cell whose radius is the destination's distance, so a detour
around blocked cells cannot carry the net move past the speed disc the
destination was drawn from. A cell occupied at any moment of a round stays
blocked until the round ends, so agents consume the space along their paths,
not just their endpoints.

The token loop reads no numpy element. Step bits, blocking and the exclusion
check are flat byte maps indexed by the cell `y * width + x`; each row's cell
and key, (dy * 2 * width + dx) * 256 for its offset (dx, dy) from its
destination (a grid cell), are per-row int lists. The key plus the cell's step
byte selects cached tiers: the permitted moves strictly nearer the destination
than staying put, one tier per squared distance, nearest first, each in
`MOORE_OFFSETS` order. A step takes a uniformly drawn move of the first tier
that has unblocked moves inside the radius. Tiers are cached for 16 widths,
at most TIER_KEYS keys of about 0.3 KB each (a full table is emptied): 1.2 MB
a width. At `MAX_V_MAX` a width has 256 * 41**2 possible keys; the benchmark
workloads touch a few hundred.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decision import SimulationError
from .scenario import MOORE_OFFSETS, Grid

TIER_KEYS = 4096


@dataclass
class RoundExecution:
    """Movement outcome: (k, 3) int64 (id, from cell, to cell) step rows; the (n, 2) (x, y) after the round."""

    steps: np.ndarray
    end: np.ndarray


@lru_cache(maxsize=16)
def tier_table(width: int) -> tuple[dict[int, tuple], np.ndarray]:
    """The tiers cached for one width by key, and the (4, 4) map of a row's (x, y, dx, dy) to (cell, key, dx, dy)."""
    return {}, np.array([[1, 0, 0, 0], [width, 0, 0, 0], [0, 256, 1, 0], [0, 512 * width, 0, 1]], dtype=np.int64)


def move_tiers(width: int, key: int) -> tuple[tuple[int, tuple[tuple[int, int, int, int], ...]], ...]:
    """The tiers of a key (dy * 2 * width + dx) * 256 + step byte, nearest first, as (half, moves).

    half is ceil(d2 / 2) for the tier's squared distance d2; a move (delta,
    next key, ndx, ndy) is the cell step, the row's key and offset after it.
    It stays inside the radius of a row that started at offset (ux, uy) iff
    ux * ndx + uy * ndy >= half: |(ndx - ux, ndy - uy)|^2 <= ux^2 + uy^2.
    """
    span = 2 * width
    b = key & 255
    dy, dx = divmod((key >> 8) + width, span)
    dx -= width
    here = dx * dx + dy * dy
    by_d2: dict[int, list[tuple[int, int, int, int]]] = {}
    for k, (ox, oy) in enumerate(MOORE_OFFSETS):
        ndx, ndy = dx + ox, dy + oy
        d2 = ndx * ndx + ndy * ndy
        if b >> k & 1 and d2 < here:
            by_d2.setdefault(d2, []).append((oy * width + ox, (ndy * span + ndx) << 8, ndx, ndy))
    return tuple(((d2 + 1) // 2, tuple(by_d2[d2])) for d2 in sorted(by_d2))


def build_step_sequence(ids: np.ndarray, tokens: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniformly shuffled token sequence; row i appears tokens[i] times, rows laid out by ascending ids[i]."""
    order = np.argsort(ids)
    seq = np.repeat(order, tokens[order])
    rng.shuffle(seq)
    return seq


def execute_round(
    agents: np.ndarray, destinations: np.ndarray, grid: Grid, rng: np.random.Generator
) -> RoundExecution:
    """Run the whole movement phase of the agent rows from `pos` toward `destinations[id]`; the rows are not changed.

    Blocking starts from every agent's current cell and only grows. Tokens of
    an agent that found no improving unblocked step inside its destination
    radius earlier in the round are skipped. An agent at its destination has
    used all its tokens, since a step shortens the Chebyshev distance by at
    most one.
    """
    width = grid.width
    steps = grid.steps.tobytes()
    table, row_keys = tier_table(width)
    id_column = agents["id"]
    ids = id_column.tolist()
    start = agents["pos"]
    off = start - destinations[id_column]
    cell, koff, ux, uy = np.concatenate((start, off), axis=1).dot(row_keys).T.tolist()
    blocked = bytearray(width * grid.height)
    for at in cell:
        blocked[at] = 1
    occupied = bytearray(blocked)

    log: list[int] = []
    seq = build_step_sequence(id_column, np.abs(off).max(axis=1), rng)
    for row in seq.tolist():
        k = koff[row]
        if k is None:  # no improving step was left to this row
            continue
        at = cell[row]
        key = k + steps[at]
        tiers = table.get(key)
        if tiers is None:
            if len(table) >= TIER_KEYS:
                table.clear()
            tiers = table[key] = move_tiers(width, key)
        rx, ry = ux[row], uy[row]
        for half, moves in tiers:
            ok = []
            for move in moves:
                if blocked[at + move[0]] or rx * move[2] + ry * move[3] < half:
                    continue
                ok.append(move)
            if ok:
                break
        else:
            koff[row] = None
            continue
        delta, k, _, _ = ok[int(rng.integers(len(ok)))] if len(ok) > 1 else ok[0]
        to = at + delta
        if occupied[to]:
            raise SimulationError(f"two agents on one cell {(to % width, to // width)}")
        blocked[to] = 1
        occupied[at] = 0
        occupied[to] = 1
        cell[row] = to
        koff[row] = k
        log += (ids[row], at, to)

    end = np.empty((len(cell), 2), dtype=np.int64)
    end[:, 1], end[:, 0] = np.divmod(cell, width)
    return RoundExecution(np.array(log, dtype=np.int64).reshape(-1, 3), end)
