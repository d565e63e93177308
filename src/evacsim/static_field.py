"""Geodesic distance fields on the lattice: per-exit and distance-to-wall.

Distances are shortest paths over the permitted steps of `Grid.steps`
(orthogonal cost 1, diagonal sqrt(2)), computed once before a run by a
vectorised label-correcting relaxation: each pass relaxes every permitted step
out of the cells the last pass improved. As fl(d + c) is monotone in d, the
fixpoint is each cell's least left-fold float sum over all paths, bit for bit
what Dijkstra's search returns. Both fields are read-only (H, W) arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import EXIT, MOORE_OFFSETS, WALL, Grid

UNREACHABLE = math.inf

_STEP_COSTS = tuple(math.sqrt(2.0) if dx and dy else 1.0 for dx, dy in MOORE_OFFSETS)


def _relax(grid: Grid, sources: np.ndarray) -> np.ndarray:
    """Least path cost from the cells of the boolean mask `sources` to every cell."""
    steps = grid.steps.ravel()
    dist = np.where(sources.ravel(), 0.0, UNREACHABLE)
    improved = np.zeros(steps.size, dtype=bool)
    front = np.flatnonzero(sources)
    while front.size:
        bits, d = steps[front], dist[front]
        for k, (dx, dy) in enumerate(MOORE_OFFSETS):
            has = (bits & (1 << k)) != 0
            target, nd = front[has] + (dy * grid.width + dx), d[has] + _STEP_COSTS[k]
            better = nd < dist[target]
            # distinct front cells have distinct targets, so a plain store keeps the least
            dist[target[better]] = nd[better]
            improved[target[better]] = True
        front = np.flatnonzero(improved)
        improved[front] = False
    return dist.reshape(grid.height, grid.width)


def compute_static_field(grid: Grid, exit_id: int) -> np.ndarray:
    """Shortest Moore-graph distance from every cell to exit group exit_id; walls and cut-off cells are inf."""
    if not 0 <= exit_id < grid.n_exits:
        raise ValueError(f"exit id {exit_id} does not exist")
    dist = _relax(grid, (grid.kind == EXIT) & (grid.exit_id == exit_id))
    dist.setflags(write=False)
    return dist


def compute_wall_distance(grid: Grid, w_max: float) -> np.ndarray:
    """Multi-source distance to the nearest wall cell, clamped to w_max.

    Exit cells are passable, not wall sources; with no wall anywhere every
    cell sits at the clamp value.
    """
    wdist = np.minimum(_relax(grid, grid.kind == WALL), w_max)
    wdist.setflags(write=False)
    return wdist
