"""Geodesic distance fields on the lattice: per-exit and distance-to-wall.

Distances are shortest paths over the permitted steps of `Grid.steps`
(orthogonal cost 1, diagonal sqrt(2)), computed once before a run by a
vectorised label-correcting relaxation: each pass relaxes every permitted step
out of the cells the last pass improved. As fl(d + c) is monotone in d, the
fixpoint is each cell's least left-fold float sum over all paths, bit for bit
what Dijkstra's search returns. One pass relaxes a stack of source layers:
no step leaves the grid, so none leaves its layer. The wall field starts at
w_max, not inf, so its front stops at the clamp; as a path's partial sums
only grow, each cell nearer than w_max is reached through nearer cells alone,
and its value is exact. All fields are read-only.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import EXIT, MOORE_OFFSETS, WALL, Grid

UNREACHABLE = math.inf

_STEP_COSTS = tuple(math.sqrt(2.0) if dx and dy else 1.0 for dx, dy in MOORE_OFFSETS)


def _relax(grid: Grid, sources: np.ndarray, bound: float) -> np.ndarray:
    """Least path cost, capped at `bound`, from the cells of each (H, W) layer of the boolean stack `sources`."""
    cells = grid.height * grid.width
    steps = grid.steps.ravel()
    dist = np.where(sources.ravel(), 0.0, bound)
    improved = np.zeros(dist.size, dtype=bool)
    front = np.flatnonzero(sources)
    while front.size:
        bits, d = steps[front % cells], dist[front]
        for k, (dx, dy) in enumerate(MOORE_OFFSETS):
            has = (bits & (1 << k)) != 0
            target, nd = front[has] + (dy * grid.width + dx), d[has] + _STEP_COSTS[k]
            better = nd < dist[target]
            # distinct front cells have distinct targets, so a plain store keeps the least
            dist[target[better]] = nd[better]
            improved[target[better]] = True
        front = np.flatnonzero(improved)
        improved[front] = False
    dist = dist.reshape(sources.shape)
    dist.setflags(write=False)
    return dist


def compute_static_field(grid: Grid) -> np.ndarray:
    """(E, H, W) shortest Moore-graph distances to each exit group; walls and cut-off cells are inf."""
    exits = np.arange(grid.n_exits)[:, None, None]
    return _relax(grid, (grid.kind == EXIT) & (grid.exit_id == exits), UNREACHABLE)


def compute_wall_distance(grid: Grid, w_max: float) -> np.ndarray:
    """Multi-source distance to the nearest wall cell, clamped to w_max.

    Exit cells are passable, not wall sources; with no wall anywhere every
    cell sits at the clamp value.
    """
    return _relax(grid, (grid.kind == WALL)[None], w_max)[0]
