"""Geodesic distance fields on the lattice: per-exit and distance-to-wall.

Distances are shortest paths over the permitted steps of `Grid.steps` (orthogonal cost
1, diagonal sqrt(2)), computed once before a run by a vectorised label-correcting
relaxation. A pass relaxes the eight moves out of the cells the last pass improved as
one block, keeps the least value per target (`np.minimum.at`) and stamps the targets
with their entry index to gather the next front, each cell once, without a scan. As
fl(d + c) is monotone in d, the fixpoint is each cell's least left-fold float sum over
all paths, in any relaxation order: bit for bit what Dijkstra's search returns. A pass
relaxes a stack of source layers; no step leaves the grid, so none leaves its layer.
The wall field starts at w_max, not inf, so its front stops at the clamp; as partial
sums only grow, each cell nearer than w_max is reached through nearer cells alone, and
its value is exact. All fields are read-only.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import EXIT, MOORE_OFFSETS, WALL, Grid

UNREACHABLE = math.inf

_DX, _DY = np.array(MOORE_OFFSETS).T[:, :, None]  # (8, 1) columns, one row per move
_STEP_BITS = (1 << np.arange(len(MOORE_OFFSETS), dtype=np.uint8))[:, None]
_STEP_COSTS = np.where(_DX * _DY != 0, math.sqrt(2.0), 1.0)


def _relax(grid: Grid, sources: np.ndarray, bound: float) -> np.ndarray:
    """Least path cost, capped at `bound`, from the cells of each (H, W) layer of the boolean stack `sources`."""
    cells, steps = grid.height * grid.width, grid.steps.ravel()
    moves = _DY * grid.width + _DX
    dist = np.where(sources.ravel(), 0.0, bound)
    stamp = np.zeros(dist.size, dtype=np.int32)
    front = np.flatnonzero(sources)
    while front.size:
        has = (steps[front % cells] & _STEP_BITS) != 0
        target, nd = (front + moves)[has], (dist[front] + _STEP_COSTS)[has]
        better = nd < dist[target]
        target, nd = target[better], nd[better]
        np.minimum.at(dist, target, nd)
        entry = np.arange(target.size, dtype=np.int32)
        stamp[target] = entry
        front = target[stamp[target] == entry]
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
