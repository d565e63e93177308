"""Geodesic distance fields on the lattice: per-exit and distance-to-wall.

Distances are exact shortest paths on the Moore step graph (orthogonal cost
1, diagonal cost sqrt(2), closed corners impassable), computed once before a
run with Dijkstra's algorithm. Both fields are read-only (H, W) arrays.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .scenario import EXIT, WALL, Grid, moore_steps

UNREACHABLE = math.inf


def _dijkstra(grid: Grid, sources: list[tuple[int, int]]) -> np.ndarray:
    dist = np.full((grid.height, grid.width), UNREACHABLE, dtype=np.float64)
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


def compute_static_field(grid: Grid, exit_id: int) -> np.ndarray:
    """Shortest Moore-graph distance from every cell to exit group exit_id; walls and cut-off cells are inf."""
    if not 0 <= exit_id < grid.n_exits:
        raise ValueError(f"exit id {exit_id} does not exist")
    ys, xs = np.nonzero((grid.kind == EXIT) & (grid.exit_id == exit_id))
    dist = _dijkstra(grid, [(int(x), int(y)) for x, y in zip(xs, ys)])
    dist.setflags(write=False)
    return dist


def compute_wall_distance(grid: Grid, w_max: float) -> np.ndarray:
    """Multi-source distance to the nearest wall cell, clamped to w_max.

    Exit cells are passable, not wall sources; with no wall anywhere every
    cell sits at the clamp value.
    """
    ys, xs = np.nonzero(grid.kind == WALL)
    dist = _dijkstra(grid, [(int(x), int(y)) for x, y in zip(xs, ys)])
    wdist = np.minimum(dist, w_max)
    wdist.setflags(write=False)
    return wdist
