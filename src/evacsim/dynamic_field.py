"""Vectorial trace field left by moving agents.

Both components are stored as signed integer quanta per cell: an agent whose
net round displacement is (dx, dy) adds dx and dy to the component grids at
its start cell. Once per round, each quantum of absolute value independently
decays with probability delta; survivors diffuse with probability alpha to a
uniformly random von Neumann neighbor, keeping sign and component. Quanta
landing on walls (or off-grid) are destroyed.

Per-cell binomial/multinomial draws over the quanta counts equal per-quantum
coin flips in law. They run only at cells holding quanta, in row-major order;
numpy draws nothing for a zero count, so they equal the whole-grid draws.

A field's storage is one (2, H + 1, W) array: the dx and dy grids, each with
a spare row whose first cell is the sink of destroyed quanta. The update
writes it in place, so a field can live in a view of a larger array.
"""

from __future__ import annotations

import copy

import numpy as np

from .scenario import WALL, Grid

# von Neumann directions, fixed order for reproducible stream consumption
_VN_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class DynamicField:
    def __init__(self, grid: Grid, trace: np.ndarray | None = None):
        """A zero field of `grid`, or one over the (2, H + 1, W) int64 storage `trace`."""
        h, w = grid.height, grid.width
        # flat cell index, padded by the sink h*w, which also stands for every wall cell
        cell = np.full((h + 2, w + 2), h * w, dtype=np.int32)
        cell[1:-1, 1:-1] = np.where(grid.kind == WALL, h * w, np.arange(h * w).reshape(h, w))
        self._stay = cell[1:-1, 1:-1].ravel()
        shifted = [cell[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w].ravel() for dx, dy in _VN_DIRS]
        self._neighbor = np.stack(shifted, axis=1)  # (h*w, 4) von Neumann targets
        self._over(np.zeros((2, h + 1, w), dtype=np.int64) if trace is None else trace)

    def _over(self, trace: np.ndarray) -> DynamicField:
        self._trace = trace
        self.dx, self.dy = trace[:, :-1]
        return self

    def over(self, trace: np.ndarray) -> DynamicField:
        """A field of the same grid over the storage `trace`, sharing this field's grid tables."""
        return copy.copy(self)._over(trace)

    def record_moves(self, moves) -> None:
        """Add each (from_x, from_y, to_x, to_y) row's net displacement at its start cell; pairs of pairs do too."""
        fx, fy, tx, ty = np.asarray(moves, dtype=np.int64).reshape(-1, 4).T
        np.add.at(self.dx, (fy, fx), tx - fx)
        np.add.at(self.dy, (fy, fx), ty - fy)

    def decay_and_diffuse(self, delta: float, alpha: float, rng: np.random.Generator) -> None:
        """One stochastic field update: decay first, then diffusion of survivors."""
        for store in self._trace:  # dx, then dy
            self._update_component(store, delta, alpha, rng)

    def _update_component(self, store: np.ndarray, delta: float, alpha: float, rng: np.random.Generator) -> None:
        flat = store.reshape(-1)  # the grid's cells, then the spare row, whose first cell is the sink
        # a call on counts that are all zero would draw nothing, so it is skipped
        cells = np.flatnonzero(store[:-1] != 0)  # numpy scans bool far faster than int64
        if not cells.size:
            return
        quanta = flat[cells]
        flat[cells] = 0
        sign = np.sign(quanta)
        survivors = rng.binomial(np.abs(quanta), 1.0 - delta)
        if not survivors.any():
            return
        movers = rng.binomial(survivors, alpha)
        if movers.any():
            split = rng.multinomial(movers, (0.25, 0.25, 0.25, 0.25))
        else:
            split = np.zeros((cells.size, 4), dtype=np.int64)
        targets = np.concatenate((self._stay[cells], self._neighbor[cells].ravel()))
        counts = np.concatenate((sign * (survivors - movers), (sign[:, None] * split).ravel()))
        np.add.at(flat, targets, counts)
        flat[store[:-1].size] = 0  # empty the sink
