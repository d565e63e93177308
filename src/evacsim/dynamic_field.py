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
"""

from __future__ import annotations

import numpy as np

from .scenario import WALL, Grid

# von Neumann directions, fixed order for reproducible stream consumption
_VN_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class DynamicField:
    def __init__(self, grid: Grid):
        h, w = grid.height, grid.width
        self.dx, self.dy = np.zeros((2, h, w), dtype=np.int64)
        # flat cell index, padded by the sink h*w, which also stands for every wall cell
        cell = np.full((h + 2, w + 2), h * w, dtype=np.int32)
        cell[1:-1, 1:-1] = np.where(grid.kind == WALL, h * w, np.arange(h * w).reshape(h, w))
        self._stay = cell[1:-1, 1:-1].ravel()
        shifted = [cell[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w].ravel() for dx, dy in _VN_DIRS]
        self._neighbor = np.stack(shifted, axis=1)  # (h*w, 4) von Neumann targets

    def record_moves(self, moves) -> None:
        """Add each (from_x, from_y, to_x, to_y) row's net displacement at its start cell; pairs of pairs do too."""
        fx, fy, tx, ty = np.asarray(moves, dtype=np.int64).reshape(-1, 4).T
        np.add.at(self.dx, (fy, fx), tx - fx)
        np.add.at(self.dy, (fy, fx), ty - fy)

    def decay_and_diffuse(self, delta: float, alpha: float, rng: np.random.Generator) -> None:
        """One stochastic field update: decay first, then diffusion of survivors."""
        self.dx = self._update_component(self.dx, delta, alpha, rng)
        self.dy = self._update_component(self.dy, delta, alpha, rng)

    def _update_component(self, comp: np.ndarray, delta: float, alpha: float, rng: np.random.Generator) -> np.ndarray:
        # a call on counts that are all zero would draw nothing, so it is skipped
        cells = np.flatnonzero(comp != 0)  # numpy scans bool far faster than int64
        if not cells.size:
            return comp
        quanta = comp.ravel()[cells]
        sign = np.sign(quanta)
        survivors = rng.binomial(np.abs(quanta), 1.0 - delta)
        if not survivors.any():
            return np.zeros_like(comp)
        movers = rng.binomial(survivors, alpha)
        if movers.any():
            split = rng.multinomial(movers, (0.25, 0.25, 0.25, 0.25))
        else:
            split = np.zeros((cells.size, 4), dtype=np.int64)
        targets = np.concatenate((self._stay[cells], self._neighbor[cells].ravel()))
        counts = np.concatenate((sign * (survivors - movers), (sign[:, None] * split).ravel()))
        out = np.zeros(comp.size + 1, dtype=np.int64)
        np.add.at(out, targets, counts)
        return out[:-1].reshape(comp.shape)  # drop the sink
