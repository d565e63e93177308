"""Vectorial trace field left by moving agents.

Both components are stored as signed integer quanta per cell: an agent whose
net round displacement is (dx, dy) adds dx and dy to the component grids at
its start cell. Once per round, each quantum of absolute value independently
decays with probability delta; survivors diffuse with probability alpha to a
uniformly random von Neumann neighbor, keeping sign and component. Quanta
landing on walls (or off-grid) are destroyed.

Per-cell sampling uses binomial/multinomial draws over the quanta counts,
which is distributionally identical to per-quantum coin flips and keeps the
update vectorized over the whole grid.
"""

from __future__ import annotations

import numpy as np

from .scenario import WALL, Grid

# von Neumann directions, fixed order for reproducible stream consumption
_VN_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class DynamicField:
    def __init__(self, grid: Grid):
        self.dx = np.zeros((grid.height, grid.width), dtype=np.int64)
        self.dy = np.zeros((grid.height, grid.width), dtype=np.int64)
        self._wall = grid.kind == WALL

    def record_moves(self, moves) -> None:
        """Add each agent's net displacement to the field at its start cell.

        ``moves`` is an iterable of ((from_x, from_y), (to_x, to_y)) pairs,
        applied once per round after the movement phase.
        """
        for (a, b), (x, y) in moves:
            self.dx[b, a] += x - a
            self.dy[b, a] += y - b

    def decay_and_diffuse(self, delta: float, alpha: float, rng: np.random.Generator) -> None:
        """One stochastic field update: decay first, then diffusion of survivors."""
        self.dx = self._update_component(self.dx, delta, alpha, rng)
        self.dy = self._update_component(self.dy, delta, alpha, rng)

    def _update_component(
        self, comp: np.ndarray, delta: float, alpha: float, rng: np.random.Generator
    ) -> np.ndarray:
        quanta = np.abs(comp)
        sign = np.sign(comp)
        survivors = rng.binomial(quanta, 1.0 - delta)
        movers = rng.binomial(survivors, alpha)
        split = rng.multinomial(movers, (0.25, 0.25, 0.25, 0.25))
        out = sign * (survivors - movers)
        for k, (dx, dy) in enumerate(_VN_DIRS):
            leaving = sign * split[..., k]
            dst = out[max(dy, 0) : out.shape[0] + min(dy, 0), max(dx, 0) : out.shape[1] + min(dx, 0)]
            src = leaving[max(-dy, 0) : out.shape[0] + min(-dy, 0), max(-dx, 0) : out.shape[1] + min(-dx, 0)]
            dst += src
        out[self._wall] = 0
        return out
