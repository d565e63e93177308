"""Vectorial trace field left by moving agents.

Both components are stored as signed integer quanta per cell: an agent whose
net round displacement is (dx, dy) adds dx and dy to the component grids at
its start cell. Once per round, each quantum of absolute value independently
decays with probability delta; survivors diffuse with probability alpha to a
uniformly random von Neumann neighbor, keeping sign and component. Quanta
landing on walls (or off-grid) are destroyed.

Storage is a lockstep's (2, L, H + 1, W) stack of its seeds' dx and dy grids,
each with a spare row whose first cell is the seed's sink of lost quanta (a
lone field: (2, H + 1, W), L = 1). One update scans, gathers and scatters the
whole stack in place; only the draws run per seed, from its own generator, at
its cells holding quanta in row-major order, dx then dy, and directions only at
movers. Per-cell binomial and multinomial draws equal per-quantum coin flips in
law, and numpy draws nothing for a zero count, so they equal whole-grid draws.
"""

from __future__ import annotations

import numpy as np

from .scenario import MOORE_OFFSETS, WALL, Grid

# von Neumann directions, fixed order for reproducible stream consumption
_VN_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class DynamicField:
    def __init__(self, grid: Grid, trace: np.ndarray | None = None):
        """A zero field of `grid`, or one over `trace`, C-contiguous int64 (2, L, H + 1, W) or (2, H + 1, W)."""
        h, w = grid.height, grid.width
        trace = np.zeros((2, h + 1, w), dtype=np.int64) if trace is None else trace
        # (4, h*w) von Neumann targets relative to the cell: the step where `Grid.steps` permits it, else the sink h*w
        bits = grid.steps.ravel() >> np.array([[MOORE_OFFSETS.index(d)] for d in _VN_DIRS], dtype=np.uint8) & 1
        steps = np.array([[dx + dy * w] for dx, dy in _VN_DIRS], dtype=np.int32)
        self._shift = np.where(bits, steps, h * w - np.arange(h * w, dtype=np.int32))
        self._keep = grid.kind.ravel() != WALL  # False where staying quanta are destroyed
        self._width, self._block = w, (h + 1) * w
        self.trace = trace.reshape(2, -1, self._block)  # component, seed, the seed's cells then its spare row
        self.dx, self.dy = trace[..., :-1, :]

    def record_moves(self, moves, offset=0) -> None:
        """Add each (from_x, from_y, to_x, to_y) row's (or pair of pairs') net move at its start cell + `offset`."""
        fx, fy, tx, ty = np.asarray(moves, dtype=np.int64).reshape(-1, 4).T
        cells = offset + fy * self._width + fx
        dx, dy = self.trace.reshape(2, -1)
        np.add.at(dx, cells, tx - fx)
        np.add.at(dy, cells, ty - fy)

    def decay_and_diffuse(self, delta: float, alpha: float, *rngs: np.random.Generator | None) -> None:
        """One stochastic update, decay first, then diffusion of survivors: seed i's block draws from
        rngs[i], one per seed, and a block whose generator is None is left as it is."""
        held = self.trace != 0  # numpy scans bool far faster than int64; the sinks are empty
        held[:, [i for i, rng in enumerate(rngs) if rng is None]] = False
        cells = np.flatnonzero(held)
        flat = self.trace.reshape(-1)
        quanta = flat[cells]
        counts = np.abs(quanta)
        stays, moving, splits = np.zeros_like(counts), [], []
        seeds = self.trace.shape[1]
        cuts = np.searchsorted(cells, np.arange(2 * seeds + 1) * self._block).tolist()
        for i, rng in zip(range(seeds), rngs, strict=True):
            for lo, hi in ((cuts[i], cuts[i + 1]), (cuts[seeds + i], cuts[seeds + i + 1])):  # dx, then dy
                # a call on counts that are all zero would draw nothing, so it is skipped
                if lo == hi:
                    continue
                kept = rng.binomial(counts[lo:hi], 1.0 - delta)
                if not np.count_nonzero(kept):
                    continue
                left = rng.binomial(kept, alpha)
                stays[lo:hi] = kept - left
                at = left.nonzero()[0]
                if at.size:
                    moving.append(at + lo)
                    splits.append(rng.multinomial(left[at], (0.25, 0.25, 0.25, 0.25)))
        rel, sign = cells % self._block, np.sign(quanta)
        flat[cells] = sign * stays * self._keep[rel]
        if moving:
            at = np.concatenate(moving)
            targets = cells[at] + self._shift[:, rel[at]]  # (4, movers); a lost quantum lands in its seed's sink
            np.add.at(flat, targets, (np.concatenate(splits) * sign[at, None]).T)
            self.trace[..., self._block - self._width] = 0  # empty the sinks
