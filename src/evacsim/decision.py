"""Probabilistic decision levels: per-round exit choice and destination choice.

Every pick reads only the start-of-round state, so both levels are batched
kernels over rows of the agent table (see `engine.agent_table`), which hold
each agent's cell, last displacement, chosen exit and profile values as
columns. Exit choice reads one (N, E) weight matrix from the (E, H, W)
stack of exit distances. Destination choice combines five influences
(distance to exit, trace field, inertia, wall clearance, neighbor crowding)
in one (rows, K) log-weight matrix per v_max class over the disc offsets, in
blocks of at most BLOCK_ROWS rows so temporaries stay small. Log weights are
normalized with max-subtraction before exponentiation, so large couplings or
trace values cannot overflow. Inertia is read from cached per-(v_max, r)
tables over last displacements in [-r, r]^2, in the per-agent float order;
at r = v_max = 10 they take 2.2 MB. The wall field never exceeds w_max, as
its relaxation starts there, so the wall term is k_W (w_max - W).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .scenario import WALL, disc_offsets

if TYPE_CHECKING:
    from .engine import SimState

# rows of one destination block; keeps each temporary (at most 49 candidates
# x 16 bytes per row up to v_max 4) under malloc's 128 KiB mmap threshold, so
# blocks reuse heap memory instead of mapping and faulting in fresh pages
BLOCK_ROWS = 128


class SimulationError(RuntimeError):
    """Raised when a run reaches a state the scenario validation should exclude."""


@dataclass
class DestinationDistribution:
    """Destination law of one block of agents that share a v_max.

    `rows` (n,) index the agent rows, `origin` (n, 2) holds their cells and
    `offsets` (K, 2) the v_max disc; `candidate` (n, K) marks the in-grid,
    non-wall cells not held by another agent (the own cell always is one);
    `logw` (n, K) is -inf off the candidates and where the chosen exit cannot
    be reached; `probs` (n, K) is its row softmax.
    """

    rows: np.ndarray
    origin: np.ndarray
    offsets: np.ndarray
    candidate: np.ndarray
    logw: np.ndarray
    probs: np.ndarray


def sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one column per row of normalized probabilities (n, K).

    Row i uses the uniform u[i]. A draw never lands on a zero-probability
    column, even when rounding leaves the row's CDF just below u.
    """
    cdf = np.cumsum(probs, axis=1)
    idx = np.count_nonzero(cdf <= u[:, None], axis=1)
    last = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)
    return np.minimum(idx, last)


def exit_weights(agents: np.ndarray, exit_dist: np.ndarray) -> np.ndarray:
    """(N, E) unnormalized exit-choice weights (1 + persistence bonus) / distance^2 of the agent rows.

    The distance is clamped below at one cell; exits an agent may not use or
    cannot reach weigh zero. A chosen exit of -1 (none yet) earns no bonus.
    """
    n_exits = exit_dist.shape[0]
    pos = agents["pos"]
    s = exit_dist[:, pos[:, 1], pos[:, 0]].T
    bonus = np.where(agents["chosen_exit"][:, None] == np.arange(n_exits), agents["k_e"][:, None], 0.0)
    usable = agents["allowed"] & np.isfinite(s)
    return np.where(usable, (1.0 + bonus) / np.maximum(np.where(usable, s, 1.0), 1.0) ** 2, 0.0)


def choose_exit(agents: np.ndarray, exit_dist: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sample this round's exit for every agent row, row i with uniform u[i]; (n,) int64, stored by the caller."""
    weights = exit_weights(agents, exit_dist)
    total = weights.sum(axis=1)
    stuck = np.nonzero(total <= 0.0)[0]
    if stuck.size:
        a = agents[int(stuck[0])]
        raise SimulationError(f"agent {a.id} cannot reach any allowed exit from {tuple(a.pos.tolist())}")
    return sample_rows(weights / total[:, None], u)


def crowd_counts(occupancy: np.ndarray) -> np.ndarray:
    """Occupied-cell count over each cell's 8 Moore neighbors, as uint8 (a count is at most 8).

    A separable 3x3 box sum over one zero-padded array, minus the center cell.
    """
    h, w = occupancy.shape
    p = np.zeros((h + 2, w + 2), dtype=np.uint8)
    p[1:-1, 1:-1] = occupancy
    rows = p[:, :-2] + p[:, 1:-1]
    rows += p[:, 2:]
    counts = rows[:-2] + rows[1:-1]
    counts += rows[2:]
    counts -= p[1:-1, 1:-1]
    return counts


@lru_cache(maxsize=None)
def _disc_terms(v_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x and y offsets of the v_max disc and its own-cell mask; read-only."""
    offx, offy = np.ascontiguousarray(disc_offsets(v_max).T)
    terms = (offx, offy, (offx == 0) & (offy == 0))
    for a in terms:
        a.setflags(write=False)
    return terms


@lru_cache(maxsize=16)
def _inertia_tables(v_max: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ((2r+1)^2, K) tables of |v| + |u| and of sin(phi/2), 0 where u or v is zero; row
    (uy + r) * (2r + 1) + ux + r is the last displacement u, column the offset v."""
    offx, offy, _ = _disc_terms(v_max)
    v_next = np.hypot(offx, offy)
    uy, ux = np.indices((2 * r + 1, 2 * r + 1), dtype=np.float64).reshape(2, -1, 1) - r
    v_prev = np.hypot(ux, uy)
    turning = (v_next > 0.0) & (v_prev > 0.0)
    cos_phi = np.divide(ux * offx + uy * offy, v_next * v_prev, out=np.zeros(turning.shape), where=turning)
    sin_half = np.where(turning, np.sqrt((1.0 - np.clip(cos_phi, -1.0, 1.0)) / 2.0), 0.0)
    tables = (v_next + v_prev, sin_half)
    for a in tables:
        a.setflags(write=False)
    return tables


def destination_distribution(agents: np.ndarray, state: SimState) -> Iterator[DestinationDistribution]:
    """Destination laws of all agent rows, one block per v_max class and BLOCK_ROWS rows.

    Reads the start-of-round `state`: grid, exit and wall distances, trace
    field, crowd counts, occupancy and `config.w_max`. Every row needs a
    chosen exit (-1 raises). The log weight of candidate c for an agent at p is
    -k_S S(c) + k_D T(c).(c - p) - k_I (|v| + |u|) sin(phi/2)
    - k_W (w_max - W(c)) - k_P crowd(c), u being the last displacement
    and phi the turn angle from u to v = c - p (no inertia term while either
    is zero). A term whose coupling is zero on every row of a block is left
    out: it would add only +-0.0, which changes no probability. The static
    term always stays, as it carries the reachability mask.
    """
    pos = agents["pos"]
    last = agents["last_disp"]
    chosen = agents["chosen_exit"]
    unset = np.flatnonzero(chosen < 0)
    if unset.size:
        raise SimulationError(f"agent {agents[int(unset[0])].id} has no chosen exit")
    v_max = agents["v_max"]
    k = agents["k"]
    width, height = state.grid.width, state.grid.height
    w_max = state.config.w_max
    # fields are read through flat cell indices y * width + x
    flat_dist = state.exit_dist.reshape(len(state.exit_dist), -1)
    for v in np.flatnonzero(np.bincount(v_max)).tolist():
        offx, offy, own = _disc_terms(v)
        of_class = np.nonzero(v_max == v)[0]
        for start in range(0, len(of_class), BLOCK_ROWS):
            rows = of_class[start : start + BLOCK_ROWS]
            origin = pos[rows]
            cx = origin[:, 0, None] + offx
            cy = origin[:, 1, None] + offy
            inside = (cx >= 0) & (cx < width) & (cy >= 0) & (cy < height)
            at = np.where(inside, cy * width + cx, 0)
            candidate = inside & (np.take(state.grid.kind, at) != WALL) & (own | ~np.take(state.occupancy, at))
            k_rows = k[rows]
            _, on_d, on_i, on_w, on_p = k_rows.any(axis=0).tolist()
            k_s, k_d, k_i, k_w, k_p = (col[:, None] for col in k_rows.T)

            s = flat_dist[chosen[rows, None], at]
            reachable = candidate & np.isfinite(s)
            logw = np.where(reachable, -k_s * np.where(reachable, s, 0.0), -np.inf)

            if on_d:
                logw += k_d * (np.take(state.dyn_field.dx, at) * offx + np.take(state.dyn_field.dy, at) * offy)

            if on_i:
                u = last[rows]
                r = max(v, int(np.abs(u).max()))
                vsum, sin_half = _inertia_tables(v, r)
                iu = u @ (1, 2 * r + 1) + r * (2 * r + 2)  # table row of each u
                logw -= k_i * np.take(vsum, iu, axis=0) * np.take(sin_half, iu, axis=0)

            if on_w:
                logw -= k_w * (w_max - np.take(state.wall_dist, at))

            if on_p:
                logw -= k_p * np.take(state.counts, at)

            top = logw.max(axis=1, keepdims=True)
            stuck = rows[np.isneginf(top[:, 0])]
            if stuck.size:
                # even the own cell is cut off from the chosen exit
                a = agents[int(stuck[0])]
                raise SimulationError(f"agent {a.id} at {tuple(a.pos.tolist())} cannot reach exit {a.chosen_exit}")
            w = np.exp(logw - top)
            yield DestinationDistribution(
                rows=rows,
                origin=origin,
                offsets=disc_offsets(v),
                candidate=candidate,
                logw=logw,
                probs=w / w.sum(axis=1, keepdims=True),
            )


def choose_destination(agents: np.ndarray, state: SimState, u: np.ndarray) -> np.ndarray:
    """Sample every agent row's (x, y) destination this round from `state`, row i with uniform u[i]; (n, 2) int64."""
    dest = np.empty((len(agents), 2), dtype=np.int64)
    for block in destination_distribution(agents, state):
        dest[block.rows] = block.origin + block.offsets[sample_rows(block.probs, u[block.rows])]
    return dest
