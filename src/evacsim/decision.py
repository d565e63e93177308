"""Probabilistic decision levels: per-round exit choice and destination choice.

Every pick reads only the start-of-round state, so both levels are batched
kernels over all agents. Exit choice reads one (N, E) weight matrix from the
(E, H, W) stack of exit distances. Destination choice combines five
influences (distance to exit, trace field, inertia, wall clearance, neighbor
crowding) in one (rows, K) log-weight matrix per v_max class over the disc
offsets, in blocks of at most BLOCK_ROWS rows so temporaries stay small.
Log weights are normalized with max-subtraction before exponentiation, so
large couplings or trace values cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .scenario import WALL, AgentProfile, disc_offsets

if TYPE_CHECKING:
    from .engine import SimState

# rows of one destination block; keeps each temporary (at most 49 candidates
# x 16 bytes per row up to v_max 4) under malloc's 128 KiB mmap threshold, so
# blocks reuse heap memory instead of mapping and faulting in fresh pages
BLOCK_ROWS = 128


class SimulationError(RuntimeError):
    """Raised when a run reaches a state the scenario validation should exclude."""


@dataclass
class Agent:
    """One simulated pedestrian: its profile, and the state that changes during a run."""

    id: int
    pos: tuple[int, int]
    profile: AgentProfile
    chosen_exit: int | None = None
    last_disp: tuple[int, int] = (0, 0)


@dataclass
class DestinationDistribution:
    """Destination law of one block of agents that share a v_max.

    `rows` (n,) index the agent list; `cells` (n, K, 2) are the (x, y) cells
    of the v_max disc around each agent; `candidate` (n, K) marks the in-grid,
    non-wall cells not held by another agent (the own cell always is one);
    `logw` (n, K) is -inf off the candidates and where the chosen exit cannot
    be reached; `probs` (n, K) is its row softmax.
    """

    rows: np.ndarray
    cells: np.ndarray
    candidate: np.ndarray
    logw: np.ndarray
    probs: np.ndarray


def softmax_from_log(logw: np.ndarray) -> np.ndarray:
    """exp-normalize log weights along the last axis; invariant under adding any constant."""
    w = np.exp(logw - np.max(logw, axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one column per row of normalized probabilities (n, K).

    Row i uses the uniform u[i]. A draw never lands on a zero-probability
    column, even when rounding leaves the row's CDF just below u.
    """
    cdf = np.cumsum(probs, axis=1)
    idx = np.count_nonzero(cdf <= u[:, None], axis=1)
    last = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)
    return np.minimum(idx, last)


@lru_cache(maxsize=None)
def _exit_mask(allowed_exits: tuple[int, ...] | None, n_exits: int) -> tuple[bool, ...]:
    """One row of the allowed-exit mask; None allows every exit."""
    return tuple(allowed_exits is None or e in allowed_exits for e in range(n_exits))


def exit_weights(agents: list[Agent], exit_dist: np.ndarray) -> np.ndarray:
    """(N, E) unnormalized exit-choice weights (1 + persistence bonus) / distance^2.

    The distance is clamped below at one cell; exits an agent may not use or
    cannot reach weigh zero.
    """
    n_exits = exit_dist.shape[0]
    pos = np.array([a.pos for a in agents], dtype=np.int64).reshape(-1, 2)
    s = exit_dist[:, pos[:, 1], pos[:, 0]].T
    allowed = np.array([_exit_mask(a.profile.allowed_exits, n_exits) for a in agents], dtype=bool)
    chosen = np.array([-1 if a.chosen_exit is None else a.chosen_exit for a in agents])
    k_e = np.array([a.profile.k_e for a in agents], dtype=np.float64)
    bonus = np.where(chosen[:, None] == np.arange(n_exits), k_e[:, None], 0.0)
    usable = allowed.reshape(-1, n_exits) & np.isfinite(s)
    return np.where(usable, (1.0 + bonus) / np.maximum(np.where(usable, s, 1.0), 1.0) ** 2, 0.0)


def choose_exit(agents: list[Agent], exit_dist: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sample this round's exit for every agent, agent i with uniform u[i]; stores it on the agents."""
    weights = exit_weights(agents, exit_dist)
    total = weights.sum(axis=1)
    stuck = np.nonzero(total <= 0.0)[0]
    if stuck.size:
        a = agents[int(stuck[0])]
        raise SimulationError(f"agent {a.id} cannot reach any allowed exit from {a.pos}")
    chosen = sample_rows(weights / total[:, None], u)
    for a, e in zip(agents, chosen.tolist()):
        a.chosen_exit = e
    return chosen


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
def _disc_terms(v_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """x and y offsets of the v_max disc, its own-cell mask and each offset's length; read-only."""
    offsets = disc_offsets(v_max)
    offx, offy = np.ascontiguousarray(offsets.T)
    terms = (offx, offy, (offx == 0) & (offy == 0), np.hypot(offx, offy))
    for a in terms:
        a.setflags(write=False)
    return terms


def destination_distribution(agents: list[Agent], state: SimState) -> Iterator[DestinationDistribution]:
    """Destination laws of all agents, one block per v_max class and BLOCK_ROWS rows.

    Reads the start-of-round `state`: grid, exit and wall distances, trace
    field, crowd counts, occupancy and `config.w_max`. Every agent needs a
    chosen exit. The log weight of candidate c for an agent at p is
    -k_S S(c) + k_D T(c).(c - p) - k_I (|v| + |u|) sin(phi/2)
    - k_W max(0, w_max - W(c)) - k_P crowd(c), u being the last displacement
    and phi the turn angle from u to v = c - p (no inertia term while either
    is zero). A term whose coupling is zero on every row of a block is left
    out: it would add only +-0.0, which changes no probability. The static
    term always stays, as it carries the reachability mask.
    """
    pos = np.array([a.pos for a in agents], dtype=np.int64).reshape(-1, 2)
    profiles = [a.profile for a in agents]
    v_max = np.array([p.v_max for p in profiles], dtype=np.int64)
    chosen = np.array([a.chosen_exit for a in agents], dtype=np.int64)
    last = np.array([a.last_disp for a in agents], dtype=np.float64).reshape(-1, 2)
    k = np.array([(p.k_s, p.k_d, p.k_i, p.k_w, p.k_p) for p in profiles], dtype=np.float64).reshape(-1, 5)
    width, height = state.grid.width, state.grid.height
    w_max = state.config.w_max
    # fields are read through flat cell indices y * width + x
    flat_dist = state.exit_dist.reshape(len(state.exit_dist), -1)
    for v in sorted(set(v_max.tolist())):
        offx, offy, own, v_next = _disc_terms(v)
        of_class = np.nonzero(v_max == v)[0]
        for start in range(0, len(of_class), BLOCK_ROWS):
            rows = of_class[start : start + BLOCK_ROWS]
            cx = pos[rows, 0, None] + offx
            cy = pos[rows, 1, None] + offy
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
                ux, uy = last[rows, 0, None], last[rows, 1, None]
                v_prev = np.hypot(ux, uy)
                turning = (v_next > 0.0) & (v_prev > 0.0)
                cos_phi = np.clip(
                    np.divide(ux * offx + uy * offy, v_next * v_prev, out=np.zeros(turning.shape), where=turning),
                    -1.0,
                    1.0,
                )
                sin_half = np.sqrt((1.0 - cos_phi) / 2.0)
                logw -= np.where(turning, k_i * (v_next + v_prev) * sin_half, 0.0)

            if on_w:
                w = np.take(state.wall_dist, at)
                logw -= k_w * np.where(w >= w_max, 0.0, w_max - w)

            if on_p:
                logw -= k_p * np.take(state.counts, at)

            stuck = rows[np.isneginf(logw.max(axis=1))]
            if stuck.size:
                # even the own cell is cut off from the chosen exit
                a = agents[int(stuck[0])]
                raise SimulationError(f"agent {a.id} at {a.pos} cannot reach exit {a.chosen_exit}")
            yield DestinationDistribution(
                rows=rows,
                cells=np.stack((cx, cy), axis=-1),
                candidate=candidate,
                logw=logw,
                probs=softmax_from_log(logw),
            )


def choose_destination(agents: list[Agent], state: SimState, u: np.ndarray) -> list[tuple[int, int]]:
    """Sample every agent's destination cell for this round from `state`, agent i with uniform u[i]."""
    dest = np.empty((len(agents), 2), dtype=np.int64)
    for block in destination_distribution(agents, state):
        idx = sample_rows(block.probs, u[block.rows])
        dest[block.rows] = block.cells[np.arange(len(block.rows)), idx]
    return [(x, y) for x, y in dest.tolist()]
