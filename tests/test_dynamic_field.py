"""Trace field: recording, stochastic decay, diffusion."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from evacsim.dynamic_field import DynamicField
from evacsim.scenario import EXIT, FLOOR, WALL, Grid

from helpers import random_kind, reference_update_component


def open_grid(side: int) -> Grid:
    kind = np.full((side, side), FLOOR, dtype=np.int8)
    kind[0, 0] = EXIT
    return Grid.from_kind(kind)


def walled_grid(side: int) -> Grid:
    kind = np.full((side, side), FLOOR, dtype=np.int8)
    kind[0, :] = kind[-1, :] = WALL
    kind[:, 0] = kind[:, -1] = WALL
    kind[0, 1] = EXIT
    return Grid.from_kind(kind)


def test_record_single_move():
    f = DynamicField(open_grid(6))
    f.record_moves([((2, 2), (4, 3))])
    assert (f.dx[2, 2], f.dy[2, 2]) == (2, 1)
    assert (f.dx[3, 4], f.dy[3, 4]) == (0, 0)


def test_record_crossing_moves_are_additive():
    f = DynamicField(open_grid(6))
    f.record_moves([((1, 1), (2, 1)), ((3, 1), (2, 1))])
    assert (f.dx[1, 1], f.dy[1, 1]) == (1, 0)
    assert (f.dx[1, 3], f.dy[1, 3]) == (-1, 0)
    assert (f.dx[1, 2], f.dy[1, 2]) == (0, 0)


def test_record_empty_moves_is_noop():
    f = DynamicField(open_grid(4))
    f.record_moves([])
    assert f.dx.sum() == 0 and f.dy.sum() == 0


def test_fresh_field_reads_zero():
    f = DynamicField(open_grid(4))
    assert (f.dx[2, 2], f.dy[2, 2]) == (0, 0)


def test_full_decay_clears_field():
    f = DynamicField(open_grid(8))
    f.record_moves([((2, 2), (5, 4)), ((4, 4), (1, 3))])
    f.decay_and_diffuse(1.0, 0.5, np.random.default_rng(0))
    assert not f.dx.any() and not f.dy.any()


def test_no_decay_no_diffusion_is_identity():
    f = DynamicField(open_grid(8))
    f.record_moves([((2, 2), (5, 4)), ((4, 4), (1, 3))])
    dx0, dy0 = f.dx.copy(), f.dy.copy()
    for i in range(10):
        f.decay_and_diffuse(0.0, 0.0, np.random.default_rng(i))
    assert np.array_equal(f.dx, dx0) and np.array_equal(f.dy, dy0)


def test_diffusion_conserves_signed_sums_away_from_walls():
    g = open_grid(101)
    f = DynamicField(g)
    f.record_moves([((50, 50), (53, 48))] * 111)  # dx=+333, dy=-222
    for i in range(40):  # quanta travel at most 40 cells, walls are 50 away
        f.decay_and_diffuse(0.0, 0.7, np.random.default_rng(i))
    assert int(f.dx.sum()) == 333
    assert int(f.dy.sum()) == -222


def test_diffusion_moves_quanta_at_most_one_step():
    g = open_grid(15)
    f = DynamicField(g)
    f.record_moves([((7, 7), (8, 7))] * 500)
    f.decay_and_diffuse(0.0, 1.0, np.random.default_rng(3))
    nonzero = {tuple(p) for p in np.argwhere(f.dx != 0)}
    allowed = {(7, 7), (6, 7), (8, 7), (7, 6), (7, 8)}  # (y, x) von Neumann star
    assert nonzero <= allowed


def test_component_separation():
    f = DynamicField(open_grid(21))
    f.record_moves([((10, 10), (13, 10))] * 300)  # pure x-trace
    for i in range(8):
        f.decay_and_diffuse(0.1, 0.6, np.random.default_rng(i))
    assert not f.dy.any()


def test_sign_preserved_under_diffusion():
    f = DynamicField(open_grid(31))
    f.record_moves([((15, 15), (12, 15))] * 400)  # dx = -1200
    for i in range(5):
        f.decay_and_diffuse(0.0, 0.5, np.random.default_rng(i))
    assert (f.dx <= 0).all()
    assert int(f.dx.sum()) == -1200


def test_walls_absorb_all_quanta_when_fully_enclosed():
    kind = np.full((3, 3), WALL, dtype=np.int8)
    kind[1, 1] = FLOOR
    g = Grid.from_kind(kind)
    f = DynamicField(g)
    f.record_moves([((1, 1), (1, 0))] * 50)
    assert (f.dx[1, 1], f.dy[1, 1]) == (0, -50)
    f.decay_and_diffuse(0.0, 1.0, np.random.default_rng(0))
    assert not f.dx.any() and not f.dy.any()


def test_wall_cells_stay_zero():
    g = walled_grid(8)
    f = DynamicField(g)
    f.record_moves([((1, 1), (3, 2))] * 200)
    for i in range(20):
        f.decay_and_diffuse(0.05, 0.9, np.random.default_rng(i))
        wall_mask = g.kind == WALL
        assert not f.dx[wall_mask].any() and not f.dy[wall_mask].any()


def test_decay_is_binomial():
    n = 10_000
    pvals = []
    for trial in range(10):
        f = DynamicField(open_grid(9))
        f.record_moves([((4, 4), (5, 4))] * n)
        f.decay_and_diffuse(0.5, 0.0, np.random.default_rng(trial))
        survivors = int(f.dx[4, 4])
        res = stats.binomtest(survivors, n, 0.5)
        pvals.append(res.pvalue)
        assert res.pvalue >= 1e-6, (trial, survivors)
    # p-values should not all be tiny either
    assert max(pvals) > 1e-3


def test_mean_survival_matches_expectation_within_5_sigma():
    n, delta, trials = 2_000, 0.3, 60
    total = 0
    for trial in range(trials):
        f = DynamicField(open_grid(9))
        f.record_moves([((4, 4), (5, 4))] * n)
        f.decay_and_diffuse(delta, 0.0, np.random.default_rng(1000 + trial))
        total += int(f.dx[4, 4])
    mean = total / trials
    sigma = math.sqrt(n * delta * (1 - delta) / trials)
    assert abs(mean - n * (1 - delta)) <= 5 * sigma


# ------------------------------------------- sparse update against the oracle

SPARSE_SHORTCUT = (
    "numpy now consumes randomness for a zero count; the sparse trace update "
    "(DynamicField._update_component draws only at cells holding quanta) no longer "
    "equals the whole-grid draws, so its streams and the golden digests would change"
)


def test_numpy_draws_nothing_for_a_zero_count():
    for n, p in (([3, 0, 5, 0], 0.3), ([0, 1000, 0, 0, 40], 0.7), ([0, 0], 0.5)):
        with_zeros, without = np.random.default_rng(11), np.random.default_rng(11)
        drawn = with_zeros.binomial(n, p)
        kept = without.binomial([k for k in n if k], p)
        assert with_zeros.bit_generator.state == without.bit_generator.state, SPARSE_SHORTCUT
        assert drawn[np.flatnonzero(n)].tolist() == kept.tolist(), SPARSE_SHORTCUT
    for n in ([4, 0, 2], [0, 0, 700], [0]):
        with_zeros, without = np.random.default_rng(12), np.random.default_rng(12)
        drawn = with_zeros.multinomial(n, (0.25, 0.25, 0.25, 0.25))
        kept = without.multinomial([k for k in n if k], (0.25, 0.25, 0.25, 0.25))
        assert with_zeros.bit_generator.state == without.bit_generator.state, SPARSE_SHORTCUT
        assert drawn[np.flatnonzero(n)].tolist() == kept.tolist(), SPARSE_SHORTCUT


RATES = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.1, 0.5, 1.0)), st.booleans(), RATES, RATES)
def test_sparse_update_equals_whole_grid_draws(world_seed, fill, on_walls, delta, alpha):
    # walled grids with exits cut into the border, so that quanta there
    # diffuse off the grid; fill 0 gives an all-zero field. Quanta put on
    # walls are destroyed where they stay, but their movers land next door.
    rng = np.random.default_rng(world_seed)
    kind = random_kind(rng, max_side=10)
    h, w = kind.shape
    border = [(y, x) for y in range(h) for x in range(w) if y in (0, h - 1) or x in (0, w - 1)]
    for i in rng.choice(len(border), size=int(rng.integers(1, 4)), replace=False):
        kind[border[i]] = EXIT
    g = Grid.from_kind(kind)
    wall = kind == WALL
    f = DynamicField(g)
    for comp in (f.dx, f.dy):
        held = (on_walls | ~wall) & (rng.random(kind.shape) < fill)
        comp[held] = rng.integers(-40, 41, size=int(held.sum()))
    dx, dy = f.dx.copy(), f.dy.copy()

    sparse_rng = np.random.default_rng(world_seed + 1)
    dense_rng = np.random.default_rng(world_seed + 1)
    for _ in range(3):
        f.decay_and_diffuse(delta, alpha, sparse_rng)
        dx = reference_update_component(dx, wall, delta, alpha, dense_rng)
        dy = reference_update_component(dy, wall, delta, alpha, dense_rng)
        assert np.array_equal(f.dx, dx) and np.array_equal(f.dy, dy)
        assert sparse_rng.bit_generator.state == dense_rng.bit_generator.state


def test_fields_over_one_stack_update_in_place_and_apart():
    # a lockstep's seeds hold their fields in one (2, L, H + 1, W) array; each
    # seed's block updates from its own generator, in place, and equals a field
    # of its own; a block passed None is left as it is
    g = open_grid(9)
    trace = np.zeros((2, 3, 10, 9), dtype=np.int64)
    stack = DynamicField(g, trace)
    alone = DynamicField(g)
    for f, offset in ((stack, 0), (stack, 90), (stack, 180), (alone, 0)):
        f.record_moves([((4, 4), (6, 3))] * 50 + [((0, 0), (0, 1))] * 9, offset)
    before = trace.copy()
    stack.decay_and_diffuse(0.3, 0.6, None, np.random.default_rng(5), None)
    alone.decay_and_diffuse(0.3, 0.6, np.random.default_rng(5))
    assert np.array_equal(stack.dx[1], alone.dx) and np.array_equal(stack.dy[1], alone.dy)
    assert np.shares_memory(stack.dx, trace) and np.shares_memory(stack.dy, trace)
    assert np.array_equal(trace[:, [0, 2]], before[:, [0, 2]])
    assert not trace[:, :, -1].any()  # the spare row, the sink of lost quanta, is left empty


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from((1, 3)), RATES, RATES)
def test_stack_update_equals_each_seed_updated_alone(world_seed, seeds, delta, alpha):
    # every seed's block of one (2, L, H + 1, W) stack, quanta on walls included, updates as
    # a lone field of its own with the same generator; a seed passed None keeps every byte
    rng = np.random.default_rng(world_seed)
    kind = random_kind(rng, max_side=10)
    g = Grid.from_kind(kind)
    h, w = kind.shape
    trace = np.zeros((2, seeds, h + 1, w), dtype=np.int64)
    held = rng.random((2, seeds, h, w)) < rng.choice((0.0, 0.1, 0.5))
    trace[:, :, :-1][held] = rng.integers(-30, 31, size=int(held.sum()))
    stack = DynamicField(g, trace)
    alone = [DynamicField(g) for _ in range(seeds)]
    for i, f in enumerate(alone):
        f.dx[:], f.dy[:] = trace[0, i, :-1], trace[1, i, :-1]
    live = rng.random(seeds) < 0.7
    for step in range(3):
        before = trace.copy()
        stack.decay_and_diffuse(
            delta, alpha, *(np.random.default_rng([world_seed, step, i]) if on else None for i, on in enumerate(live))
        )
        for i, f in enumerate(alone):
            if live[i]:
                f.decay_and_diffuse(delta, alpha, np.random.default_rng([world_seed, step, i]))
                assert np.array_equal(stack.dx[i], f.dx) and np.array_equal(stack.dy[i], f.dy)
            else:
                assert trace[:, i].tobytes() == before[:, i].tobytes()
        assert not trace[:, :, -1].any()  # every sink ends empty
