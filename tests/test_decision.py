"""Exit choice and destination choice: weights, distributions, sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from evacsim import decision
from evacsim.decision import (
    SimulationError,
    choose_destination,
    choose_exit,
    crowd_counts,
    destination_distribution,
    exit_weights,
)
from evacsim.dynamic_field import DynamicField
from evacsim.scenario import FLOOR, AgentProfile

from helpers import (
    agent_distribution,
    exit_weight,
    logw_dynamic,
    logw_inertia,
    logw_polite,
    logw_static,
    logw_total,
    logw_wall,
    make_agents,
    make_state,
    neighborhood,
    open_room_rows,
    random_kind,
    reference_crowd_counts,
    reference_destination_distribution,
    reference_exit_weights,
    softmax_from_log,
)

LN2 = math.log(2.0)


def make_agent(grid, pos, *, v_max=1, k_s=0.0, k_d=0.0, k_i=0.0, k_w=0.0, k_p=0.0, k_e=0.0, exits=(0,)):
    """A one-row agent table on `grid`; its record, for the per-cell oracles, is `a[0]`."""
    couplings = dict(k_s=k_s, k_d=k_d, k_i=k_i, k_w=k_w, k_p=k_p, k_e=k_e)
    return make_agents(grid, [pos], profiles=[AgentProfile(v_max=v_max, allowed_exits=tuple(exits), **couplings)])


# a grid for the oracles that read only an agent's own values
OPEN_GRID = make_state(open_room_rows(21, 21, exits=[(0, 10)])).grid


# ---------------------------------------------------------------- exit choice

TWO_EXIT_ROWS = ["WWWWWWWWW", "WE.....EW", "WWWWWWWWW"]  # S=2 left, S=4 right from (3,1)


def test_exit_weights_two_exits():
    state = make_state(TWO_EXIT_ROWS)
    a = make_agent(state.grid, (3, 1), exits=(0, 1))
    w = exit_weights(a, state.exit_dist)[0]
    assert len(w) == 2
    probs = w / w.sum()
    assert math.isclose(probs[0], 0.8, abs_tol=1e-12)
    assert math.isclose(probs[1], 0.2, abs_tol=1e-12)


def test_exit_weights_with_persistence_on_far_exit():
    state = make_state(TWO_EXIT_ROWS)
    a = make_agent(state.grid, (3, 1), k_e=1.0, exits=(0, 1))
    a["chosen_exit"] = 1
    w = exit_weights(a, state.exit_dist)[0]
    probs = w / w.sum()
    assert math.isclose(probs[0], 2 / 3, abs_tol=1e-12)
    assert math.isclose(probs[1], 1 / 3, abs_tol=1e-12)


def test_single_allowed_exit_is_certain():
    state = make_state(TWO_EXIT_ROWS)
    a = make_agent(state.grid, (3, 1), exits=(1,))
    rng = np.random.default_rng(5)
    for held in (-1, 0, 1) * 7:
        a["chosen_exit"] = held
        assert choose_exit(a, state.exit_dist, rng.random(1))[0] == 1


def test_exit_distance_clamped_at_one_cell():
    # standing right on the exit: S=0 must act like S=1, not divide by zero
    rows = ["WWWW", "WE.W", "WWWW"]
    state = make_state(rows)
    a = make_agent(state.grid, (1, 1))
    w = exit_weights(a, state.exit_dist)[0]
    assert w[0] == 1.0


def test_unreachable_exit_gets_zero_weight():
    rows = [
        "WWWWWWW",
        "WE.W.EW",
        "WWWWWWW",
    ]
    state = make_state(rows)
    a = make_agent(state.grid, (2, 1), exits=(0, 1))
    w = exit_weights(a, state.exit_dist)[0]
    assert w[1] == 0.0
    assert w[0] > 0.0


def test_all_exits_unreachable_raises():
    rows = [
        "WWWWWWW",
        "W..W.EW",
        "WWWWWWW",
    ]
    state = make_state(rows)
    a = make_agent(state.grid, (1, 1), exits=(0,))
    with pytest.raises(SimulationError) as err:
        choose_exit(a, state.exit_dist, np.random.default_rng(0).random(1))
    assert str(err.value) == "agent 0 cannot reach any allowed exit from (1, 1)"


def test_choose_exit_frequencies():
    state = make_state(TWO_EXIT_ROWS)
    a = make_agent(state.grid, (3, 1), exits=(0, 1))
    rng = np.random.default_rng(42)
    n = 20_000
    chosen = choose_exit(np.repeat(a, n), state.exit_dist, rng.random(n))
    hits = np.count_nonzero(chosen == 0)
    # binomial 5 sigma around 0.8
    assert abs(hits / n - 0.8) < 5 * math.sqrt(0.8 * 0.2 / n)


# ---------------------------------------------------------------- crowd counts

def test_crowd_counts_single_agent():
    occ = np.zeros((5, 5), dtype=bool)
    occ[2, 2] = True
    counts = crowd_counts(occ)
    assert counts[2, 2] == 0
    neighbors = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)]
    for y, x in neighbors:
        assert counts[y, x] == 1
    assert counts.sum() == 8


def test_crowd_counts_empty():
    assert not crowd_counts(np.zeros((4, 6), dtype=bool)).any()


def test_crowd_counts_full_block():
    occ = np.zeros((5, 5), dtype=bool)
    occ[1:4, 1:4] = True
    counts = crowd_counts(occ)
    assert counts[2, 2] == 8
    assert counts.max() == 8


@st.composite
def occupancies(draw) -> np.ndarray:
    h = draw(st.integers(1, 30))
    w = draw(st.integers(1, 30))
    if draw(st.booleans()):
        return np.ones((h, w), dtype=bool)
    cells = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    return np.array(cells, dtype=bool).reshape(h, w)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(occupancies())
def test_crowd_counts_equal_the_shifted_slice_oracle(occ):
    counts = crowd_counts(occ)
    assert counts.dtype == np.uint8
    assert np.array_equal(counts, reference_crowd_counts(occ))
    assert counts.max() <= 8
    # a stack of grids is counted grid by grid: no count reaches across to the next grid
    stack = np.stack((occ, ~occ, occ[::-1]))
    assert np.array_equal(crowd_counts(stack), [reference_crowd_counts(g) for g in stack])


# ---------------------------------------------------------------- candidates

def test_candidate_cells_open_v2():
    state = make_state(open_room_rows(11, 11, exits=[(0, 5)]))
    a = make_agent(state.grid, (5, 5), v_max=2)
    a["chosen_exit"] = 0
    assert len(agent_distribution(a, state).cells) == 13


def test_candidate_cells_excludes_other_agents_but_not_self():
    state = make_state(open_room_rows(11, 11, exits=[(0, 5)]), others=[(5, 5), (6, 5)])
    a = make_agent(state.grid, (5, 5), v_max=2)
    a["chosen_exit"] = 0
    cells = {(int(x), int(y)) for x, y in agent_distribution(a, state).cells}
    assert (5, 5) in cells
    assert (6, 5) not in cells
    assert len(cells) == 12


def test_boxed_in_agent_keeps_own_cell():
    others = [(4, 4), (5, 4), (6, 4), (4, 5), (6, 5), (4, 6), (5, 6), (6, 6),
              (3, 5), (7, 5), (5, 3), (5, 7)]
    state = make_state(open_room_rows(11, 11, exits=[(0, 5)]), others=others)
    a = make_agent(state.grid, (5, 5), v_max=2)
    a["chosen_exit"] = 0
    cells = {(int(x), int(y)) for x, y in agent_distribution(a, state).cells}
    assert cells == {(5, 5)}


# ---------------------------------------------------------------- log weights

def test_logw_static_values():
    state = make_state(["WWWWW", "WE..W", "WWWWW"])
    sf = state.exit_dist[0]
    assert logw_static(make_agent(state.grid, (2, 1), k_s=0.0)[0], (3, 1), sf) == 0.0
    assert math.isclose(logw_static(make_agent(state.grid, (2, 1), k_s=1.0)[0], (3, 1), sf), -2.0, abs_tol=1e-12)
    # k_S=0.5 at distance 4
    state2 = make_state(["WWWWWWW", "WE....W", "WWWWWWW"])
    sf2 = state2.exit_dist[0]
    assert math.isclose(logw_static(make_agent(state2.grid, (2, 1), k_s=0.5)[0], (5, 1), sf2), -2.0, abs_tol=1e-12)


def test_logw_dynamic_values():
    state = make_state(open_room_rows(9, 9, exits=[(0, 4)]))
    a = make_agent(state.grid, (4, 4), k_d=0.3)[0]
    assert logw_dynamic(a, (5, 4), state.dyn_field) == 0.0  # zero field
    state.dyn_field.record_moves([((5, 4), (7, 3))])  # field at (5,4) becomes (2,-1)
    assert math.isclose(logw_dynamic(a, (5, 4), state.dyn_field), 0.6, abs_tol=1e-12)
    # stepping against a rightward trace of strength 2 is suppressed by -2
    a2 = make_agent(state.grid, (4, 4), k_d=1.0)[0]
    f = DynamicField(state.grid)
    f.record_moves([((3, 4), (5, 4))])
    assert math.isclose(logw_dynamic(a2, (3, 4), f), -2.0, abs_tol=1e-12)


def test_logw_inertia_values():
    a = make_agent(OPEN_GRID, (5, 5), k_i=0.5)[0]
    a.last_disp = (2, 0)
    assert logw_inertia(a, (7, 5)) == 0.0  # straight on
    assert math.isclose(logw_inertia(a, (3, 5)), -2.0, abs_tol=1e-12)  # reversal
    assert math.isclose(
        logw_inertia(a, (5, 7)), -0.5 * 4 * math.sin(math.pi / 4), abs_tol=1e-12
    )  # right-angle turn, = -1.4142135623730951
    a.last_disp = (0, 0)
    assert logw_inertia(a, (7, 5)) == 0.0  # no previous motion, no penalty
    a.last_disp = (2, 0)
    assert logw_inertia(a, (5, 5)) == 0.0  # standing still has no direction


def test_logw_inertia_reflection_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        last = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        off = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        a1 = make_agent(OPEN_GRID, (10, 10), k_i=1.3)[0]
        a1.last_disp = last
        v1 = logw_inertia(a1, (10 + off[0], 10 + off[1]))
        a2 = make_agent(OPEN_GRID, (10, 10), k_i=1.3)[0]
        a2.last_disp = (-last[0], last[1])
        v2 = logw_inertia(a2, (10 - off[0], 10 + off[1]))
        assert math.isclose(v1, v2, rel_tol=0, abs_tol=1e-12)


def test_logw_wall_values():
    state = make_state(open_room_rows(13, 13, exits=[(0, 6)]), w_max=3.0)
    wf = state.wall_dist
    center = (6, 6)  # clamped at w_max
    assert logw_wall(center, wf, 1.0, 3.0) == 0.0
    hugging = (1, 2)  # wall right next door, W=1
    assert math.isclose(logw_wall(hugging, wf, 1.0, 3.0), -2.0, abs_tol=1e-12)
    assert logw_wall(hugging, wf, 0.0, 3.0) == 0.0


def test_logw_polite_values():
    counts = np.zeros((5, 5), dtype=np.int32)
    counts[2, 3] = 3
    assert logw_polite((1, 1), counts, 0.5) == 0.0
    assert math.isclose(logw_polite((3, 2), counts, 0.2), -0.6, abs_tol=1e-12)
    assert logw_polite((3, 2), counts, 0.0) == 0.0


# ------------------------------------------------------------- distributions

def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    logw = rng.normal(size=17) * 50
    base = softmax_from_log(logw)
    for c in (-1000.0, -3.5, 0.0, 7.25, 1e6):
        shifted = softmax_from_log(logw + c)
        assert np.allclose(base, shifted, rtol=0, atol=1e-14)


def test_two_candidate_distribution_is_two_thirds_one_third():
    # dead-end corridor: only the agent's cell (S=2) and the cell ahead (S=1)
    state = make_state(["WWWWW", "WE..W", "WWWWW"])
    a = make_agent(state.grid, (3, 1), v_max=1, k_s=LN2)
    a["chosen_exit"] = 0
    dist = agent_distribution(a, state)
    by_cell = {(int(x), int(y)): p for (x, y), p in zip(dist.cells, dist.probs)}
    assert set(by_cell) == {(2, 1), (3, 1)}
    assert math.isclose(by_cell[(2, 1)], 2 / 3, abs_tol=1e-12)
    assert math.isclose(by_cell[(3, 1)], 1 / 3, abs_tol=1e-12)


def test_single_candidate_probability_one():
    others = [(4, 4), (5, 4), (6, 4), (4, 5), (6, 5), (4, 6), (5, 6), (6, 6),
              (3, 5), (7, 5), (5, 3), (5, 7)]
    state = make_state(open_room_rows(11, 11, exits=[(0, 5)]), others=others)
    a = make_agent(state.grid, (5, 5), v_max=2)
    a["chosen_exit"] = 0
    dist = agent_distribution(a, state)
    assert len(dist.probs) == 1
    assert dist.probs[0] == 1.0
    assert np.array_equal(choose_destination(a, state, np.random.default_rng(0).random(1)), [(5, 5)])


def test_unreachable_candidates_get_zero_probability():
    rows = [
        "WWWWW",
        "WE..W",
        "WWWWW",
        "W...W",
        "WWWWW",
    ]
    state = make_state(rows)
    a = make_agent(state.grid, (2, 1), v_max=2)
    a["chosen_exit"] = 0
    dist = agent_distribution(a, state)
    by_cell = {(int(x), int(y)): p for (x, y), p in zip(dist.cells, dist.probs)}
    assert (2, 3) in by_cell  # inside the disc, but sealed off the exit
    assert by_cell[(2, 3)] == 0.0
    assert math.isclose(dist.probs.sum(), 1.0, abs_tol=1e-12)


def test_normalization_on_random_worlds():
    rng = np.random.default_rng(2024)
    state = make_state(open_room_rows(15, 15, exits=[(0, 7)]))
    for trial in range(300):
        # extreme couplings and a loud trace field must not break normalization
        state.dyn_field.dx[:] = rng.integers(-1000, 1001, state.dyn_field.dx.shape)
        state.dyn_field.dy[:] = rng.integers(-1000, 1001, state.dyn_field.dy.shape)
        a = make_agent(
            state.grid,
            (int(rng.integers(2, 13)), int(rng.integers(2, 13))),
            v_max=int(rng.integers(1, 5)),
            k_s=float(rng.uniform(0, 10)),
            k_d=float(rng.uniform(-50, 50)),
            k_i=float(rng.uniform(0, 10)),
            k_w=float(rng.uniform(0, 10)),
            k_p=float(rng.uniform(0, 10)),
        )
        a["chosen_exit"] = 0
        a["last_disp"] = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        dist = agent_distribution(a, state)
        assert (dist.probs >= 0).all()
        assert abs(dist.probs.sum() - 1.0) <= 1e-12


def test_static_monotonicity():
    state = make_state(open_room_rows(13, 13, exits=[(0, 6)]))
    a = make_agent(state.grid, (6, 6), v_max=2, k_s=0.8)
    a["chosen_exit"] = 0
    dist = agent_distribution(a, state)
    sf = state.exit_dist[0]
    pairs = [
        (sf[int(y), int(x)], p) for (x, y), p in zip(dist.cells, dist.probs)
    ]
    for s1, p1 in pairs:
        for s2, p2 in pairs:
            if s1 < s2 - 1e-12:
                assert p1 > p2


def test_zero_coupling_uniformity_chi_square():
    state = make_state(open_room_rows(17, 17, exits=[(0, 8)]))
    a = make_agent(state.grid, (8, 8), v_max=2)
    a["chosen_exit"] = 0
    dist = agent_distribution(a, state)
    assert len(dist.probs) == 13
    assert np.allclose(dist.probs, 1 / 13, atol=1e-15)
    rng = np.random.default_rng(777)
    n = 20_000
    tally: dict[tuple[int, int], int] = {}
    for c in map(tuple, choose_destination(np.repeat(a, n), state, rng.random(n)).tolist()):
        tally[c] = tally.get(c, 0) + 1
    observed = [tally.get((int(x), int(y)), 0) for x, y in dist.cells]
    res = stats.chisquare(observed)
    assert res.pvalue > 0.001


def test_scalar_and_vector_paths_agree():
    rows = open_room_rows(13, 13, exits=[(0, 6)])
    state = make_state(rows, others=[(7, 7), (5, 6)])
    state.dyn_field.record_moves([((6, 5), (8, 5))] * 3 + [((5, 5), (5, 7))])
    a = make_agent(state.grid, (6, 6), v_max=3, k_s=0.7, k_d=0.25, k_i=0.9, k_w=1.1, k_p=0.4)
    a["chosen_exit"] = 0
    a["last_disp"] = (1, -2)
    dist = agent_distribution(a, state)
    sf = state.exit_dist[0]
    rec = a[0]
    logs = []
    for x, y in dist.cells:
        cell = (int(x), int(y))
        logs.append(
            logw_static(rec, cell, sf)
            + logw_dynamic(rec, cell, state.dyn_field)
            + logw_inertia(rec, cell)
            + logw_wall(cell, state.wall_dist, float(rec.k[3]), state.config.w_max)
            + logw_polite(cell, state.counts, float(rec.k[4]))
        )
    expected = softmax_from_log(np.array(logs))
    assert np.allclose(dist.probs, expected, rtol=0, atol=1e-12)


# ------------------------------------------------------------ batched kernels

# Open on all four sides (edge agents see off-grid disc cells), two interior
# wall bars, one exit cell in each of two opposite corners.
KERNEL_ROWS = [
    "E...........",
    "............",
    "...W........",
    "...W....W...",
    "........W...",
    "............",
    "............",
    "...........E",
]

# pos, v_max, (k_s, k_d, k_i, k_w, k_p, k_e), allowed exits, last exit, last_disp
KERNEL_AGENTS = [
    ((0, 3), 4, (1.3, 0.4, 0.7, 0.5, 0.3, 1.0), (0, 1), 1, (1, -2)),
    ((1, 3), 1, (2.0, 0.1, 0.2, 0.9, 0.6, 0.5), (0,), 0, (0, 0)),
    ((4, 2), 3, (0.8, -0.3, 1.1, 1.2, 0.2, 2.0), (1,), None, (-2, 0)),
    ((11, 4), 2, (1.7, 0.2, 0.4, 0.3, 0.8, 0.7), (0, 1), 0, (0, 1)),
    ((5, 7), 3, (0.5, 0.6, 0.9, 0.4, 0.4, 1.5), (0, 1), None, (3, 0)),
    ((6, 7), 4, (1.1, 0.25, 0.3, 0.7, 0.5, 0.2), (0, 1), 1, (-1, -1)),
    ((9, 3), 2, (0.9, 0.15, 0.6, 1.0, 0.1, 0.0), (1,), 1, (2, 1)),
    ((7, 0), 1, (1.4, 0.35, 0.5, 0.2, 0.9, 0.8), (0, 1), None, (0, 0)),
    ((2, 4), 4, (0.6, 0.05, 1.4, 0.6, 0.7, 1.2), (0, 1), 0, (0, -3)),
]


# The kernel leaves out a term whose coupling is zero on every row of a block.
# Each entry zeroes couplings ({name: value}) on the listed KERNEL_AGENTS.
# Agents 0, 5 and 8 are the whole v_max 4 class, so every block of that class
# has the coupling zero on all rows; agent 0 alone leaves it on in the other
# rows of its block. -0.0 is a zero coupling too.
ZEROED_COUPLINGS = [
    ({}, ()),
    ({"k_d": -0.0}, (0, 5, 8)),
    ({"k_i": 0.0}, (0, 5, 8)),
    ({"k_w": 0.0}, (0, 5, 8)),
    ({"k_p": 0.0}, (0, 5, 8)),
    ({"k_d": -0.0, "k_i": 0.0, "k_w": 0.0, "k_p": 0.0}, (0, 5, 8)),
    ({"k_d": -0.0, "k_p": 0.0}, (0,)),
    ({"k_i": 0.0, "k_w": 0.0}, (0,)),
]


def make_kernel_state(zeroed=None, zeroed_agents=()):
    rng = np.random.default_rng(31)
    cells = [pos for pos, *_ in KERNEL_AGENTS]
    state = make_state(KERNEL_ROWS, w_max=2.5, others=cells)
    profiles = []
    for i, (pos, v_max, (k_s, k_d, k_i, k_w, k_p, k_e), exits, last_exit, last_disp) in enumerate(KERNEL_AGENTS):
        couplings = dict(k_s=k_s, k_d=k_d, k_i=k_i, k_w=k_w, k_p=k_p)
        if i in zeroed_agents:
            couplings.update(zeroed)
        profiles.append(AgentProfile(v_max=v_max, k_e=k_e, allowed_exits=exits, **couplings))
    agents = make_agents(state.grid, cells, profiles=profiles)
    agents["chosen_exit"] = [-1 if e is None else e for *_, e, _ in KERNEL_AGENTS]
    agents["last_disp"] = [u for *_, u in KERNEL_AGENTS]
    state.dyn_field.dx[:] = rng.integers(-4, 5, state.dyn_field.dx.shape)
    state.dyn_field.dy[:] = rng.integers(-4, 5, state.dyn_field.dy.shape)
    return agents, state


def test_exit_kernel_rows_match_oracle():
    agents, state = make_kernel_state()
    w = exit_weights(agents, state.exit_dist)
    assert w.shape == (len(agents), state.grid.n_exits)
    for row, a in zip(w, agents):
        for e in range(state.grid.n_exits):
            assert math.isclose(row[e], exit_weight(a, e, state.exit_dist[e]), rel_tol=0, abs_tol=1e-12)
    chosen = choose_exit(agents, state.exit_dist, np.random.default_rng(8).random(len(agents)))
    for (*_, exits, _, _), e in zip(KERNEL_AGENTS, chosen.tolist()):
        assert e in exits


@pytest.mark.parametrize("block_rows", [2, decision.BLOCK_ROWS])
def test_destination_kernel_rows_match_oracle(monkeypatch, block_rows):
    monkeypatch.setattr(decision, "BLOCK_ROWS", block_rows)
    for zeroed, zeroed_agents in ZEROED_COUPLINGS:
        agents, state = make_kernel_state(zeroed, zeroed_agents)
        agents["chosen_exit"] = choose_exit(agents, state.exit_dist, np.random.default_rng(9).random(len(agents)))
        held = set(map(tuple, agents["pos"].tolist()))
        seen = []
        for block in destination_distribution(agents, state):
            assert len(block.rows) <= block_rows
            for i, r in enumerate(block.rows):
                a = agents[r]
                seen.append(int(r))
                pos = tuple(a.pos.tolist())
                cand = block.candidate[i]
                cells = [(int(x), int(y)) for x, y in block.origin[i] + block.offsets]
                expected = {(int(x), int(y)) for x, y in neighborhood(pos, int(a.v_max), state.grid)}
                expected -= held - {pos}
                assert {c for c, ok in zip(cells, cand) if ok} == expected
                assert np.isneginf(block.logw[i][~cand]).all()
                for c, ok, lw in zip(cells, cand, block.logw[i]):
                    if ok:
                        assert math.isclose(lw, logw_total(a, c, state), rel_tol=0, abs_tol=1e-12), zeroed
                assert abs(block.probs[i].sum() - 1.0) <= 1e-12
        assert sorted(seen) == list(range(len(agents)))


@st.composite
def kernel_worlds(draw):
    """A walled grid with agents of v_max 1-5 in shared profiles, each of them able to
    reach its chosen exit, last displacements beyond the speed disc, allowed-exit
    subsets, and per class a coupling that is zero on all of its profiles."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = random_kind(rng, max_side=14)
    state = make_state(["".join("W.E"[c] for c in row) for row in kind], w_max=float(rng.uniform(0.5, 4.0)))
    n_exits = state.grid.n_exits
    reach = np.isfinite(state.exit_dist)
    floors = [(int(x), int(y)) for y, x in np.argwhere((kind == FLOOR) & reach.any(axis=0))]
    assume(floors)
    profiles = []
    for v in range(1, 6):
        off = {name for name in ("k_d", "k_i", "k_w", "k_p") if rng.random() < 0.3}
        for _ in range(int(rng.integers(1, 3))):
            couplings = {
                "k_s": float(rng.uniform(0, 3)), "k_d": float(rng.uniform(-2, 2)), "k_i": float(rng.uniform(0, 2)),
                "k_w": float(rng.uniform(0, 2)), "k_p": float(rng.uniform(0, 2)), "k_e": float(rng.uniform(0, 2)),
            }
            couplings.update({name: 0.0 for name in off})
            exits = None
            if rng.random() < 0.7:
                exits = tuple(sorted({int(e) for e in rng.integers(0, n_exits, size=int(rng.integers(1, 3)))}))
            profiles.append(AgentProfile(v_max=v, allowed_exits=exits, **couplings))
    n = int(rng.integers(1, len(floors) + 1))
    cells = [floors[i] for i in rng.choice(len(floors), size=n, replace=False)]
    rows = []
    for aid, (x, y) in zip(rng.choice(3 * n, size=n, replace=False).tolist(), cells):
        profile = profiles[int(rng.integers(len(profiles)))]
        usable = [e for e in (profile.allowed_exits or range(n_exits)) if reach[e, y, x]]
        if not usable:
            continue
        chosen = usable[int(rng.integers(len(usable)))]
        span = 2 * profile.v_max + 1
        last_disp = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        rows.append((aid, (x, y), profile, chosen, last_disp))
    assume(rows)
    ids, cells, row_profiles, chosen, last_disp = zip(*rows)
    agents = make_agents(state.grid, cells, ids=ids, profiles=row_profiles)
    agents["chosen_exit"] = chosen
    agents["last_disp"] = last_disp
    for x, y in cells:
        state.occupancy[y, x] = True
    state.counts = crowd_counts(state.occupancy)
    state.dyn_field.dx[:] = rng.integers(-5, 6, state.dyn_field.dx.shape)
    state.dyn_field.dy[:] = rng.integers(-5, 6, state.dyn_field.dy.shape)
    return agents, state


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kernel_worlds(), st.sampled_from([3, decision.BLOCK_ROWS]))
def test_kernels_equal_the_gather_oracle_bit_for_bit(world, block_rows):
    agents, state = world
    assert np.array_equal(exit_weights(agents, state.exit_dist), reference_exit_weights(agents, state.exit_dist))
    unchosen = agents.copy()
    unchosen["chosen_exit"][::2] = -1
    assert np.array_equal(exit_weights(unchosen, state.exit_dist), reference_exit_weights(unchosen, state.exit_dist))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decision, "BLOCK_ROWS", block_rows)
        blocks = list(destination_distribution(agents, state))
        oracle = list(reference_destination_distribution(agents, state))
    assert len(blocks) == len(oracle)
    for block, ref in zip(blocks, oracle):
        assert np.array_equal(block.origin[:, None, :] + block.offsets, ref.cells), "cells"
        for name in ("rows", "candidate", "logw", "probs"):
            assert np.array_equal(getattr(block, name), getattr(ref, name)), name
