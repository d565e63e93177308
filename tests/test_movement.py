"""Step interleaving, greedy steps, trail blocking."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evacsim.movement import (
    build_step_sequence,
    execute_round,
    execute_step,
    step_moves,
)
from evacsim.scenario import FLOOR, Grid

from helpers import chebyshev, kind_from_rows, make_agent, neighborhood, random_kind, reference_execute_round


def open_grid(w: int, h: int) -> Grid:
    return Grid.from_kind(np.full((h, w), FLOOR, dtype=np.int8))


def step(grid: Grid, pos, dest, blocked: bytearray, rng, start):
    """`execute_step` from (x, y) cells, with its precomputed arguments built here."""
    (x, y), (tx, ty), (sx, sy) = pos, dest, start
    at = y * grid.width + x
    goal = (tx, ty, sx, sy, (tx - sx) ** 2 + (ty - sy) ** 2)
    return execute_step(x, y, at, goal, step_moves(grid.width)[grid.steps[y, x]], blocked, rng)


def test_chebyshev():
    assert chebyshev((0, 0), (3, 0)) == 3
    assert chebyshev((1, 1), (4, 3)) == 3
    assert chebyshev((2, 2), (2, 2)) == 0


def test_token_multiplicities():
    a = make_agent(0, (0, 0))
    b = make_agent(1, (5, 5))
    dests = {0: (3, 0), 1: (5, 5)}
    seq = build_step_sequence([a, b], dests, np.random.default_rng(0))
    assert list(seq).count(0) == 3
    assert list(seq).count(1) == 0
    assert len(seq) == 3


def test_interleavings_are_uniform():
    # tokens form the multiset {A, A, B}; its 3 distinct orders should each
    # appear 1/3 of the time
    a = make_agent(0, (0, 0))
    b = make_agent(1, (5, 5))
    dests = {0: (2, 0), 1: (6, 5)}
    n = 100_000
    rng = np.random.default_rng(314)
    tallies = {(0, 0, 1): 0, (0, 1, 0): 0, (1, 0, 0): 0}
    for _ in range(n):
        seq = tuple(int(v) for v in build_step_sequence([a, b], dests, rng))
        tallies[seq] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / n)
    for count in tallies.values():
        assert abs(count / n - 1 / 3) <= 3 * sigma


def test_step_moves_to_unique_minimizer():
    g = open_grid(6, 6)
    blocked = bytearray(36)
    blocked[0] = 1
    new = step(g, (0, 0), (3, 0), blocked, np.random.default_rng(0), (0, 0))
    assert new == (1, 0)
    assert blocked[1]


def test_step_tie_is_uniform():
    g = open_grid(6, 6)
    n = 20_000
    rng = np.random.default_rng(99)
    picks = {(1, 0): 0, (0, 1): 0}
    for _ in range(n):
        blocked = bytearray(36)
        blocked[0] = 1
        blocked[1 * 6 + 1] = 1  # the direct diagonal
        new = step(g, (0, 0), (2, 2), blocked, rng, (0, 0))
        picks[new] += 1
    assert set(picks) == {(1, 0), (0, 1)}
    sigma = math.sqrt(0.25 / n)
    assert abs(picks[(1, 0)] / n - 0.5) <= 5 * sigma


def test_step_requires_strict_improvement():
    g = open_grid(6, 6)
    blocked = bytearray(36)
    # standing on the destination: no neighbor is closer than distance 0
    assert step(g, (2, 2), (2, 2), blocked, np.random.default_rng(0), (2, 2)) is None


def test_step_finished_when_surrounded():
    g = open_grid(5, 5)
    blocked = bytearray(b"\x01" * 25)
    assert step(g, (2, 2), (4, 2), blocked, np.random.default_rng(0), (2, 2)) is None


def test_round_walks_to_destination_on_open_floor():
    g = open_grid(9, 9)
    a = make_agent(0, (1, 1))
    result = execute_round([a], {0: (4, 3)}, g, np.random.default_rng(5))
    assert a.pos == (4, 3)
    assert len(result.steps) == 3


def test_round_with_destination_on_own_cell():
    g = open_grid(9, 9)
    a = make_agent(0, (4, 4))
    result = execute_round([a], {0: (4, 4)}, g, np.random.default_rng(5))
    assert a.pos == (4, 4)
    assert result.steps == []


def test_crossing_agents_one_claims_the_gap():
    # two agents heading through the same middle cell of a narrow corridor:
    # whoever steps first takes it, the other cannot improve and stops
    rows = [
        "WWWWWWW",
        "W.....W",
        "WWWWWWW",
    ]
    g = Grid.from_kind(kind_from_rows(rows))
    for seed in range(40):
        a = make_agent(0, (2, 1))
        b = make_agent(1, (4, 1))
        execute_round([a, b], {0: (4, 1), 1: (2, 1)}, g, np.random.default_rng(seed))
        assert {a.pos, b.pos} in ({(3, 1), (4, 1)}, {(2, 1), (3, 1)})
        moved = int(a.pos != (2, 1)) + int(b.pos != (4, 1))
        assert moved == 1


def test_deflected_steps_stay_inside_destination_radius():
    # a v_max=2 agent aims at offset (2, 0) while the direct cell and the
    # destination itself are held; sidestepping to (3, 1) or (3, 3) and then
    # on to (4, 1) or (4, 3) would strictly approach the destination each
    # step but end at offset (2, 1), length sqrt(5) > 2
    g = open_grid(7, 5)
    for seed in range(20):
        a = make_agent(0, (2, 2), v_max=2)
        blockers = [make_agent(1, (3, 2)), make_agent(2, (4, 2))]
        dests = {0: (4, 2), 1: (3, 2), 2: (4, 2)}
        execute_round([a, *blockers], dests, g, np.random.default_rng(seed))
        assert a.pos in {(3, 1), (3, 3)}
        assert math.dist((2, 2), a.pos) <= 2


def test_steps_strictly_decrease_distance_and_respect_blocking():
    rng = np.random.default_rng(123)
    g = open_grid(12, 12)
    for trial in range(30):
        agents = []
        taken = set()
        while len(agents) < 14:
            p = (int(rng.integers(0, 12)), int(rng.integers(0, 12)))
            if p not in taken:
                taken.add(p)
                agents.append(make_agent(len(agents), p, v_max=3))
        occupied = set(taken)
        dests = {}
        for a in agents:
            options = [
                (int(x), int(y))
                for x, y in neighborhood(a.pos, a.profile.v_max, g)
                if (int(x), int(y)) == a.pos or (int(x), int(y)) not in occupied
            ]
            dests[a.id] = options[int(rng.integers(len(options)))]
        starts = {a.id: a.pos for a in agents}
        result = execute_round(agents, dests, g, np.random.default_rng(1000 + trial))

        # replay: every step's target was unblocked at its time, blocked after
        blocked = set(starts.values())
        for aid, fx, fy, tx, ty in result.steps:
            assert (tx, ty) not in blocked
            blocked.add((tx, ty))
            d_from = math.dist((fx, fy), dests[aid])
            d_to = math.dist((tx, ty), dests[aid])
            assert d_to < d_from

        # step budget: at most Chebyshev(start, dest) steps each, so the net
        # displacement has Chebyshev length <= v_max
        step_counts: dict[int, int] = {}
        for aid, *_ in result.steps:
            step_counts[aid] = step_counts.get(aid, 0) + 1
        for a in agents:
            assert step_counts.get(a.id, 0) <= chebyshev(starts[a.id], dests[a.id])
            assert chebyshev(starts[a.id], a.pos) <= a.profile.v_max
            assert math.dist(starts[a.id], a.pos) <= math.dist(starts[a.id], dests[a.id])

        # end-of-round exclusion
        finals = [a.pos for a in agents]
        assert len(set(finals)) == len(finals)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_round_equals_reference_on_walled_grids(world_seed, move_seed):
    # grids with interior walls and pinched diagonals, crowds up to every
    # floor cell, ids that are not the agents' rows, v_max 1-4
    rng = np.random.default_rng(world_seed)
    g = Grid.from_kind(random_kind(rng))
    floors = [(int(x), int(y)) for y, x in np.argwhere(g.kind == FLOOR)]
    n = int(rng.integers(1, len(floors) + 1))
    cells = [floors[i] for i in rng.choice(len(floors), size=n, replace=False)]
    ids = [int(i) for i in rng.choice(3 * n, size=n, replace=False)]
    v_max = [int(v) for v in rng.integers(1, 5, size=n)]
    taken = set(cells)
    dests = {}
    for aid, p, v in zip(ids, cells, v_max):
        options = [(int(x), int(y)) for x, y in neighborhood(p, v, g)]
        options = [c for c in options if c == p or c not in taken]
        dests[aid] = options[int(rng.integers(len(options)))]
    agents = [make_agent(aid, p, v_max=v) for aid, p, v in zip(ids, cells, v_max)]
    twins = [make_agent(aid, p, v_max=v) for aid, p, v in zip(ids, cells, v_max)]

    flat_rng = np.random.default_rng(move_seed)
    reference_rng = np.random.default_rng(move_seed)
    result = execute_round(agents, dests, g, flat_rng)
    assert result.steps == reference_execute_round(twins, dests, g, reference_rng)
    assert [a.pos for a in agents] == [b.pos for b in twins]
    assert flat_rng.bit_generator.state == reference_rng.bit_generator.state

    held = set(cells)
    for aid, fx, fy, tx, ty in result.steps:
        assert (tx, ty) not in held
        held.add((tx, ty))
        assert math.dist((tx, ty), dests[aid]) < math.dist((fx, fy), dests[aid])
    for a, start in zip(agents, cells):
        dx, dy = a.pos[0] - start[0], a.pos[1] - start[1]
        rx, ry = dests[a.id][0] - start[0], dests[a.id][1] - start[1]
        assert dx * dx + dy * dy <= rx * rx + ry * ry
    finals = [a.pos for a in agents]
    assert len(set(finals)) == len(finals)
