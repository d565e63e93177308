"""Step interleaving, greedy steps, trail blocking."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evacsim import movement
from evacsim.movement import build_step_sequence, execute_round, move_tiers, tier_table
from evacsim.scenario import FLOOR, MAX_V_MAX, Grid

from helpers import (
    chebyshev, dest_table, flat_execute_step, kind_from_rows, make_agent, neighborhood, random_kind,
    reference_execute_round, step_coords, step_moves,
)


def open_grid(w: int, h: int) -> Grid:
    return Grid.from_kind(np.full((h, w), FLOOR, dtype=np.int8))


def first_step(grid: Grid, pos, dest, rng, held=()):
    """The cell of the first step of a lone mover from `pos` toward `dest`, with agents
    that stay put on the `held` cells; None when it takes no step."""
    agents = [make_agent(i, p) for i, p in enumerate([pos, *held])]
    dests = dest_table(dict(enumerate([dest, *held])))
    steps = step_coords(execute_round(agents, dests, grid, rng).steps, grid.width)
    return tuple(steps[0, 3:].tolist()) if len(steps) else None


def test_chebyshev():
    assert chebyshev((0, 0), (3, 0)) == 3
    assert chebyshev((1, 1), (4, 3)) == 3
    assert chebyshev((2, 2), (2, 2)) == 0


def test_token_multiplicities():
    tokens = np.array([chebyshev((0, 0), (3, 0)), chebyshev((5, 5), (5, 5))])
    seq = build_step_sequence(np.array([0, 1]), tokens, np.random.default_rng(0))
    assert list(seq).count(0) == 3
    assert list(seq).count(1) == 0
    assert len(seq) == 3


def test_interleavings_are_uniform():
    # tokens form the multiset {A, A, B}; its 3 distinct orders should each
    # appear 1/3 of the time
    tokens = np.array([chebyshev((0, 0), (2, 0)), chebyshev((5, 5), (6, 5))])
    n = 100_000
    rng = np.random.default_rng(314)
    tallies = {(0, 0, 1): 0, (0, 1, 0): 0, (1, 0, 0): 0}
    for _ in range(n):
        seq = tuple(int(v) for v in build_step_sequence(np.array([0, 1]), tokens, rng))
        tallies[seq] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / n)
    for count in tallies.values():
        assert abs(count / n - 1 / 3) <= 3 * sigma


def test_step_moves_to_unique_minimizer():
    g = open_grid(6, 6)
    assert first_step(g, (0, 0), (3, 0), np.random.default_rng(0)) == (1, 0)


def test_step_tie_is_uniform():
    g = open_grid(6, 6)
    n = 20_000
    rng = np.random.default_rng(99)
    picks = {(1, 0): 0, (0, 1): 0}
    for _ in range(n):
        new = first_step(g, (0, 0), (2, 2), rng, held=[(1, 1)])  # the direct diagonal is held
        picks[new] += 1
    assert set(picks) == {(1, 0), (0, 1)}
    sigma = math.sqrt(0.25 / n)
    assert abs(picks[(1, 0)] / n - 0.5) <= 5 * sigma


def test_step_requires_strict_improvement():
    # standing on the destination: no neighbor is closer than distance 0
    assert all(move_tiers(6, b) == () for b in range(256))
    assert first_step(open_grid(6, 6), (2, 2), (2, 2), np.random.default_rng(0)) is None
    # one cell short: only the destination itself is nearer, a sidestep as near as staying put is no step
    (tier,) = move_tiers(6, (1 << 8) + 255)  # offset (1, 0), every move permitted
    assert tier == (0, ((-1, 0, 0, 0),))


def test_step_finished_when_surrounded():
    g = open_grid(5, 5)
    ring = [(2 + ox, 2 + oy) for ox, oy in ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))]
    assert first_step(g, (2, 2), (4, 2), np.random.default_rng(0), held=ring) is None


def test_round_walks_to_destination_on_open_floor():
    g = open_grid(9, 9)
    a = make_agent(0, (1, 1))
    result = execute_round([a], dest_table({0: (4, 3)}), g, np.random.default_rng(5))
    assert a.pos == (4, 3)
    assert len(result.steps) == 3


def test_round_with_destination_on_own_cell():
    g = open_grid(9, 9)
    a = make_agent(0, (4, 4))
    result = execute_round([a], dest_table({0: (4, 4)}), g, np.random.default_rng(5))
    assert a.pos == (4, 4)
    assert np.array_equal(result.steps, np.empty((0, 3), dtype=np.int64))


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
        execute_round([a, b], dest_table({0: (4, 1), 1: (2, 1)}), g, np.random.default_rng(seed))
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
        dests = dest_table({0: (4, 2), 1: (3, 2), 2: (4, 2)})
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
        result = execute_round(agents, dest_table(dests), g, np.random.default_rng(1000 + trial))
        steps = step_coords(result.steps, g.width).tolist()

        # replay: every step's target was unblocked at its time, blocked after
        blocked = set(starts.values())
        for aid, fx, fy, tx, ty in steps:
            assert (tx, ty) not in blocked
            blocked.add((tx, ty))
            d_from = math.dist((fx, fy), dests[aid])
            d_to = math.dist((tx, ty), dests[aid])
            assert d_to < d_from

        # step budget: at most Chebyshev(start, dest) steps each, so the net
        # displacement has Chebyshev length <= v_max
        step_counts: dict[int, int] = {}
        for aid, *_ in steps:
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
    # floor cell, ids that are not the agents' rows, v_max 1 to MAX_V_MAX;
    # the examples of one width share its tier table
    rng = np.random.default_rng(world_seed)
    g = Grid.from_kind(random_kind(rng))
    floors = [(int(x), int(y)) for y, x in np.argwhere(g.kind == FLOOR)]
    n = int(rng.integers(1, len(floors) + 1))
    cells = [floors[i] for i in rng.choice(len(floors), size=n, replace=False)]
    ids = [int(i) for i in rng.choice(3 * n, size=n, replace=False)]
    v_max = [int(v) for v in rng.integers(1, MAX_V_MAX + 1, size=n)]
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
    result = execute_round(agents, dest_table(dests), g, flat_rng)
    steps = step_coords(result.steps, g.width)
    expected = reference_execute_round(twins, dests, g, reference_rng)
    assert np.array_equal(steps, np.array(expected, dtype=np.int64).reshape(-1, 5))
    assert [a.pos for a in agents] == [b.pos for b in twins]
    assert flat_rng.bit_generator.state == reference_rng.bit_generator.state
    assert np.array_equal(result.start, np.array(cells, dtype=np.int64))
    assert np.array_equal(result.end, np.array([a.pos for a in agents], dtype=np.int64))

    held = set(cells)
    for aid, fx, fy, tx, ty in steps.tolist():
        assert (tx, ty) not in held
        held.add((tx, ty))
        assert math.dist((tx, ty), dests[aid]) < math.dist((fx, fy), dests[aid])
    for a, start in zip(agents, cells):
        dx, dy = a.pos[0] - start[0], a.pos[1] - start[1]
        rx, ry = dests[a.id][0] - start[0], dests[a.id][1] - start[1]
        assert dx * dx + dy * dy <= rx * rx + ry * ry
    finals = [a.pos for a in agents]
    assert len(set(finals)) == len(finals)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 255), st.integers(-MAX_V_MAX, MAX_V_MAX), st.integers(-MAX_V_MAX, MAX_V_MAX),
    st.integers(-MAX_V_MAX, MAX_V_MAX), st.integers(-MAX_V_MAX, MAX_V_MAX), st.integers(0, 255), st.integers(0, 2**16),
)
def test_tiers_choose_as_the_flat_scan(b, ux, uy, ex, ey, held, seed):
    # one step by the tiers of (step byte b, offset (dx, dy)) equals the scan of the cell's
    # `step_moves` it replaced, with the same draws: the start lies at offset (ux, uy) from
    # the destination, the agent at (ex, ey) from the start, inside the radius, and the
    # Moore neighbors of the bits of `held` are blocked
    assume(ex * ex + ey * ey <= ux * ux + uy * uy)
    width = 64
    sx, sy = 30, 30
    tx, ty, x, y = sx - ux, sy - uy, sx + ex, sy + ey
    dx, dy = x - tx, y - ty
    at = y * width + x
    blocked = bytearray(width * width)
    for k, (ox, oy, delta) in enumerate(step_moves(width)[255]):
        blocked[at + delta] = held >> k & 1
    flat_rng, tier_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    goal = (tx, ty, sx, sy, ux * ux + uy * uy)
    expected = flat_execute_step(x, y, at, goal, step_moves(width)[b], bytearray(blocked), flat_rng)

    got = None
    for half, moves in move_tiers(width, ((dy * 2 * width + dx) << 8) + b):
        ok = [m for m in moves if not blocked[at + m[0]] and ux * m[2] + uy * m[3] >= half]
        if ok:
            delta = (ok[int(tier_rng.integers(len(ok)))] if len(ok) > 1 else ok[0])[0]
            got = ((at + delta) % width, (at + delta) // width)
            break
    assert got == expected
    assert flat_rng.bit_generator.state == tier_rng.bit_generator.state


def test_tier_table_stays_bounded(monkeypatch):
    # an irregular grid at the top speed touches many keys of one width; the table
    # never holds more than TIER_KEYS of them, and emptying it changes no step
    g = Grid.from_kind(random_kind(np.random.default_rng(2024), max_side=24))
    floors = [(int(x), int(y)) for y, x in np.argwhere(g.kind == FLOOR)]
    full = movement.TIER_KEYS
    touched = {}
    for cap in (full, 16):
        monkeypatch.setattr(movement, "TIER_KEYS", cap)
        tier_table(g.width)[0].clear()
        rng = np.random.default_rng(7)
        sizes = []
        for trial in range(20):
            cells = [floors[i] for i in rng.choice(len(floors), size=len(floors) // 3, replace=False)]
            dests = {}
            for i, p in enumerate(cells):
                options = [c for c in map(tuple, neighborhood(p, MAX_V_MAX, g).tolist()) if c == p or c not in cells]
                dests[i] = options[int(rng.integers(len(options)))]
            agents = [make_agent(i, p, v_max=MAX_V_MAX) for i, p in enumerate(cells)]
            twins = [make_agent(i, p, v_max=MAX_V_MAX) for i, p in enumerate(cells)]
            result = execute_round(agents, dest_table(dests), g, np.random.default_rng(trial))
            expected = reference_execute_round(twins, dests, g, np.random.default_rng(trial))
            assert np.array_equal(step_coords(result.steps, g.width), np.array(expected, dtype=np.int64).reshape(-1, 5))
            sizes.append(len(tier_table(g.width)[0]))
        assert max(sizes) <= cap
        touched[cap] = sizes
    # the full-size table kept every key, more than the small one could hold
    assert touched[full][-1] > 16
    assert touched[16] != touched[full]
