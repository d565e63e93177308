"""Round orchestration, RNG streams, lifecycle, determinism."""

from __future__ import annotations

import collections
import hashlib
import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from evacsim import cli, engine
from evacsim.decision import SimulationError, choose_destination, choose_exit, crowd_counts
from evacsim.engine import (
    PURPOSE_DESTINATION,
    PURPOSE_EXIT,
    PURPOSE_MOVEMENT,
    derive_stream,
    init_state,
    run_round,
    run_simulation,
    stream_words,
)
from evacsim.movement import RoundExecution, execute_round
from evacsim.scenario import DEFAULT_PROFILE, FLOOR, AgentProfile, Grid, ScenarioSpec, SimConfig, Spawn, parse_scenario
from evacsim.static_field import compute_static_field

from helpers import (
    chebyshev, dest_table, numpy_stream, open_room_rows, random_kind, reference_execute_round, rows_to_text,
    step_coords,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def load(name: str):
    return parse_scenario((SCENARIOS / f"{name}.txt").read_text())


# ---------------------------------------------------------------- streams

def test_derive_stream_is_deterministic():
    words = stream_words([42], 3, 1)[0, 0, PURPOSE_EXIT]
    a = derive_stream(words).random(8)
    b = derive_stream(words).random(8)
    assert np.array_equal(a, b)
    # the key's fixed 0 slot keeps the streams that the pinned digests rest on
    key = np.random.default_rng(np.random.SeedSequence([42, 3, 0, PURPOSE_EXIT])).random(8)
    assert np.array_equal(a, key)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("round_idx", [0, 5, 2**32 + 1])
def test_derive_stream_equals_numpy_stream_of_the_int_key(seed, round_idx):
    # the key is handed to numpy as 32-bit words; a value of 2**32 or more takes two or more of them
    for purpose in (PURPOSE_EXIT, PURPOSE_MOVEMENT):
        expected = np.random.default_rng(np.random.SeedSequence([seed, round_idx, 0, purpose]))
        drawn = derive_stream(stream_words([seed], round_idx, 1)[0, 0, purpose])
        assert np.array_equal(drawn.random(6), expected.random(6))
        assert drawn.bit_generator.state == expected.bit_generator.state


def assert_numpy_words(words, seeds, first_round, rounds):
    assert words.shape == (rounds, len(seeds), 4, 4) and words.dtype == np.uint64
    for r, by_seed in enumerate(words):
        for seed, by_purpose in zip(seeds, by_seed):
            for purpose, got in enumerate(by_purpose):
                expected = np.random.SeedSequence([seed, first_round + r, 0, purpose]).generate_state(4, np.uint64)
                assert np.array_equal(got, expected), (seed, first_round + r, purpose)


def test_stream_words_equal_numpy_seed_sequence_words():
    # one call whose seed keys take 1, 2 and 3 words, over a block whose round crosses from 1 to 2 words
    seeds = [0, 2**32 - 1, 2**32, 2**64 + 5]
    assert_numpy_words(stream_words(seeds, 2**32 - 2, 4), seeds, 2**32 - 2, 4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**70 - 1), min_size=1, max_size=4), st.integers(0, 2**40 - 1), st.integers(1, 3))
def test_stream_words_equal_numpy_words_of_any_key(seeds, first_round, rounds):
    assert_numpy_words(stream_words(seeds, first_round, rounds), seeds, first_round, rounds)


def test_derive_stream_separates_arguments():
    base = numpy_stream(42, 3, PURPOSE_EXIT).integers(0, 2**63, 4)
    for args in ((43, 3, PURPOSE_EXIT), (42, 4, PURPOSE_EXIT), (42, 3, PURPOSE_DESTINATION)):
        other = numpy_stream(*args).integers(0, 2**63, 4)
        assert not np.array_equal(base, other)


def test_stream_equidistribution_smoke():
    draws = numpy_stream(12345, 0, 0).random(1_000_000)
    n = len(draws)
    mean_sigma = math.sqrt(1 / 12 / n)
    assert abs(draws.mean() - 0.5) <= 5 * mean_sigma
    var_sigma = math.sqrt((1 / 80 - 1 / 144) / n)
    assert abs(draws.var() - 1 / 12) <= 5 * var_sigma


# ---------------------------------------------------------------- lifecycle

def test_corridor_evacuates_in_ten_rounds():
    spec = load("corridor")
    for seed in (0, 1, 17):
        result = run_simulation(spec, SimConfig(seed=seed))
        assert result.evacuation_rounds == 10
        assert result.evacuation_seconds == 10.0
        assert result.exit_rounds == {0: 10}
        assert result.alive_counts == [1] * 10 + [0]


def test_corridor_round_displacements_near_v_max():
    spec = load("corridor")
    result = run_simulation(spec, SimConfig(seed=4))
    pos = {r: (x, y) for r, aid, x, y in result.trajectory}
    for r in range(1, 11):
        (x0, y0), (x1, y1) = pos[r - 1], pos[r]
        assert math.dist((x0, y0), (x1, y1)) >= 3 - 1  # v_max - 1
    assert pos[10] == (31, 1)


def test_zero_agents_evacuate_instantly():
    spec = parse_scenario(rows_to_text(open_room_rows(6, 5, exits=[(5, 2)])))
    result = run_simulation(spec, SimConfig(seed=0))
    assert result.evacuation_rounds == 0
    assert result.agents_total == 0
    assert np.array_equal(result.trajectory, np.empty((0, 4), dtype=np.int64))


def test_same_seed_reproduces_run_exactly():
    spec = load("room")
    r1 = run_simulation(spec, SimConfig(seed=3))
    r2 = run_simulation(spec, SimConfig(seed=3))
    assert np.array_equal(r1.trajectory, r2.trajectory)
    assert np.array_equal(r1.step_log, r2.step_log)
    assert r1.evacuation_rounds == r2.evacuation_rounds


def test_different_seeds_diverge():
    spec = load("room")
    r1 = run_simulation(spec, SimConfig(seed=0))
    r2 = run_simulation(spec, SimConfig(seed=1))
    assert not np.array_equal(r1.trajectory, r2.trajectory)


def test_max_rounds_caps_run_without_error():
    spec = load("room")
    result = run_simulation(spec, SimConfig(seed=0, max_rounds=2))
    assert result.evacuation_rounds is None
    assert result.evacuation_seconds is None
    assert max(r for r, *_ in result.trajectory) == 2


def test_alive_counts_monotone_and_trajectory_contiguous():
    spec = load("room")
    result = run_simulation(spec, SimConfig(seed=7))
    # everyone left, so the final agent table is empty, but the total still counts the spawns
    assert result.evacuation_rounds is not None
    assert result.agents_total == result.alive_counts[0] == len(spec.spawns)
    for earlier, later in zip(result.alive_counts, result.alive_counts[1:]):
        assert later <= earlier
    rounds_by_agent: dict[int, list[int]] = {}
    for r, aid, _x, _y in result.trajectory:
        rounds_by_agent.setdefault(aid, []).append(r)
    for aid, rounds in rounds_by_agent.items():
        assert rounds == list(range(len(rounds)))
        if aid in result.exit_rounds:
            assert rounds[-1] == result.exit_rounds[aid]


def test_round_boundary_exclusion_in_trajectory():
    spec = load("room")
    result = run_simulation(spec, SimConfig(seed=11))
    by_round: dict[int, list[tuple[int, int]]] = {}
    for r, _aid, x, y in result.trajectory:
        by_round.setdefault(r, []).append((x, y))
    for r, cells in by_round.items():
        assert len(set(cells)) == len(cells), f"overlap in round {r}"


def test_round_records_each_net_move_at_its_start_cell():
    # without decay and diffusion the trace after one round is exactly the
    # sum of the agents' net moves, each at its round-start cell
    state = init_state(load("room"), SimConfig(seed=3, delta=0.0, alpha=0.0))
    (run,) = state.runs
    run_round(state)
    (dx,), (dy,) = state.dyn_field.dx, state.dyn_field.dy
    expected_dx = np.zeros_like(dx)
    expected_dy = np.zeros_like(dy)
    # rounds 0 and 1 record the same agents in the same order, departures included
    for (sx, sy), (x, y) in zip(run.positions[0][:, 1:].tolist(), run.positions[1][:, 1:].tolist()):
        expected_dx[sy, sx] = x - sx
        expected_dy[sy, sx] = y - sy
    assert expected_dx.any() or expected_dy.any()
    assert np.array_equal(dx, expected_dx)
    assert np.array_equal(dy, expected_dy)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.floats(-3.0, 3.0), st.integers(0, 2**16))
def test_whole_runs_keep_exclusion_and_conserve_the_trace(world_seed, v_max, k_d, seed):
    # without decay and diffusion every recorded quantum stays where it was
    # put, so the field sums to the agents' summed net displacements
    rng = np.random.default_rng(world_seed)
    grid = Grid.from_kind(random_kind(rng, max_side=9))
    reach = np.isfinite(compute_static_field(grid).min(axis=0))
    floors = [(int(x), int(y)) for y, x in np.argwhere((grid.kind == FLOOR) & reach)]
    picks = rng.choice(len(floors), size=int(rng.integers(0, len(floors) + 1)), replace=False)
    spawns = tuple(Spawn(*floors[i], str(rng.choice(["default", "p"]))) for i in sorted(picks))
    profiles = {"default": DEFAULT_PROFILE, "p": AgentProfile(v_max=v_max, k_d=k_d)}
    spec = ScenarioSpec(grid=grid, profiles=profiles, spawns=spawns)

    states = []

    def keep_state(*args):
        states.append(init_state(*args))
        return states[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "init_state", keep_state)
        result = run_simulation(spec, SimConfig(delta=0.0, alpha=0.0, max_rounds=25, seed=seed))

    by_round: dict[int, list[tuple[int, int]]] = {}
    last: dict[int, tuple[int, int]] = {}
    moved_x = moved_y = 0
    for r, aid, x, y in result.trajectory:
        by_round.setdefault(r, []).append((x, y))
        if aid in last:
            moved_x += x - last[aid][0]
            moved_y += y - last[aid][1]
        last[aid] = (x, y)
    for r, cells in by_round.items():
        assert len(set(cells)) == len(cells), f"overlap in round {r}"
    trace_x, trace_y = states[0].dyn_field.trace
    assert (int(trace_x.sum()), int(trace_y.sum())) == (moved_x, moved_y)


def test_density_counts_every_logged_position():
    # the heatmap counts the trajectory's cells, scaled so the most visited cell reads 255
    result = run_simulation(load("room"), SimConfig(seed=2))
    visits = collections.Counter(map(tuple, result.trajectory[:, 2:].tolist()))
    assert sum(visits.values()) == len(result.trajectory)
    peak = max(visits.values())
    width, height = result.grid.width, result.grid.height
    rows = [" ".join(str(visits[x, y] * 255 // peak) for x in range(width)) + "\n" for y in range(height)]
    assert cli.heatmap_bytes(result) == f"P2\n{width} {height}\n255\n" + "".join(rows)


def test_occupancy_mirrors_alive_agents_after_each_round():
    spec = load("room")
    state = init_state(spec, SimConfig(seed=5))
    for _ in range(6):
        if not len(state.agents):
            break
        run_round(state)
        expected = np.zeros_like(state.occupancy)
        for x, y in state.agents["pos"].tolist():
            expected[0, y, x] = True
        assert np.array_equal(state.occupancy, expected)
        assert np.array_equal(state.counts, crowd_counts(state.occupancy))


def test_agent_table_rows_hold_their_spawns_profiles():
    # default `a` cells mixed with `agent` lines of two named profiles, one limited by an
    # exits= list, the other given exits=all
    rows = [
        "WWWWWWWWW",
        "W.a.....W",
        "W.......E",
        "W...a...W",
        "W.......W",
        "W.......W",
        "WWWWEWWWW",
    ]
    spec = parse_scenario(rows_to_text(rows, [
        "profile slow v_max=2 k_S=1.5 k_D=-0.25 k_I=0.5 k_W=1.0 k_P=0.75 k_E=2.0 exits=1",
        "profile fast v_max=4 k_S=3.0 k_E=0.5 exits=all",
        "agent 1 1 slow",
        "agent 6 4 fast",
        "agent 3 5 slow",
    ]))
    agents = init_state(spec, SimConfig()).agents
    assert sorted(s.profile for s in spec.spawns) == ["default", "default", "fast", "slow", "slow"]
    assert len(agents) == len(spec.spawns)
    masks = {"default": [True, True], "slow": [False, True], "fast": [True, True]}
    for i, (row, spawn) in enumerate(zip(agents, spec.spawns)):
        p = spec.profiles[spawn.profile]
        assert row.id == i
        assert row.pos.tolist() == [spawn.x, spawn.y]
        assert row.v_max == p.v_max
        assert row.k.tolist() == [p.k_s, p.k_d, p.k_i, p.k_w, p.k_p]
        assert row.k_e == p.k_e
        assert row.allowed.tolist() == masks[spawn.profile]
        assert row.chosen_exit == -1
        assert row.last_disp.tolist() == [0, 0]
    slow = agents[[s.profile == "slow" for s in spec.spawns]]
    assert slow["v_max"].tolist() == [2, 2]
    assert slow["k"].tolist() == [[1.5, -0.25, 0.5, 1.0, 0.75]] * 2
    assert slow["k_e"].tolist() == [2.0, 2.0]


def test_sealed_spawn_rejected_at_init(tmp_path, capsys):
    text = "WWWWW\nWaW.E\nWWWWW\n"
    message = "agent 0 at (1, 1) cannot reach any of its allowed exits"
    with pytest.raises(SimulationError) as err:
        init_state(parse_scenario(text), SimConfig(seed=0))
    assert str(err.value) == message
    sealed = tmp_path / "sealed.txt"
    sealed.write_text(text)
    assert cli.main(["--scenario", str(sealed), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sealed.txt"]


def test_destination_choice_rejects_rows_without_a_chosen_exit():
    # init_state leaves every chosen exit at -1; run_round stores the round's exits first
    state = init_state(load("room"), SimConfig(seed=0))
    u = np.full(len(state.agents), 0.5)
    with pytest.raises(SimulationError) as err:
        choose_destination(state.agents, state, u)
    assert str(err.value) == "agent 0 has no chosen exit"
    state.agents["chosen_exit"] = 0
    state.agents["chosen_exit"][[5, 7]] = -1
    with pytest.raises(SimulationError) as err:
        choose_destination(state.agents, state, u)
    assert str(err.value) == "agent 5 has no chosen exit"


def test_chosen_exit_stays_in_allowed_set():
    spec = load("room")
    state = init_state(spec, SimConfig(seed=9))
    for _ in range(8):
        if not len(state.agents):
            break
        run_round(state)
        for aid, e in zip(state.agents["id"].tolist(), state.agents["chosen_exit"].tolist()):
            assert e in (spec.profiles[spec.spawns[aid].profile].allowed_exits or range(state.grid.n_exits))


# ------------------------------------------------------- statistical behavior

def test_zero_coupling_agent_performs_lazy_uniform_walk():
    rows = open_room_rows(17, 17, exits=[(0, 8)])
    text = rows_to_text(rows, ["profile default v_max=1 k_S=0", "agent 8 8 default"])
    spec = parse_scenario(text)
    state = init_state(spec, SimConfig(seed=1234, max_rounds=10**9))
    spawned = state.agents.copy()
    tally: dict[tuple[int, int], int] = {}
    n = 4000
    for _ in range(n):
        state.agents = spawned.copy()
        state.occupancy[:] = False
        state.occupancy[0, 8, 8] = True
        state.counts = crowd_counts(state.occupancy)
        run_round(state)
        d = tuple((state.agents[0].pos - 8).tolist())
        tally[d] = tally.get(d, 0) + 1
    assert set(tally) <= {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    observed = [tally.get(d, 0) for d in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))]
    res = stats.chisquare(observed)
    assert res.pvalue > 0.001


# ------------------------------------------------------ draws and invariants

def capture_draws(monkeypatch, state) -> dict[str, dict]:
    """Run one round; return each agent's exit and destination uniform and its chosen exit, by id."""
    draws: dict[str, dict[int, float]] = {"exit": {}, "dest": {}}

    def spy(key, kernel):
        def wrapped(agents, where, u):
            draws[key].update(zip(agents["id"].tolist(), u.tolist()))
            return kernel(agents, where, u)
        return wrapped

    monkeypatch.setattr(engine, "choose_exit", spy("exit", engine.choose_exit))
    monkeypatch.setattr(engine, "choose_destination", spy("dest", engine.choose_destination))
    run_round(state)
    monkeypatch.undo()
    draws["chosen"] = dict(zip(state.agents["id"].tolist(), state.agents["chosen_exit"].tolist()))
    return draws


def test_removing_an_agent_keeps_the_others_draws(monkeypatch):
    spec = load("room")
    full = init_state(spec, SimConfig(seed=21))
    less = init_state(spec, SimConfig(seed=21))
    gone = 4
    x, y = less.agents["pos"][gone]
    less.agents = less.agents[less.agents["id"] != gone]
    less.occupancy[0, y, x] = False
    less.counts = crowd_counts(less.occupancy)
    a = capture_draws(monkeypatch, full)
    b = capture_draws(monkeypatch, less)
    assert set(b["exit"]) == set(a["exit"]) - {gone}
    for key in ("exit", "dest"):
        assert b[key] == {aid: u for aid, u in a[key].items() if aid != gone}
    assert {aid: e for aid, e in b["chosen"].items() if aid != gone} == {
        aid: e for aid, e in a["chosen"].items() if aid != gone
    }


def test_exit_and_destination_choice_ignore_the_order_of_the_agent_list():
    state = init_state(load("room"), SimConfig(seed=3))
    for _ in range(2):
        run_round(state)
    alive = state.agents
    assert len(set(alive["v_max"].tolist())) > 1
    u_exit, u_dest = np.random.default_rng(0).random((2, state.alive_counts[0]))

    def choose(agents):
        # each call gets its own copy of the rows, so the persistence bonus reads the exit held before it
        ids = agents["id"]
        agents["chosen_exit"] = exits = choose_exit(agents, state.exit_dist, u_exit[ids])
        cells = choose_destination(agents, state, u_dest[ids])
        return dict(zip(ids.tolist(), zip(exits.tolist(), map(tuple, cells.tolist()))))

    expected = choose(alive.copy())
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert choose(alive[rng.permutation(len(alive))]) == expected


def test_movement_ignores_the_order_of_the_agent_list():
    # step tokens are laid out by agent id before the shuffle, so permuted rows
    # move every agent the same way; the id-keyed reference agrees
    state = init_state(load("room"), SimConfig(seed=3))
    for _ in range(2):
        run_round(state)
    alive = state.agents.copy()
    ids = alive["id"]
    n = state.alive_counts[0]
    alive["chosen_exit"] = choose_exit(alive, state.exit_dist, numpy_stream(3, 2, PURPOSE_EXIT).random(n)[ids])
    cells = choose_destination(alive, state, numpy_stream(3, 2, PURPOSE_DESTINATION).random(n)[ids])
    destinations = dict(zip(ids.tolist(), map(tuple, cells.tolist())))
    starts = dict(zip(ids.tolist(), map(tuple, alive["pos"].tolist())))
    assert sum(chebyshev(starts[aid], cell) for aid, cell in destinations.items()) > len(alive)

    def move(agents, execute):
        twins = agents.copy()
        steps = execute(twins, destinations, state.grid, numpy_stream(3, 2, PURPOSE_MOVEMENT))
        return dict(zip(twins["id"].tolist(), map(tuple, twins["pos"].tolist()))), steps

    def flat(agents, destinations, grid, rng):
        moved = execute_round(agents, dest_table(destinations), grid, rng)
        agents["pos"] = moved.end
        return list(map(tuple, step_coords(moved.steps, grid.width).tolist()))

    expected = move(alive, reference_execute_round)
    assert move(alive, flat) == expected
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert move(alive[rng.permutation(len(alive))], flat) == expected


def test_agent_table_holds_the_room_in_ascending_id_order():
    # the trajectory lists each round's agents in table order, so its bytes rest on this order
    for seed in range(3):
        state = init_state(load("room"), SimConfig(seed=seed))
        (run,) = state.runs
        spawned = state.agents
        assert not np.shares_memory(run.positions[0], spawned)
        while len(state.agents) and state.t < state.config.max_rounds:
            table = state.agents
            run_round(state)
            ids = state.agents["id"].tolist()
            assert all(a < b for a, b in zip(ids, ids[1:]))
            assert ids == [i for i in range(len(spawned)) if i not in run.exit_rounds]
            # a record that viewed a replaced table would keep it alive for the rest of the run
            for record in (run.positions[-1], run.steps[-1]):
                assert not np.shares_memory(record, table)
                assert not np.shares_memory(record, state.agents)


def test_lockstep_seeds_keep_records_of_their_own_rounds():
    # under the cap some seeds evacuate, each in its own round, and the others run to the cap
    state = init_state(load("room"), SimConfig(seed=40, max_rounds=18), seeds=12)
    spawned = state.agents
    for run in state.runs:
        assert not np.shares_memory(run.positions[0], spawned)
    while len(state.agents) and state.t < state.config.max_rounds:
        table = state.agents
        new = [len(run.positions) for run in state.runs]
        run_round(state)
        for run, k in zip(state.runs, new):
            for record in run.positions[k:] + run.steps[k - 1 :]:
                assert not np.shares_memory(record, table)
                assert not np.shares_memory(record, state.agents)
    evacuated = [len(run.alive_counts) for run in state.runs if not run.alive_counts[-1]]
    assert len(set(evacuated)) > 1 and len(evacuated) < len(state.runs)
    for run in state.runs:
        rows = [run.alive_counts[0], *run.alive_counts[:-1]]  # a round's rows are those alive at its start
        assert [len(p) for p in run.positions] == rows
        assert len(run.steps) == len(rows) - 1


def test_results_compare_by_identity_and_print_without_their_records():
    # the records are lists of arrays, which a generated __eq__ would compare element-wise and fail on
    first, second = (run_simulation(load("room"), SimConfig(seed=1)) for _ in range(2))
    assert (first == second) is False and first == first
    assert first.trajectory.tobytes() == second.trajectory.tobytes()
    text = repr(first)
    assert "positions=" not in text and "steps=[" not in text and text.startswith("SimResult(seed=1, ")


def test_two_agents_on_one_cell_raise_simulation_error(monkeypatch):
    spec = load("room")
    state = init_state(spec, SimConfig(seed=0))
    pos = state.agents["pos"]
    state.occupancy[0, pos[1, 1], pos[1, 0]] = False
    pos[1] = pos[0]
    state.counts = crowd_counts(state.occupancy)
    def stay(agents, destinations, grid, rng):
        return RoundExecution(np.empty((0, 3), dtype=np.int64), np.array(agents["pos"]))

    monkeypatch.setattr(engine, "execute_round", stay)
    with pytest.raises(SimulationError, match="two agents"):
        run_round(state)


# Trajectory and step-log digests of the shipped scenarios. A change that
# keeps the random streams must keep them; a deliberate change of streams or
# of the rules updates them.
GOLDEN_DIGESTS = {
    ("corridor", 0): "2245502a9e8792db765efc43f2b9f85658765dba29bb73a0714cb25c795223a1",
    ("corridor", 1): "2245502a9e8792db765efc43f2b9f85658765dba29bb73a0714cb25c795223a1",
    ("two_exits", 0): "783a8e82b878baad5ecbcc4b202d8895364713c06ef6f067d8efc24d61d5b542",
    ("two_exits", 1): "783a8e82b878baad5ecbcc4b202d8895364713c06ef6f067d8efc24d61d5b542",
    ("room", 0): "3fd3eb8542d257f48a5546c6412a7f0e7b02a54346063801d0f5bf9437b0135e",
    ("room", 1): "c7023ba39561589ca9803c217f45ae21903f3393cde8a31c83673e7c37f13960",
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_DIGESTS))
def test_golden_digest(name, seed):
    result = run_simulation(load(name), SimConfig(seed=seed))
    h = hashlib.sha256()
    h.update(np.asarray(result.trajectory, dtype=np.int64).tobytes())
    h.update(np.asarray(result.step_log, dtype=np.int64).tobytes())
    assert h.hexdigest() == GOLDEN_DIGESTS[(name, seed)]


def test_dense_crowd_golden_digest():
    """Two rounds of the benchmark's 4177-agent crowd room, where blocking and
    step ties are frequent; the shipped scenarios run at most 11 agents."""
    module_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    result = run_simulation(parse_scenario(workloads.crowd_dense(0)), SimConfig(seed=0, max_rounds=2))
    assert len(result.step_log) == 13330
    h = hashlib.sha256()
    h.update(np.asarray(result.trajectory, dtype=np.int64).tobytes())
    h.update(np.asarray(result.step_log, dtype=np.int64).tobytes())
    assert h.hexdigest() == "a43ada357398583b7b96bacaf56e0a5a6b86c90687e142437d7f512f71b87631"


def test_benchmark_layer_trace_wraps_engine_names(tmp_path, capsys):
    """The benchmark's per-layer trace patches `engine`'s module-level names;
    a rename or a new signature would break `perfbench/run.py --trace 1`.
    A batch computes the floor fields once, for all its seeds."""
    module_spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(layertrace)
    spec = load("room")
    names = dict(vars(engine))
    with layertrace.installed(layertrace.LayerTrace()) as trace:
        result = engine.run_simulation(spec, SimConfig(seed=0))
    assert dict(vars(engine)) == names
    rounds = len(result.alive_counts) - 1
    assert rounds > 0
    counts = trace.counts
    assert counts["static_field.calls"] == 2  # one exit stack, one wall field
    assert counts["decision.calls"] == 2 * rounds
    assert counts["engine.streams"] == 4 * rounds
    # the movement hook reads each agent row's `pos` and `id` from execute_round's first argument
    assert (counts["movement.tokens"], counts["movement.steps"]) == (157, 153)
    assert (counts["decision.calls"], counts["engine.streams"]) == (40, 80)

    with layertrace.installed(layertrace.LayerTrace()) as trace:
        argv = ["--scenario", str(SCENARIOS / "room.txt"), "--seeds", "2", "--out", str(tmp_path), "--emit", "summary"]
        assert cli.main(argv) == 0
    assert trace.counts["static_field.calls"] == 2
    assert capsys.readouterr().out.count("seed=") == 2
