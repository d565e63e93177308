"""Scenario parsing, validation, and neighborhood geometry."""

from __future__ import annotations

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacsim.engine import init_state
from evacsim.scenario import (
    DEFAULT_PROFILE,
    EXIT,
    FLOOR,
    MAX_MAGNITUDE,
    MOORE_OFFSETS,
    WALL,
    AgentProfile,
    Grid,
    ParseError,
    ScenarioSpec,
    SimConfig,
    Spawn,
    disc_offsets,
    parse_scenario,
)

from helpers import moore_steps, neighborhood, open_room_rows, random_kind, render_scenario, rows_to_text

ROOT = pathlib.Path(__file__).resolve().parents[1]


def open_grid(width: int, height: int, exits=((1, 0),)) -> Grid:
    kind = np.full((height, width), FLOOR, dtype=np.int8)
    for x, y in exits:
        kind[y, x] = EXIT
    return Grid.from_kind(kind)


# ---------------------------------------------------------------- parsing

def test_parse_minimal_room():
    spec = parse_scenario(rows_to_text(open_room_rows(5, 4, exits=[(4, 1)])))
    assert spec.grid.width == 5 and spec.grid.height == 4
    assert spec.grid.n_exits == 1
    assert spec.spawns == ()
    assert spec.profiles["default"] == AgentProfile()


def test_parse_rejects_all_wall_and_exit_map():
    with pytest.raises(ParseError, match="no floor"):
        parse_scenario("WWW\nWEW\nWWW\n")


def test_exit_allowed_on_boundary():
    spec = parse_scenario("WWWWW\nW...E\nWWWWW\n")
    assert spec.grid.kind[1, 4] == EXIT


def test_two_disconnected_exit_regions_get_ids_0_and_1():
    rows = ["WEWWW", "W...W", "W...W", "WWWEW"]
    spec = parse_scenario(rows_to_text(rows))
    assert spec.grid.n_exits == 2
    assert spec.grid.exit_id[0, 1] == 0  # scan order: top one first
    assert spec.grid.exit_id[3, 3] == 1


def test_moore_connected_exits_share_one_id():
    rows = ["WWEWW", "W..EW", "W...W", "WWWWW"]
    spec = parse_scenario(rows_to_text(rows))
    assert spec.grid.n_exits == 1
    assert spec.grid.exit_id[0, 2] == 0 and spec.grid.exit_id[1, 3] == 0


def test_parse_rejects_ragged_rows():
    with pytest.raises(ParseError, match="ragged"):
        parse_scenario("WWW\nWEWW\nWWW\n")


def test_parse_rejects_unknown_character():
    with pytest.raises(ParseError, match="unknown cell character"):
        parse_scenario("WWW\nWxW\nWWW\n")


def test_parse_rejects_open_boundary():
    with pytest.raises(ParseError, match="open boundary"):
        parse_scenario("WWW\nWE.\nWWW\n")


def test_parse_rejects_missing_exit():
    with pytest.raises(ParseError, match="no exit"):
        parse_scenario("WWW\nW.W\nWWW\n")


def test_comments_and_blank_lines_ignored():
    text = "% a comment\n\nWWWW\nW.EW\nWWWW\n% trailing\n"
    spec = parse_scenario(text)
    assert spec.grid.width == 4


def test_spawn_characters_collected_in_scan_order():
    rows = ["WWWWW", "W.a.W", "Wa..W", "WWWEW"]
    spec = parse_scenario(rows_to_text(rows))
    assert [(s.x, s.y) for s in spec.spawns] == [(2, 1), (1, 2)]
    assert all(s.profile == "default" for s in spec.spawns)


def test_agent_directive_and_profile_override():
    rows = ["WWWWW", "W...W", "W...W", "WWWEW"]
    text = rows_to_text(
        rows,
        [
            "profile runner v_max=5 k_S=2.5 k_E=1.0 exits=all",
            "agent 2 2 runner",
        ],
    )
    spec = parse_scenario(text)
    assert spec.profiles["runner"].v_max == 5
    assert spec.profiles["runner"].k_s == 2.5
    assert spec.profiles["runner"].k_e == 1.0
    assert spec.profiles["runner"].allowed_exits is None
    assert spec.spawns == (Spawn(2, 2, "runner"),)


def test_profile_exit_list_validated():
    rows = ["WWWWW", "W...W", "WWWEW"]
    text = rows_to_text(rows, ["profile p exits=0", "agent 1 1 p"])
    spec = parse_scenario(text)
    assert spec.profiles["p"].allowed_exits == (0,)
    with pytest.raises(ParseError, match="does not exist"):
        parse_scenario(rows_to_text(rows, ["profile p exits=3"]))


def test_parse_rejects_spawn_on_wall_exit_or_outside():
    rows = ["WWWWW", "W...W", "WWWEW"]
    with pytest.raises(ParseError, match="not on a floor"):
        parse_scenario(rows_to_text(rows, ["agent 0 0 default"]))
    with pytest.raises(ParseError, match="not on a floor"):
        parse_scenario(rows_to_text(rows, ["agent 3 2 default"]))
    with pytest.raises(ParseError, match="outside"):
        parse_scenario(rows_to_text(rows, ["agent 9 9 default"]))


def test_parse_rejects_duplicate_spawn():
    rows = ["WWWWW", "Wa..W", "WWWEW"]
    with pytest.raises(ParseError, match="duplicate spawn"):
        parse_scenario(rows_to_text(rows, ["agent 1 1 default"]))


def test_parse_rejects_duplicate_profile():
    rows = ["WWWWW", "W...W", "WWWEW"]
    for name in ("p", "default"):
        text = rows_to_text(rows, [f"profile {name} v_max=2", f"profile {name} v_max=4 k_S=0"])
        with pytest.raises(ParseError, match=f"line 5: duplicate profile '{name}'"):
            parse_scenario(text)
    # a single `profile default` line still replaces the built-in default
    spec = parse_scenario(rows_to_text(rows, ["profile default v_max=4 k_S=0"]))
    assert spec.profiles["default"] == AgentProfile(v_max=4, k_s=0.0)


def test_parse_rejects_unknown_profile_reference():
    rows = ["WWWWW", "W...W", "WWWEW"]
    with pytest.raises(ParseError, match="unknown profile"):
        parse_scenario(rows_to_text(rows, ["agent 1 1 ghost"]))


def test_parse_rejects_grid_row_after_directives():
    text = "WWWWW\nW...W\nWWWEW\nprofile p v_max=2\nWWWWW\n"
    with pytest.raises(ParseError, match="after profile/agent"):
        parse_scenario(text)


def test_parse_rejects_bad_profile_values():
    rows = ["WWWWW", "W...W", "WWWEW"]
    for bad in ("v_max=0", "v_max=2.5", "k_S=-1", "k_S=nan", "k_I=-0.1", "speed=3",
                "k_S=1e308", "k_D=-2e6", "k_D=inf", "k_E=1000001", "v_max=11", "v_max=100000"):
        with pytest.raises(ParseError):
            parse_scenario(rows_to_text(rows, [f"profile p {bad}"]))


def test_negative_k_d_is_allowed():
    rows = ["WWWWW", "W...W", "WWWEW"]
    spec = parse_scenario(rows_to_text(rows, ["profile p k_D=-0.5"]))
    assert spec.profiles["p"].k_d == -0.5
    spec = parse_scenario(rows_to_text(rows, ["profile p k_S=1e6 k_D=-1e6 v_max=10"]))
    assert (spec.profiles["p"].k_s, spec.profiles["p"].k_d, spec.profiles["p"].v_max) == (1e6, -1e6, 10)


def test_round_trip_through_renderer():
    rows = ["WWWWWW", "W.a..W", "W....W", "WWWEWW"]
    text = rows_to_text(
        rows,
        [
            "profile slow v_max=1 k_S=0.5 k_I=0.2 exits=0",
            "agent 3 2 slow",
        ],
    )
    spec = parse_scenario(text)
    assert parse_scenario(render_scenario(spec)) == spec


def test_round_trip_of_bundled_scenarios():
    for name in ("corridor", "two_exits", "room"):
        spec = parse_scenario((ROOT / "scenarios" / f"{name}.txt").read_text())
        assert parse_scenario(render_scenario(spec)) == spec


FINITE = st.floats(min_value=-MAX_MAGNITUDE, max_value=MAX_MAGNITUDE)
NON_NEGATIVE = st.floats(min_value=0.0, max_value=MAX_MAGNITUDE)


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    """Named profiles over the full value ranges, and spawns of any profile on a random closed grid."""
    kind = random_kind(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), max_side=8)
    grid = Grid.from_kind(kind)
    exit_ids = st.lists(st.integers(0, grid.n_exits - 1), min_size=1, unique=True)
    profile = st.builds(
        AgentProfile,
        v_max=st.integers(1, 5),
        k_s=NON_NEGATIVE,
        k_d=FINITE,
        k_i=NON_NEGATIVE,
        k_w=NON_NEGATIVE,
        k_p=NON_NEGATIVE,
        k_e=NON_NEGATIVE,
        allowed_exits=st.none() | exit_ids.map(lambda ids: tuple(sorted(ids))),
    )
    names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=7)
    profiles = {"default": DEFAULT_PROFILE, **draw(st.dictionaries(names, profile, max_size=4))}
    floors = [(int(x), int(y)) for y, x in np.argwhere(kind == FLOOR)]
    cells = draw(st.lists(st.sampled_from(floors), unique=True, max_size=len(floors)))
    spawns = sorted(
        (Spawn(x, y, draw(st.sampled_from(sorted(profiles)))) for x, y in cells), key=lambda s: (s.y, s.x)
    )
    return ScenarioSpec(grid=grid, profiles=profiles, spawns=tuple(spawns))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenario_specs())
def test_render_then_parse_gives_the_spec_back(spec):
    assert parse_scenario(render_scenario(spec)) == spec


def test_readme_scenario_example_parses():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Scenario files", 1)[1].split("```", 2)[1]
    spec = parse_scenario(example)
    assert spec.grid.n_exits == 2
    assert spec.profiles["cautious"].allowed_exits == (0,)
    assert [s.profile for s in spec.spawns] == ["default", "cautious", "cautious"]
    init_state(spec, SimConfig())  # every agent reaches an allowed exit


# ---------------------------------------------------------------- config

def test_sim_config_validation():
    SimConfig()  # defaults fine
    with pytest.raises(ValueError):
        SimConfig(delta=1.5)
    with pytest.raises(ValueError):
        SimConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        SimConfig(w_max=-1)
    with pytest.raises(ValueError):
        SimConfig(w_max=float("inf"))
    with pytest.raises(ValueError):
        SimConfig(w_max=1e308)
    assert SimConfig(w_max=1e6).w_max == 1e6
    with pytest.raises(ValueError):
        SimConfig(max_rounds=0)
    with pytest.raises(ValueError):
        SimConfig(seed=-1)


# ---------------------------------------------------------------- neighborhoods

def test_neighborhood_disc_sizes():
    g = open_grid(21, 21, exits=((1, 0),))
    center = (10, 10)
    assert len(neighborhood(center, 1, g)) == 5
    assert len(neighborhood(center, 2, g)) == 13
    assert len(neighborhood(center, 3, g)) == 29


def test_neighborhood_v2_exact_offsets():
    g = open_grid(11, 11)
    cells = neighborhood((5, 5), 2, g)
    got = {(int(x) - 5, int(y) - 5) for x, y in cells}
    expected = {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                (1, 1), (1, -1), (-1, 1), (-1, -1),
                (2, 0), (-2, 0), (0, 2), (0, -2)}
    assert got == expected


def test_neighborhood_excludes_walls_and_clips_to_grid():
    kind = np.full((5, 5), FLOOR, dtype=np.int8)
    kind[2, 3] = WALL
    kind[0, 1] = EXIT
    g = Grid.from_kind(kind)
    cells = {(int(x), int(y)) for x, y in neighborhood((2, 2), 1, g)}
    assert (3, 2) not in cells
    assert cells == {(2, 2), (1, 2), (2, 1), (2, 3)}
    corner = {(int(x), int(y)) for x, y in neighborhood((0, 0), 1, g)}
    assert corner == {(0, 0), (1, 0), (0, 1)}


def test_neighborhood_symmetry_and_monotonicity():
    g = open_grid(31, 31)
    p = (15, 15)
    for v in (1, 2, 3, 4, 5):
        offs = {(int(x) - p[0], int(y) - p[1]) for x, y in neighborhood(p, v, g)}
        for dx, dy in offs:
            assert (-dx, dy) in offs and (dx, -dy) in offs and (dy, dx) in offs
        bigger = {(int(x) - p[0], int(y) - p[1]) for x, y in neighborhood(p, v + 1, g)}
        assert offs <= bigger


def test_disc_offsets_cached_and_readonly():
    offs = disc_offsets(3)
    assert offs is disc_offsets(3)
    with pytest.raises(ValueError):
        offs[0, 0] = 99


def table_targets(g: Grid, x: int, y: int) -> set[tuple[int, int]]:
    """Step targets out of (x, y) whose bits are set in the grid's step table."""
    bits = int(g.steps[y, x])
    return {(x + dx, y + dy) for k, (dx, dy) in enumerate(MOORE_OFFSETS) if bits >> k & 1}


def pinched_kind() -> np.ndarray:
    # wall pair pinching the diagonal between (1,1) and (2,2)
    kind = np.full((4, 4), FLOOR, dtype=np.int8)
    kind[1, 2] = WALL  # (2,1)
    kind[2, 1] = WALL  # (1,2)
    kind[0, 0] = EXIT
    return kind


def test_moore_steps_corner_rule():
    g = Grid.from_kind(pinched_kind())
    targets = table_targets(g, 1, 1)
    assert (2, 2) not in targets
    # single wall corner keeps the diagonal open
    kind2 = np.full((4, 4), FLOOR, dtype=np.int8)
    kind2[1, 2] = WALL
    kind2[0, 0] = EXIT
    g2 = Grid.from_kind(kind2)
    targets2 = table_targets(g2, 1, 1)
    assert (2, 2) in targets2


def test_step_table_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    kinds = [pinched_kind()] + [random_kind(rng) for _ in range(40)]
    for kind in kinds:
        g = Grid.from_kind(kind)
        assert g.steps.dtype == np.uint8 and g.steps.shape == kind.shape
        assert not g.steps.flags.writeable
        for y in range(g.height):
            for x in range(g.width):
                oracle = {(nx, ny) for nx, ny, _ in moore_steps(g, x, y)}
                assert table_targets(g, x, y) == oracle, (x, y)
