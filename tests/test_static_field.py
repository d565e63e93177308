"""Distance fields: exit geodesics and wall clearance."""

from __future__ import annotations

import importlib.util
import math
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evacsim.scenario import EXIT, FLOOR, WALL, Grid, parse_scenario
from evacsim.static_field import (
    UNREACHABLE,
    compute_static_field,
    compute_wall_distance,
)

from helpers import (
    dijkstra_distances, kind_from_rows, moore_steps, random_kind, reference_relax, relaxation_distances,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]

SQRT2 = math.sqrt(2.0)


def grid_from_rows(rows: list[str]) -> Grid:
    return Grid.from_kind(kind_from_rows(rows))


def test_open_3x3_distances():
    g = grid_from_rows(["E..", "...", "..."])
    dist = compute_static_field(g)[0]
    assert dist[0, 0] == 0.0
    assert math.isclose(dist[2, 2], 2 * SQRT2, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(dist[0, 2], 2.0, rel_tol=0, abs_tol=1e-12)


def test_fields_are_read_only():
    g = grid_from_rows(["E..", ".W.", "..."])
    assert not compute_static_field(g)[0].flags.writeable
    assert not compute_wall_distance(g, 3.0).flags.writeable


def test_walls_are_unreachable_sentinel():
    g = grid_from_rows(["E..", ".W.", "..."])
    dist = compute_static_field(g)[0]
    assert dist[1, 1] == UNREACHABLE


def test_sealed_region_is_unreachable():
    g = grid_from_rows(
        [
            "EWWWW",
            ".W.WW",
            ".WWWW",
            ".....",
        ]
    )
    dist = compute_static_field(g)[0]
    assert dist[1, 2] == UNREACHABLE  # the pocket
    assert np.isfinite(dist[3, 4])


def test_multi_cell_exit_group_all_zero():
    g = grid_from_rows(["EE.", "...", "..."])
    dist = compute_static_field(g)[0]
    assert dist[0, 0] == 0.0 and dist[0, 1] == 0.0
    assert math.isclose(dist[0, 2], 1.0, abs_tol=1e-12)


# frozen from an independent bounded-path-length relaxation oracle:
# 7x7 open room, exit at (0,3), wall segment x=3 for y=1..5
DETOUR_ROWS = [
    ".......",
    "...W...",
    "...W...",
    "E..W...",
    "...W...",
    "...W...",
    ".......",
]
DETOUR_SPOTS = {
    (2, 3): 2.0,
    (3, 0): 3 * SQRT2,
    (3, 6): 3 * SQRT2,
    (6, 0): 3 + 3 * SQRT2,
    (4, 3): 7.656854249492381,
    (6, 3): 6 * SQRT2,
}


def test_detour_matches_frozen_oracle_spots():
    g = grid_from_rows(DETOUR_ROWS)
    dist = compute_static_field(g)[0]
    for (x, y), expected in DETOUR_SPOTS.items():
        assert math.isclose(dist[y, x], expected, rel_tol=0, abs_tol=1e-9), (x, y)


def test_detour_matches_relaxation_oracle_everywhere():
    g = grid_from_rows(DETOUR_ROWS)
    dist = compute_static_field(g)[0]
    oracle = relaxation_distances(g.kind, [(0, 3)])
    assert np.allclose(dist, oracle, rtol=0, atol=1e-9, equal_nan=False)


def test_matches_relaxation_oracle_on_random_grids():
    rng = np.random.default_rng(20240817)
    for _ in range(30):
        kind = random_kind(rng)
        g = Grid.from_kind(kind)
        for eid in range(g.n_exits):
            dist = compute_static_field(g)[eid]
            sources = [(int(x), int(y)) for y, x in np.argwhere(g.exit_id == eid)]
            oracle = relaxation_distances(kind, sources)
            finite = np.isfinite(oracle)
            assert np.array_equal(finite, np.isfinite(dist))
            assert np.allclose(dist[finite], oracle[finite], rtol=0, atol=1e-9)


def test_relaxation_fixpoint_invariant():
    g = grid_from_rows(DETOUR_ROWS)
    dist = compute_static_field(g)[0]
    for y in range(g.height):
        for x in range(g.width):
            d = dist[y, x]
            if not np.isfinite(d) or d == 0.0:
                continue
            best = min(dist[ny, nx] + cost for nx, ny, cost in moore_steps(g, x, y))
            assert math.isclose(d, best, rel_tol=0, abs_tol=1e-9)


def test_triangle_consistency_over_permitted_steps():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = Grid.from_kind(random_kind(rng))
        dist = compute_static_field(g)[0]
        for y in range(g.height):
            for x in range(g.width):
                if not np.isfinite(dist[y, x]):
                    continue
                for nx, ny, _ in moore_steps(g, x, y):
                    if np.isfinite(dist[ny, nx]):
                        assert abs(dist[y, x] - dist[ny, nx]) <= SQRT2 + 1e-9


# ------------------------------------------------------------ wall distance

def test_wall_distance_adjacency_values():
    g = grid_from_rows(
        [
            "WWWWWWW",
            "W.....W",
            "W.....W",
            "W.....W",
            "WEWWWWW",
        ]
    )
    wdist = compute_wall_distance(g, 3.0)
    assert wdist[0, 0] == 0.0
    # (1,1) is orthogonally adjacent to walls at (0,1) and (1,0)
    assert math.isclose(wdist[1, 1], 1.0, abs_tol=1e-12)


def test_wall_distance_orthogonal_and_diagonal():
    # an isolated wall cell in a big hall: its orthogonal neighbors sit at 1,
    # its diagonal neighbors at sqrt(2)
    kind = np.full((9, 9), FLOOR, dtype=np.int8)
    kind[4, 4] = WALL
    kind[0, 0] = EXIT
    g = Grid.from_kind(kind)
    wdist = compute_wall_distance(g, 10.0)
    assert math.isclose(wdist[4, 5], 1.0, abs_tol=1e-12)
    assert math.isclose(wdist[5, 5], SQRT2, abs_tol=1e-12)


def test_wall_distance_clamped_at_cutoff():
    g = grid_from_rows(["W" * 13] + ["W" + "." * 11 + "W"] * 11 + ["WE" + "W" * 11])
    wdist = compute_wall_distance(g, 3.0)
    assert wdist[6, 6] == 3.0
    assert wdist.max() <= 3.0


def test_exit_cells_are_not_wall_sources():
    g = grid_from_rows(["WWWWW", "W...E", "WWWWW"])
    wdist = compute_wall_distance(g, 5.0)
    # (3,1) touches the exit but its nearest wall is at distance 1 (above/below)
    assert math.isclose(wdist[1, 3], 1.0, abs_tol=1e-12)
    assert wdist[1, 4] > 0.0  # the exit cell itself is not a source


def test_uncapped_wall_distance_agrees_below_cutoff():
    rng = np.random.default_rng(99)
    for _ in range(5):
        g = Grid.from_kind(random_kind(rng))
        capped = compute_wall_distance(g, 3.0)
        free = compute_wall_distance(g, math.inf)
        below = free < 3.0
        assert np.allclose(capped[below], free[below], rtol=0, atol=1e-12)
        assert (capped[~below] == 3.0).all()


# ------------------------------------------- exactness against the reference

def _benchmark_workloads():
    module_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    return workloads


def _benchmark_crowd_grid() -> Grid:
    """The benchmark's generated 120x120 crowd room (workload seed 0)."""
    return parse_scenario(_benchmark_workloads().crowd_dense(0)).grid


def _cells(mask: np.ndarray) -> list[tuple[int, int]]:
    return [(int(x), int(y)) for y, x in np.argwhere(mask)]


# exits in sealed pockets, so the layers of one stack differ in reach
POCKET_ROWS = (
    ["WWWWWWW", "E..W.EW", "W..WWWW", "WWWWWWW"],
    ["WWWWWWWWWW", "E....WWWWW", "W....W.E.W", "W....WWWWW", "W.......EW", "WWWWWWWWWW"],
)


def test_fields_equal_priority_queue_search_bit_for_bit():
    grids = [parse_scenario(path.read_text()).grid for path in sorted((ROOT / "scenarios").glob("*.txt"))]
    assert len(grids) == 3
    grids.append(_benchmark_crowd_grid())
    grids += [grid_from_rows(rows) for rows in POCKET_ROWS]
    assert [g.n_exits for g in grids[-2:]] == [2, 3]
    rng = np.random.default_rng(4242)
    grids += [Grid.from_kind(random_kind(rng)) for _ in range(30)]
    for g in grids:
        exit_dist = compute_static_field(g)
        assert exit_dist.shape == (g.n_exits, g.height, g.width)
        assert exit_dist.dtype == np.float64 and not exit_dist.flags.writeable
        for eid in range(g.n_exits):
            reference = dijkstra_distances(g, _cells(g.exit_id == eid))
            assert np.array_equal(exit_dist[eid], reference)
        to_wall = dijkstra_distances(g, _cells(g.kind == WALL))
        # the clamps from 0 to 1 + sqrt(2) fall exactly on lattice distances
        for w_max in (0.0, 1.0, SQRT2, 2.0, 1.0 + SQRT2, 3.0, math.inf):
            assert np.array_equal(compute_wall_distance(g, w_max), np.minimum(to_wall, w_max))


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_fields_equal_the_per_move_relaxation_on_the_benchmark_halls_byte_for_byte():
    workloads = _benchmark_workloads()
    for seed in range(3):
        g = parse_scenario(workloads.sparse_hall(seed)).grid
        assert (g.height, g.width, g.n_exits) == (240, 240, 4)
        exits = (g.kind == EXIT) & (g.exit_id == np.arange(g.n_exits)[:, None, None])
        assert _same_bytes(compute_static_field(g), reference_relax(g, exits, UNREACHABLE))
        for w_max in (0.0, 1.0, SQRT2, 3.0, 1e6, math.inf):
            expected = reference_relax(g, (g.kind == WALL)[None], w_max)[0]
            assert _same_bytes(compute_wall_distance(g, w_max), expected)


@st.composite
def small_grids(draw) -> Grid:
    h = draw(st.integers(1, 7))
    w = draw(st.integers(1, 7))
    cells = draw(st.lists(st.sampled_from([WALL, FLOOR, FLOOR, EXIT]), min_size=h * w, max_size=h * w))
    return Grid.from_kind(np.array(cells, dtype=np.int8).reshape(h, w))


def _incoming_minimum(g: Grid, dist: np.ndarray) -> np.ndarray:
    """min(dist[u] + cost) over the permitted steps u -> v into each cell v; inf with none."""
    best = np.full(dist.shape, np.inf)
    for y in range(g.height):
        for x in range(g.width):
            for nx, ny, cost in moore_steps(g, x, y):
                best[ny, nx] = min(best[ny, nx], dist[y, x] + cost)
    return best


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_grids())
def test_fields_are_the_fixpoint_of_one_step_relaxation(g):
    fields = [(compute_static_field(g)[eid], g.exit_id == eid) for eid in range(g.n_exits)]
    fields.append((compute_wall_distance(g, math.inf), g.kind == WALL))
    for dist, sources in fields:
        assert (dist[sources] == 0.0).all()
        best = _incoming_minimum(g, dist)
        non_source = ~sources
        assert (dist[non_source] == best[non_source]).all()
    for dist, _ in fields[:-1]:
        assert np.isinf(dist[g.kind == WALL]).all()
