"""Scenario generators for the benchmark workloads.

Each generator is a pure function of its seed and returns scenario text, so
the simulator only ever sees the generated input, as a user's file would be.
"""

from __future__ import annotations

import numpy as np

# Dense crowd: every coupling of both profiles is non-zero, so all five
# destination factors and the exit-persistence bonus are evaluated.
CROWD_SIDE = 120
CROWD_DENSITY = 0.30
CROWD_FAST_SHARE = 0.25
CROWD_PROFILES = (
    "profile default v_max=3 k_S=2.0 k_D=0.3 k_I=0.5 k_W=0.5 k_P=0.5 k_E=1.0",
    "profile fast v_max=4 k_S=3.0 k_D=0.2 k_I=0.3 k_W=0.3 k_P=0.3 k_E=0.5",
)

# Sparse hall: the grid, not the crowd, sets the cost of a round.
HALL_SIDE = 240
HALL_PILLARS = 200
HALL_AGENTS = 170
HALL_PROFILES = (
    "profile default v_max=3 k_S=1.5 k_D=0.3 k_I=0.3 k_W=0.3 k_P=0.3 k_E=1.0",
)


def _walled_room(side: int) -> np.ndarray:
    grid = np.full((side, side), ".", dtype="<U1")
    grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = "W"
    return grid


def _add_doors(grid: np.ndarray, rng: np.random.Generator) -> None:
    """One 2-cell door on each of the four sides, away from the corners."""
    side = grid.shape[0]
    for wall in range(4):
        at = int(rng.integers(side // 8, side - side // 8 - 2))
        cells = slice(at, at + 2)
        if wall == 0:
            grid[0, cells] = "E"
        elif wall == 1:
            grid[-1, cells] = "E"
        elif wall == 2:
            grid[cells, 0] = "E"
        else:
            grid[cells, -1] = "E"


def _to_text(grid: np.ndarray, directives: list[str]) -> str:
    rows = ["".join(row) for row in grid]
    return "\n".join(rows + directives) + "\n"


def crowd_dense(seed: int) -> str:
    """120x120 room, four 2-cell doors, 30 % of the floor cells occupied."""
    rng = np.random.default_rng([seed, 1])
    grid = _walled_room(CROWD_SIDE)
    _add_doors(grid, rng)
    floors = np.argwhere(grid == ".")
    picks = rng.choice(len(floors), size=int(round(CROWD_DENSITY * len(floors))), replace=False)
    fast = rng.random(len(picks)) < CROWD_FAST_SHARE
    agent_lines = []
    for (y, x), is_fast in zip(floors[picks], fast):
        if is_fast:
            agent_lines.append(f"agent {x} {y} fast")
        else:
            grid[y, x] = "a"
    return _to_text(grid, list(CROWD_PROFILES) + agent_lines)


def sparse_hall(seed: int) -> str:
    """240x240 hall, four 2-cell doors, 2x2 pillars kept apart, 0.3 % occupied.

    Pillars keep a free ring of two cells to each other, to the walls and to
    one another's corners, so no floor cell can be cut off from the doors.
    """
    rng = np.random.default_rng([seed, 2])
    grid = _walled_room(HALL_SIDE)
    _add_doors(grid, rng)
    taken = np.zeros(grid.shape, dtype=bool)
    placed = 0
    while placed < HALL_PILLARS:
        x, y = (int(v) for v in rng.integers(3, HALL_SIDE - 5, size=2))
        if taken[y - 2 : y + 4, x - 2 : x + 4].any():
            continue
        taken[y : y + 2, x : x + 2] = True
        grid[y : y + 2, x : x + 2] = "W"
        placed += 1
    floors = np.argwhere(grid == ".")
    for y, x in floors[rng.choice(len(floors), size=HALL_AGENTS, replace=False)]:
        grid[y, x] = "a"
    return _to_text(grid, list(HALL_PROFILES))
