"""Lattice world: cell grid, scenario file parsing, disc offsets.

Grids are row-major numpy arrays indexed ``[y, x]``; positions at the API
surface are ``(x, y)`` tuples with the origin at the top-left corner.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

WALL, FLOOR, EXIT = 0, 1, 2

_CHAR_KIND = {"W": WALL, ".": FLOOR, "E": EXIT, "a": FLOOR}
KIND_CHAR = {WALL: "W", FLOOR: ".", EXIT: "E"}

# largest magnitude of a coupling or of w_max: a log weight then stays far inside
# float64's range, where a larger finite value can overflow it to -inf or NaN mid-run
MAX_MAGNITUDE = 1e6

# largest v_max in cells per round: 4 m/s, about three times free walking speed
MAX_V_MAX = 10

# (dx, dy) of the eight king moves; bit k of Grid.steps stands for MOORE_OFFSETS[k]
MOORE_OFFSETS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


class ParseError(ValueError):
    """Scenario text rejected; carries the offending line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable cell lattice.

    ``kind`` holds WALL/FLOOR/EXIT codes, ``exit_id`` the exit-group index for
    EXIT cells and -1 elsewhere. Exit groups are Moore-connected components of
    exit cells, numbered in row-major scan order of their first cell.

    ``steps`` holds the step rule once: bit k of a cell is set when the step
    by ``MOORE_OFFSETS[k]`` lands on an in-grid non-wall cell and, for a
    diagonal, its two corner cells are not both walls. Wall cells carry bits
    too. The distance fields and the movement phase read this table.
    """

    kind: np.ndarray
    exit_id: np.ndarray
    n_exits: int
    steps: np.ndarray

    @property
    def width(self) -> int:
        return self.kind.shape[1]

    @property
    def height(self) -> int:
        return self.kind.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return np.array_equal(self.kind, other.kind) and np.array_equal(
            self.exit_id, other.exit_id
        )

    @classmethod
    def from_kind(cls, kind: np.ndarray) -> "Grid":
        kind = np.ascontiguousarray(kind, dtype=np.int8)
        exit_id, n_exits = _label_exit_groups(kind)
        steps = _step_table(kind)
        for arr in (kind, exit_id, steps):
            arr.setflags(write=False)
        return cls(kind=kind, exit_id=exit_id, n_exits=n_exits, steps=steps)


def _step_table(kind: np.ndarray) -> np.ndarray:
    """(H, W) uint8 of permitted-step bits, from a wall mask padded with walls."""
    h, w = kind.shape
    wall = np.pad(kind == WALL, 1, constant_values=True)
    steps = np.zeros((h, w), dtype=np.uint8)
    for k, (dx, dy) in enumerate(MOORE_OFFSETS):
        blocked = wall[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
        if dx and dy:  # a diagonal is closed when both corner cells are walls
            blocked = blocked | (wall[1 : 1 + h, 1 + dx : 1 + dx + w] & wall[1 + dy : 1 + dy + h, 1 : 1 + w])
        steps[~blocked] |= 1 << k
    return steps


def _label_exit_groups(kind: np.ndarray) -> tuple[np.ndarray, int]:
    """Label Moore-connected components of exit cells in scan order."""
    exit_id = np.full(kind.shape, -1, dtype=np.int16)
    unlabeled = {(int(y), int(x)) for y, x in np.argwhere(kind == EXIT)}
    n = 0
    for first in sorted(unlabeled):
        if first not in unlabeled:
            continue
        unlabeled.discard(first)
        stack = [first]
        while stack:
            y, x = stack.pop()
            exit_id[y, x] = n
            for dx, dy in MOORE_OFFSETS:
                if (y + dy, x + dx) in unlabeled:
                    unlabeled.discard((y + dy, x + dx))
                    stack.append((y + dy, x + dx))
        n += 1
    return exit_id, n


@dataclass(frozen=True)
class AgentProfile:
    """Per-agent movement parameters and coupling strengths.

    ``allowed_exits`` is a sorted tuple of exit-group ids, or None for all.
    """

    v_max: int = 3
    k_s: float = 1.0
    k_d: float = 0.0
    k_i: float = 0.0
    k_w: float = 0.0
    k_p: float = 0.0
    k_e: float = 0.0
    allowed_exits: tuple[int, ...] | None = None

    def validate(self) -> None:
        if not isinstance(self.v_max, int) or not 1 <= self.v_max <= MAX_V_MAX:
            raise ValueError(f"v_max must be an integer in [1, {MAX_V_MAX}], got {self.v_max!r}")
        for name in ("k_s", "k_d", "k_i", "k_w", "k_p", "k_e"):
            v = getattr(self, name)
            low = -MAX_MAGNITUDE if name == "k_d" else 0.0
            if not low <= v <= MAX_MAGNITUDE:  # NaN fails both comparisons
                raise ValueError(f"{name} must be in [{low:g}, {MAX_MAGNITUDE:g}], got {v!r}")
        if self.allowed_exits is not None and len(self.allowed_exits) == 0:
            raise ValueError("allowed exit list must not be empty")


DEFAULT_PROFILE = AgentProfile()


@dataclass(frozen=True)
class Spawn:
    x: int
    y: int
    profile: str


@dataclass(frozen=True)
class ScenarioSpec:
    """Validated scenario: grid, named agent profiles, spawn points."""

    grid: Grid
    profiles: dict[str, AgentProfile]
    spawns: tuple[Spawn, ...]


@dataclass(frozen=True)
class SimConfig:
    """Global run parameters: trace decay/diffusion, wall cutoff, round cap, seed."""

    delta: float = 0.2
    alpha: float = 0.2
    w_max: float = 3.0
    max_rounds: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.w_max <= MAX_MAGNITUDE:
            raise ValueError(f"w_max must be in [0, {MAX_MAGNITUDE:g}], got {self.w_max}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# scenario and config file key -> AgentProfile field, in the order profile lines are written
PROFILE_KEYS = {
    "v_max": "v_max",
    "k_S": "k_s",
    "k_D": "k_d",
    "k_I": "k_i",
    "k_W": "k_w",
    "k_P": "k_p",
    "k_E": "k_e",
}


def profile_field(key: str, value: str) -> dict[str, int | float]:
    """{AgentProfile field: value} for one PROFILE_KEYS entry; v_max is an int, the rest floats."""
    name = PROFILE_KEYS[key]
    return {name: int(value) if name == "v_max" else float(value)}


_AGENT_RE = re.compile(r"^agent\s+(-?\d+)\s+(-?\d+)\s+(\S+)\s*$")


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse and validate a scenario file.

    Format: '%' starts a comment line; the leading block of non-directive
    lines are grid rows of equal length over 'W' (wall), '.' (floor),
    'E' (exit) and 'a' (floor carrying a default-profile spawn). After the
    grid, optional directives:

        profile <name> v_max=<int> k_S=<f> k_D=<f> k_I=<f> k_W=<f> k_P=<f> k_E=<f> exits=<ids|all>
        agent <x> <y> <profile>

    Raises ParseError on ragged rows, unknown characters, an open boundary,
    a missing exit or floor cell, or invalid spawns/profiles.
    """
    rows: list[tuple[int, str]] = []
    profile_lines: list[tuple[int, str]] = []
    agent_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if line.startswith("profile ") or line == "profile":
            profile_lines.append((lineno, line))
        elif line.startswith("agent ") or line == "agent":
            agent_lines.append((lineno, line))
        else:
            if profile_lines or agent_lines:
                raise ParseError("grid row after profile/agent directives", lineno)
            rows.append((lineno, line))

    if not rows:
        raise ParseError("scenario contains no grid rows")
    width = len(rows[0][1])
    for lineno, row in rows:
        if len(row) != width:
            raise ParseError(
                f"ragged grid row: expected {width} cells, got {len(row)}", lineno
            )
        for col, ch in enumerate(row, start=1):
            if ch not in _CHAR_KIND:
                raise ParseError(f"unknown cell character {ch!r}", lineno, col)

    kind = np.array([[_CHAR_KIND[ch] for ch in row] for _, row in rows], dtype=np.int8)
    # (x, y, lineno) of each 'a' cell
    char_spawns = [(x, y, lineno) for y, (lineno, row) in enumerate(rows) for x, ch in enumerate(row) if ch == "a"]
    inner = np.zeros(kind.shape, dtype=bool)
    inner[1:-1, 1:-1] = True
    for y, x in np.argwhere((kind == FLOOR) & ~inner)[:1]:
        raise ParseError("open boundary: edge cell must be wall or exit", rows[y][0], int(x) + 1)
    if not (kind == EXIT).any():
        raise ParseError("scenario has no exit cell")
    if not (kind == FLOOR).any():
        raise ParseError("no floor cell, agents cannot exist")

    grid = Grid.from_kind(kind)

    profiles: dict[str, AgentProfile] = {"default": DEFAULT_PROFILE}
    given: set[str] = set()
    for lineno, line in profile_lines:
        name, profile = _parse_profile_line(line, lineno, grid.n_exits)
        if name in given:
            raise ParseError(f"duplicate profile {name!r}", lineno)
        given.add(name)
        profiles[name] = profile

    spawns: list[Spawn] = []
    seen: dict[tuple[int, int], int] = {}
    for x, y, lineno in char_spawns:
        seen[(x, y)] = lineno
        spawns.append(Spawn(x, y, "default"))
    for lineno, line in agent_lines:
        m = _AGENT_RE.match(line)
        if not m:
            raise ParseError("malformed agent line, expected 'agent <x> <y> <profile>'", lineno)
        x, y, pname = int(m.group(1)), int(m.group(2)), m.group(3)
        if not (0 <= x < grid.width and 0 <= y < grid.height):
            raise ParseError(f"spawn ({x}, {y}) outside the grid", lineno)
        if pname not in profiles:
            raise ParseError(f"unknown profile {pname!r}", lineno)
        if (x, y) in seen:
            raise ParseError(f"duplicate spawn at ({x}, {y})", lineno)
        seen[(x, y)] = lineno
        spawns.append(Spawn(x, y, pname))
    for spawn in spawns:
        if kind[spawn.y, spawn.x] != FLOOR:
            raise ParseError(
                f"spawn at ({spawn.x}, {spawn.y}) is not on a floor cell",
                seen[(spawn.x, spawn.y)],
            )

    spawns.sort(key=lambda s: (s.y, s.x))
    return ScenarioSpec(grid=grid, profiles=profiles, spawns=tuple(spawns))


def _parse_profile_line(line: str, lineno: int, n_exits: int) -> tuple[str, AgentProfile]:
    parts = line.split()
    if len(parts) < 2:
        raise ParseError("malformed profile line, missing name", lineno)
    name = parts[1]
    profile = DEFAULT_PROFILE
    for item in parts[2:]:
        key, sep, value = item.partition("=")
        if not sep:
            raise ParseError(f"malformed profile field {item!r}", lineno)
        try:
            if key == "exits":
                if value == "all":
                    profile = replace(profile, allowed_exits=None)
                else:
                    ids = tuple(sorted(int(v) for v in value.split(",") if v != ""))
                    if not ids:
                        raise ValueError("empty exit list")
                    for eid in ids:
                        if not 0 <= eid < n_exits:
                            raise ValueError(f"exit id {eid} does not exist")
                    profile = replace(profile, allowed_exits=ids)
            elif key in PROFILE_KEYS:
                profile = replace(profile, **profile_field(key, value))
            else:
                raise ValueError(f"unknown profile key {key!r}")
        except ValueError as exc:
            raise ParseError(f"invalid profile field {item!r}: {exc}", lineno) from None
    try:
        profile.validate()
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    return name, profile


@lru_cache(maxsize=None)
def disc_offsets(v_max: int) -> np.ndarray:
    """Lattice offsets within Euclidean distance v_max of the origin, (k, 2) array."""
    r = int(math.floor(v_max))
    offs = [
        (dx, dy)
        for dy in range(-r, r + 1)
        for dx in range(-r, r + 1)
        if dx * dx + dy * dy <= v_max * v_max
    ]
    arr = np.array(offs, dtype=np.int64)
    arr.setflags(write=False)
    return arr
