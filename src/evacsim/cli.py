"""Command-line front end: run one or many seeds of a scenario, write artifacts.

Exit status: 0 success, 1 usage/IO error (bad flags, missing or unreadable
files, unwritable output directory), 2 invalid scenario content. Scenario and
config are fully validated before anything is written, so a status-2 failure
leaves no partial outputs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace

from .decision import SimulationError
from .engine import ROUND_SECONDS, SimResult, init_state, run_simulation
from .scenario import (
    KIND_CHAR, PROFILE_KEYS, Grid, ParseError, ScenarioSpec, SimConfig, parse_scenario, profile_field,
)

EMIT_CHOICES = ("trajectories", "summary", "heatmap", "snapshots", "steplog")
DEFAULT_EMIT = "trajectories,summary"

_CONFIG_FLOAT_KEYS = ("delta", "alpha", "w_max")
# the names `round_{r:04d}.txt` gives, and no others
_SNAPSHOT_NAME = re.compile(r"round_(\d{4}|[1-9]\d{4,})\.txt", re.ASCII)


class UsageError(Exception):
    """Bad invocation or unreadable/unwritable files; maps to exit status 1."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evacsim",
        description="Simulate a pedestrian evacuation scenario on a cell lattice.",
    )
    parser.add_argument("--scenario", required=True, help="scenario file path")
    parser.add_argument("--config", help="optional key=value config file")
    parser.add_argument("--seed", type=int, default=0, help="master seed of the first run")
    parser.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds to run")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--max-rounds", type=int, dest="max_rounds", help="round cap override")
    parser.add_argument(
        "--emit",
        default=DEFAULT_EMIT,
        help=f"comma list of outputs to write, from: {','.join(EMIT_CHOICES)}",
    )
    return parser


def parse_config_text(text: str) -> tuple[dict, dict]:
    """key=value lines -> (SimConfig kwargs, default-profile field overrides)."""
    sim_kwargs: dict = {}
    profile_kwargs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
        try:
            if key in _CONFIG_FLOAT_KEYS:
                sim_kwargs[key] = float(value)
            elif key == "max_rounds":
                sim_kwargs[key] = int(value)
            elif key in PROFILE_KEYS:
                profile_kwargs.update(profile_field(key, value))
            else:
                raise UsageError(f"config line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise UsageError(f"config line {lineno}: {exc}") from None
    return sim_kwargs, profile_kwargs


def render_snapshot(grid: Grid, positions: list[tuple[int, int]]) -> str:
    """ASCII map of one round: walls, floor, exits, agents as 'o'."""
    chars = [[KIND_CHAR[k] for k in row] for row in grid.kind.tolist()]
    for x, y in positions:
        chars[y][x] = "o"
    return "\n".join("".join(row) for row in chars) + "\n"


def heatmap_bytes(result: SimResult) -> str:
    """Cumulative visit counts rescaled to 0..255, PGM P2 text."""
    density = result.density
    peak = int(density.max())
    scaled = density if peak == 0 else density * 255 // peak
    h, w = scaled.shape
    lines = ["P2", f"{w} {h}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in scaled.tolist())
    return "\n".join(lines) + "\n"


def write_outputs(result: SimResult, out_dir: str, emit: set[str]) -> None:
    seed = result.seed
    if "trajectories" in emit:
        lines = ["round,agent_id,x,y"]
        lines += [f"{r},{aid},{x},{y}" for r, aid, x, y in result.trajectory]
        _write_text(os.path.join(out_dir, f"trajectories_{seed}.csv"), "\n".join(lines) + "\n")
    if "summary" in emit:
        rounds = result.evacuation_rounds
        seconds = result.evacuation_seconds
        text = (
            f"evacuation_rounds={'none' if rounds is None else rounds}\n"
            f"agents_total={result.agents_total}\n"
            f"seed={seed}\n"
            f"evacuation_seconds={'none' if seconds is None else seconds}\n"
        )
        _write_text(os.path.join(out_dir, f"summary_{seed}.txt"), text)
    if "heatmap" in emit:
        _write_text(os.path.join(out_dir, f"heatmap_{seed}.pgm"), heatmap_bytes(result))
    if "snapshots" in emit:
        snap_dir = os.path.join(out_dir, f"snapshots_{seed}")
        os.makedirs(snap_dir, exist_ok=True)
        by_round: dict[int, list[tuple[int, int]]] = {}
        for r, _aid, x, y in result.trajectory:
            by_round.setdefault(r, []).append((x, y))
        last = max(by_round) if by_round else 0
        # a longer earlier run into the same directory left maps past this run's end
        for name in os.listdir(snap_dir):
            m = _SNAPSHOT_NAME.fullmatch(name)
            if m and int(m[1]) > last:
                os.remove(os.path.join(snap_dir, name))
        for r in range(last + 1):
            text = render_snapshot(result.grid, by_round.get(r, []))
            _write_text(os.path.join(snap_dir, f"round_{r:04d}.txt"), text)
    if "steplog" in emit:
        lines = ["round step agent from_x from_y to_x to_y"]
        lines += [" ".join(str(v) for v in row) for row in result.step_log]
        _write_text(os.path.join(out_dir, f"steplog_{seed}.txt"), "\n".join(lines) + "\n")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _read_text(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        emit = _parse_emit(args.emit)
        if args.seed < 0:
            raise UsageError("--seed must be non-negative")
        if args.seeds < 1:
            raise UsageError("--seeds must be >= 1")
        if args.max_rounds is not None and args.max_rounds < 1:
            raise UsageError("--max-rounds must be >= 1")

        scenario_text = _read_text(args.scenario, "scenario")
        sim_kwargs: dict = {}
        profile_kwargs: dict = {}
        if args.config:
            sim_kwargs, profile_kwargs = parse_config_text(_read_text(args.config, "config"))
        if args.max_rounds is not None:
            sim_kwargs["max_rounds"] = args.max_rounds
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        spec = parse_scenario(scenario_text)
        if profile_kwargs:
            default = replace(spec.profiles["default"], **profile_kwargs)
            default.validate()
            profiles = dict(spec.profiles)
            profiles["default"] = default
            spec = ScenarioSpec(grid=spec.grid, profiles=profiles, spawns=spec.spawns)
        base_config = SimConfig(seed=args.seed, **sim_kwargs)
        first = init_state(spec, base_config)  # reachability check before any writes
    except (ParseError, ValueError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        os.makedirs(args.out, exist_ok=True)
        fields = (first.exit_dist, first.wall_dist)
        all_rounds: list[int | None] = []
        for s in range(args.seed, args.seed + args.seeds):
            result = run_simulation(spec, replace(base_config, seed=s), fields)
            write_outputs(result, args.out, emit)
            rounds = result.evacuation_rounds
            seconds = result.evacuation_seconds
            print(
                f"seed={s} evacuation_rounds={'none' if rounds is None else rounds}"
                f" evacuation_seconds={'none' if seconds is None else seconds}"
            )
            all_rounds.append(rounds)
        if args.seeds > 1:
            evacuated = [r for r in all_rounds if r is not None]
            if evacuated:
                mean_rounds = sum(evacuated) / len(evacuated)
                print(
                    f"mean_evacuation_rounds={mean_rounds:.4f}"
                    f" mean_evacuation_seconds={mean_rounds * ROUND_SECONDS:.4f}"
                )
            if len(evacuated) < len(all_rounds):
                print(f"non_evacuated_runs={len(all_rounds) - len(evacuated)}")
    except (OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _parse_emit(raw: str) -> set[str]:
    emit = {item.strip() for item in raw.split(",") if item.strip()}
    unknown = emit.difference(EMIT_CHOICES)
    if unknown:
        raise UsageError(
            f"unknown --emit value(s) {sorted(unknown)}; choose from {','.join(EMIT_CHOICES)}"
        )
    return emit


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
