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

import numpy as np

from .decision import SimulationError
from .engine import ROUND_SECONDS, SimResult, init_state, run_simulation
from .scenario import (
    KIND_CHAR, PROFILE_KEYS, ParseError, SimConfig, parse_scenario, profile_field,
)

EMIT_CHOICES = ("trajectories", "summary", "heatmap", "snapshots", "steplog")
DEFAULT_EMIT = "trajectories,summary"
# rows per `%` operation in `_table_text`, so only one block's values are Python ints at a time
_TABLE_BLOCK_ROWS = 65536

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


def _table_text(header: str, table: np.ndarray, sep: str) -> str:
    """The header line, then one line per row of an integer table, its values joined by `sep`."""
    line = sep.join(["%d"] * table.shape[1]) + "\n"
    blocks = (table[i : i + _TABLE_BLOCK_ROWS] for i in range(0, len(table), _TABLE_BLOCK_ROWS))
    return "".join([header + "\n", *((line * len(b)) % tuple(b.ravel().tolist()) for b in blocks)])


def heatmap_bytes(result: SimResult) -> str:
    """Visits per cell, counted from the trajectory's rows, rescaled to 0..255; PGM P2 text."""
    width, height = result.grid.width, result.grid.height
    _, _, xs, ys = result.trajectory.T
    visits = np.bincount(ys * width + xs, minlength=width * height).reshape(height, width)
    peak = int(visits.max())
    scaled = visits if peak == 0 else visits * 255 // peak
    return _table_text(f"P2\n{width} {height}\n255", scaled, " ")


def write_outputs(result: SimResult, out_dir: str, emit: set[str]) -> None:
    seed = result.seed
    if "trajectories" in emit:
        text = _table_text("round,agent_id,x,y", result.trajectory, ",")
        _write_text(os.path.join(out_dir, f"trajectories_{seed}.csv"), text)
    if "summary" in emit:
        rounds, seconds = result.evacuation_rounds, result.evacuation_seconds
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
        rounds, _, xs, ys = result.trajectory.T
        last = int(rounds[-1]) if len(rounds) else 0
        # a longer earlier run into the same directory left maps past this run's end
        for name in os.listdir(snap_dir):
            m = _SNAPSHOT_NAME.fullmatch(name)
            if m and int(m[1]) > last:
                os.remove(os.path.join(snap_dir, name))
        chars = np.frombuffer("".join(map(KIND_CHAR.get, range(len(KIND_CHAR)))).encode(), dtype=np.uint8)
        page = np.full((result.grid.height, result.grid.width + 1), ord("\n"), dtype=np.uint8)
        page[:, :-1] = chars[result.grid.kind]
        bounds = np.searchsorted(rounds, np.arange(last + 2)).tolist()
        for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            snapshot = page.copy()
            snapshot[ys[lo:hi], xs[lo:hi]] = ord("o")
            _write_text(os.path.join(snap_dir, f"round_{r:04d}.txt"), snapshot.tobytes().decode())
    if "steplog" in emit:
        text = _table_text("round step agent from_x from_y to_x to_y", result.step_log, " ")
        _write_text(os.path.join(out_dir, f"steplog_{seed}.txt"), text)


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
        sim_kwargs, profile_kwargs = parse_config_text(_read_text(args.config, "config")) if args.config else ({}, {})
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
            spec = replace(spec, profiles={**spec.profiles, "default": default})
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
        raise UsageError(f"unknown --emit value(s) {sorted(unknown)}; choose from {','.join(EMIT_CHOICES)}")
    return emit


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
