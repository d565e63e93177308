"""Command-line interface: flags, status codes, artifact files."""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacsim import cli
from evacsim.cli import EMIT_CHOICES, main, parse_config_text, UsageError, write_outputs
from evacsim.engine import run_simulation
from evacsim.scenario import ScenarioSpec, SimConfig, parse_scenario

from helpers import reference_table_text

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
CORRIDOR = str(SCENARIOS / "corridor.txt")
ROOM = str(SCENARIOS / "room.txt")


def run_cli(*args: str) -> int:
    return main(list(args))


def test_default_run_writes_summary_and_trajectories(tmp_path, capsys):
    status = run_cli("--scenario", CORRIDOR, "--seed", "7", "--out", str(tmp_path))
    assert status == 0
    assert (tmp_path / "summary_7.txt").exists()
    assert (tmp_path / "trajectories_7.csv").exists()
    assert not (tmp_path / "heatmap_7.pgm").exists()
    out = capsys.readouterr().out
    assert "seed=7 evacuation_rounds=10 evacuation_seconds=10.0" in out


def test_python_dash_m_runs_the_program(tmp_path):
    src = str(SCENARIOS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "evacsim", "--scenario", ROOM, "--seed", "0", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "summary_0.txt").exists()
    assert "seed=0 evacuation_rounds=" in proc.stdout


def test_summary_file_contents(tmp_path):
    run_cli("--scenario", CORRIDOR, "--seed", "7", "--out", str(tmp_path))
    text = (tmp_path / "summary_7.txt").read_text()
    assert text == (
        "evacuation_rounds=10\n"
        "agents_total=1\n"
        "seed=7\n"
        "evacuation_seconds=10.0\n"
    )


def test_trajectories_header_and_round_zero(tmp_path):
    run_cli("--scenario", CORRIDOR, "--seed", "0", "--out", str(tmp_path))
    lines = (tmp_path / "trajectories_0.csv").read_text().splitlines()
    assert lines[0] == "round,agent_id,x,y"
    assert lines[1] == "0,0,1,1"
    assert len(lines) == 12  # header + rounds 0..10


def test_all_emit_targets(tmp_path):
    status = run_cli(
        "--scenario", ROOM, "--seed", "2", "--out", str(tmp_path),
        "--emit", "trajectories,summary,heatmap,snapshots,steplog",
    )
    assert status == 0
    assert (tmp_path / "heatmap_2.pgm").exists()
    assert (tmp_path / "steplog_2.txt").exists()
    snap_dir = tmp_path / "snapshots_2"
    assert (snap_dir / "round_0000.txt").exists()
    steplog = (tmp_path / "steplog_2.txt").read_text().splitlines()
    assert steplog[0] == "round step agent from_x from_y to_x to_y"
    assert all(len(line.split()) == 7 for line in steplog[1:])


def test_snapshot_round_zero_is_spawn_map(tmp_path):
    run_cli("--scenario", ROOM, "--seed", "1", "--out", str(tmp_path), "--emit", "snapshots")
    snap = (tmp_path / "snapshots_1" / "round_0000.txt").read_text()
    scenario = pathlib.Path(ROOM).read_text()
    grid_rows = [
        line.strip() for line in scenario.splitlines()
        if line.strip() and not line.startswith(("%", "profile", "agent"))
    ]
    expected_rows = [row.replace("a", "o") for row in grid_rows]
    # named-profile spawns come from agent directives, add them too
    snap_rows = snap.splitlines()
    assert len(snap_rows) == len(expected_rows)
    assert snap_rows[3] == expected_rows[3]  # row with 'a' spawns only
    assert snap.count("o") == 11  # all spawns shown


def test_shorter_rerun_removes_stale_snapshots(tmp_path):
    run_cli("--scenario", ROOM, "--seed", "0", "--out", str(tmp_path), "--emit", "snapshots,summary")
    snap_dir = tmp_path / "snapshots_0"
    assert len(list(snap_dir.glob("round_*.txt"))) > 6
    for name in ("notes.txt", "round_00099.txt", "round_9999.csv"):
        (snap_dir / name).write_text("kept\n")
    assert run_cli(
        "--scenario", ROOM, "--seed", "0", "--out", str(tmp_path), "--emit", "snapshots,summary", "--max-rounds", "5"
    ) == 0
    assert "evacuation_rounds=none" in (tmp_path / "summary_0.txt").read_text()
    maps = sorted(p.name for p in snap_dir.glob("round_????.txt"))
    assert maps == [f"round_{r:04d}.txt" for r in range(6)]
    assert all((snap_dir / name).read_text() == "kept\n" for name in ("notes.txt", "round_00099.txt", "round_9999.csv"))


def test_heatmap_is_pgm_with_byte_range(tmp_path):
    run_cli("--scenario", ROOM, "--seed", "2", "--out", str(tmp_path), "--emit", "heatmap")
    lines = (tmp_path / "heatmap_2.pgm").read_text().split()
    assert lines[0] == "P2"
    assert lines[1] == "20" and lines[2] == "20"
    assert lines[3] == "255"
    values = [int(v) for v in lines[4:]]
    assert len(values) == 400
    assert max(values) == 255 and min(values) >= 0


def test_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        run_cli(
            "--scenario", ROOM, "--seed", "5", "--out", str(out),
            "--emit", "trajectories,summary,heatmap,steplog",
        )
    for name in ("trajectories_5.csv", "summary_5.txt", "heatmap_5.pgm", "steplog_5.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# sha256 over every artifact that cli.main writes for a room.txt seed, by relative
# path, as the benchmark's `artifact_digest`; a change that keeps the random
# streams and the formats must keep them
CLI_ARTIFACT_DIGESTS = {
    0: "ae497e0b4845b852e3798920410ff9ca366a6a6f853f21f6a9417a1f8dcd7a19",
    1: "2edab2b89f11325d0d7b0771c968f3836972469eec94ffc1952186799594cfd4",
}


def artifact_digest(out_dir, seed: int) -> str:
    """The benchmark's `artifact_digest` of the files that one `cli.main` seed wrote with every artifact."""
    module_spec = importlib.util.spec_from_file_location("checks", SCENARIOS.parent / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(checks)
    assert run_cli("--scenario", ROOM, "--seed", str(seed), "--out", str(out_dir), "--emit", ",".join(EMIT_CHOICES)) == 0
    assert len(os.listdir(out_dir)) == len(EMIT_CHOICES)
    return checks.artifact_digest(str(out_dir), seed)


@pytest.mark.parametrize("seed", sorted(CLI_ARTIFACT_DIGESTS))
def test_cli_artifacts_golden_digest(tmp_path, seed):
    assert artifact_digest(tmp_path, seed) == CLI_ARTIFACT_DIGESTS[seed]


def test_tables_format_in_blocks_as_in_one_piece(tmp_path, monkeypatch):
    result = run_simulation(parse_scenario(pathlib.Path(ROOM).read_text()), SimConfig(seed=0))
    monkeypatch.setattr(cli, "_TABLE_BLOCK_ROWS", 7)
    tables = [
        ("round,agent_id,x,y", result.trajectory, ","),
        ("round step agent from_x from_y to_x to_y", result.step_log, " "),
        ("two blocks", np.arange(-21, 21).reshape(14, 3), " "),
        ("one short block", np.arange(5).reshape(5, 1), ","),
        ("no rows", np.zeros((0, 4), dtype=np.int64), ","),
    ]
    assert len(result.trajectory) > 7 and len(result.step_log) > 7
    for header, table, sep in tables:
        assert cli._table_text(header, table, sep) == reference_table_text(header, table, sep)
    # every artifact, the heatmap's rows included, is unchanged when written in blocks
    assert artifact_digest(tmp_path, 0) == CLI_ARTIFACT_DIGESTS[0]


def test_batch_seeds_write_one_file_each_and_print_mean(tmp_path, capsys):
    status = run_cli("--scenario", CORRIDOR, "--seed", "1", "--seeds", "3", "--out", str(tmp_path))
    assert status == 0
    for s in (1, 2, 3):
        assert (tmp_path / f"summary_{s}.txt").exists()
    out = capsys.readouterr().out
    assert out.count("seed=") >= 3
    assert "mean_evacuation_rounds=10.0000" in out


def test_batch_equals_its_seeds_run_alone(tmp_path, capsys):
    """A batch shares one pair of floor fields between its seeds; each seed's
    artifacts and stdout line must still equal the same seed run on its own,
    and the artifacts those of a run that computes its own fields. w_max and a
    default-profile k_P differ from the defaults, so the shared wall distance
    is clamped at a non-default value; w_max lies above the default, as the
    kernel weighs cells at or beyond w_max alike, whatever the clamp above it."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("w_max=4.0\nk_P=0.4\n")
    common = ("--scenario", ROOM, "--config", str(cfg), "--emit", ",".join(EMIT_CHOICES))

    def files(out):
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    batch = tmp_path / "batch"
    assert run_cli(*common, "--seed", "3", "--seeds", "4", "--out", str(batch)) == 0
    batch_lines = capsys.readouterr().out.splitlines()
    alone_files = {}
    for i, s in enumerate(range(3, 7)):
        alone = tmp_path / f"alone_{s}"
        assert run_cli(*common, "--seed", str(s), "--out", str(alone)) == 0
        assert capsys.readouterr().out.splitlines() == [batch_lines[i]]
        alone_files.update(files(alone))
    assert alone_files == files(batch)

    sim_kwargs, profile_kwargs = parse_config_text(cfg.read_text())
    spec = parse_scenario(pathlib.Path(ROOM).read_text())
    profiles = {**spec.profiles, "default": replace(spec.profiles["default"], **profile_kwargs)}
    spec = ScenarioSpec(grid=spec.grid, profiles=profiles, spawns=spec.spawns)
    reference = tmp_path / "reference"
    reference.mkdir()
    for s in range(3, 7):
        write_outputs(run_simulation(spec, SimConfig(seed=s, **sim_kwargs)), str(reference), set(EMIT_CHOICES))
    assert files(reference) == files(batch)


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("% tuning\nmax_rounds=2\ndelta=0.5\n")
    run_cli("--scenario", ROOM, "--seed", "0", "--out", str(tmp_path), "--config", str(cfg))
    text = (tmp_path / "summary_0.txt").read_text()
    assert "evacuation_rounds=none" in text
    assert "evacuation_seconds=none" in text


def test_config_profile_override_slows_the_runner(tmp_path):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("v_max=1\n")
    run_cli("--scenario", CORRIDOR, "--seed", "0", "--out", str(tmp_path), "--config", str(cfg))
    assert "evacuation_rounds=30" in (tmp_path / "summary_0.txt").read_text()


def test_max_rounds_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_rounds=500\n")
    run_cli(
        "--scenario", ROOM, "--seed", "0", "--out", str(tmp_path),
        "--config", str(cfg), "--max-rounds", "1",
    )
    assert "evacuation_rounds=none" in (tmp_path / "summary_0.txt").read_text()


def test_zero_agent_scenario_writes_header_only(tmp_path):
    scenario = tmp_path / "empty.txt"
    scenario.write_text("WWWW\nW..E\nWWWW\n")
    status = run_cli("--scenario", str(scenario), "--seed", "0", "--out", str(tmp_path))
    assert status == 0
    assert (tmp_path / "trajectories_0.csv").read_text() == "round,agent_id,x,y\n"
    assert "evacuation_rounds=0" in (tmp_path / "summary_0.txt").read_text()


def test_parse_config_text_errors():
    assert parse_config_text("delta=0.3\nk_S=2\n") == ({"delta": 0.3}, {"k_s": 2.0})
    with pytest.raises(UsageError, match="unknown key"):
        parse_config_text("velocity=3\n")
    with pytest.raises(UsageError, match="expected key=value"):
        parse_config_text("delta\n")
    with pytest.raises(UsageError):
        parse_config_text("max_rounds=soon\n")


# ---------------------------------------------------------------- statuses

def test_missing_scenario_file_is_usage_error(tmp_path):
    assert run_cli("--scenario", str(tmp_path / "nope.txt"), "--out", str(tmp_path)) == 1


def test_invalid_scenario_is_status_2_with_no_outputs(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("WWW\nW.W\nWWW\n")  # no exit
    out = tmp_path / "results"
    assert run_cli("--scenario", str(bad), "--out", str(out)) == 2
    assert not out.exists()


def test_sealed_spawn_is_status_2(tmp_path):
    bad = tmp_path / "sealed.txt"
    bad.write_text("WWWWW\nWaW.E\nWWWWW\n")
    assert run_cli("--scenario", str(bad), "--out", str(tmp_path / "r")) == 2
    assert not (tmp_path / "r").exists()


def test_bad_flags_and_values_are_status_1(tmp_path):
    assert run_cli("--scenario", CORRIDOR, "--seeds", "0", "--out", str(tmp_path)) == 1
    assert run_cli("--scenario", CORRIDOR, "--seed", "-3", "--out", str(tmp_path)) == 1
    assert run_cli("--scenario", CORRIDOR, "--emit", "movies", "--out", str(tmp_path)) == 1
    assert run_cli("--unknown-flag") == 1
    assert run_cli() == 1  # --scenario is required


def test_bad_config_is_status_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("delta=maybe\n")
    assert run_cli("--scenario", CORRIDOR, "--config", str(cfg), "--out", str(tmp_path)) == 1


def test_unwritable_output_location_is_status_1(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "sub"  # parent is a regular file
    assert run_cli("--scenario", CORRIDOR, "--out", str(out)) == 1


def test_invalid_config_value_rejected_by_validation(tmp_path):
    cfg = tmp_path / "bad2.cfg"
    cfg.write_text("delta=1.5\n")
    status = run_cli("--scenario", CORRIDOR, "--config", str(cfg), "--out", str(tmp_path))
    assert status == 2  # parses as a float, fails SimConfig validation


def test_values_that_overflow_a_log_weight_are_status_2(tmp_path):
    # finite, but -k_S * S(c) is -inf on every candidate, k_I * 0 * inf is NaN, and
    # k_W * (w_max - W(c)) is -inf: each used to fail mid-run, after --out was made
    room = pathlib.Path(ROOM).read_text()
    for i, directive in enumerate(("profile default k_S=1e308", "profile default k_I=1e308")):
        bad = tmp_path / f"bad{i}.txt"
        bad.write_text(room + directive + "\n")
        assert run_cli("--scenario", str(bad), "--out", str(tmp_path / f"r{i}")) == 2
        assert not (tmp_path / f"r{i}").exists()
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("w_max=1e308\nk_W=2\n")
    assert run_cli("--scenario", ROOM, "--config", str(cfg), "--out", str(tmp_path / "w")) == 2
    assert not (tmp_path / "w").exists()


def test_v_max_beyond_the_bound_is_status_2(tmp_path):
    # the speed disc and the inertia tables grow with v_max squared; an unbounded
    # v_max used to pass validation and then need terabytes after --out was made
    room = pathlib.Path(ROOM).read_text()
    for v_max in (11, 100000):
        bad = tmp_path / f"bad{v_max}.txt"
        bad.write_text(room + f"profile default v_max={v_max}\n")
        assert run_cli("--scenario", str(bad), "--out", str(tmp_path / f"s{v_max}")) == 2
        cfg = tmp_path / f"fast{v_max}.cfg"
        cfg.write_text(f"v_max={v_max}\n")
        assert run_cli("--scenario", ROOM, "--config", str(cfg), "--out", str(tmp_path / f"c{v_max}")) == 2
        assert not (tmp_path / f"s{v_max}").exists() and not (tmp_path / f"c{v_max}").exists()
    cfg = tmp_path / "fastest.cfg"
    cfg.write_text("v_max=10\n")
    assert run_cli("--scenario", ROOM, "--config", str(cfg), "--max-rounds", "3", "--out", str(tmp_path / "ok")) == 0


# Profile and agent directives over names, keys and values on both sides of every
# check. Derandomized draws lean to the first entries, so "k_S" and "1e308" lead.
NAMES = st.sampled_from(["default", "cautious", "hasty", "p", ""])  # room.txt defines cautious and hasty
KEYS = st.sampled_from(["k_S", "v_max", "k_D", "k_I", "k_W", "k_P", "k_E", "exits", "speed"])
VALUES = st.sampled_from(
    ["1e308", "0", "1", "-1", "2", "7", "0.5", "-0.5", "1e6", "-1e308", "nan", "inf", "x", "", "0,1", "1,", "5", "all"]
)
DIRECTIVES = (
    st.builds(
        lambda name, fields: " ".join(["profile", name, *(f"{k}={v}" for k, v in fields)]),
        NAMES,
        st.lists(st.tuples(KEYS, VALUES), min_size=1, max_size=2),
    )
    | st.builds("agent {} {} {}".format, st.integers(-1, 21), st.integers(-1, 21), NAMES)
    | st.sampled_from(["agent", "profile", "agent 3 3", "% note", ""])
)


@st.composite
def room_mutants(draw) -> str:
    """scenarios/room.txt after one to three inserted directives, changed characters or deleted lines."""
    lines = pathlib.Path(ROOM).read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("insert", "change", "delete")))
        if op == "insert":  # after the last line half the time, where a directive is in place
            at = draw(st.just(len(lines)) | st.integers(0, len(lines)))
            lines.insert(at, draw(DIRECTIVES))
            continue
        if not lines:
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
        else:
            j = draw(st.integers(0, max(len(lines[i]) - 1, 0)))
            lines[i] = lines[i][:j] + draw(st.sampled_from("W.Ea %x9-=,")) + lines[i][j + 1 :]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(room_mutants())
def test_mutated_scenario_gets_a_status_and_writes_nothing_unless_it_runs(text):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = pathlib.Path(tmp) / "mutant.txt"
        scenario.write_text(text)
        out = pathlib.Path(tmp) / "out"
        status = run_cli("--scenario", str(scenario), "--max-rounds", "60", "--out", str(out))
        assert status in (0, 1, 2)
        assert status == 0 or not out.exists()
