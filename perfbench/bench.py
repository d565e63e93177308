"""Benchmark runs, output checks and metrics for each workload.

Imported by run.py once the checkout's `src/` is on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

from evacsim import cli, engine, scenario

import checks
import layertrace
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One directory per process, so that two runs in one checkout cannot collide.
OUT = os.path.join(ROOT, ".perfbench_out", str(os.getpid()))
ROOM = os.path.join(ROOT, "scenarios", "room.txt")

# Round 1 of a run is left out of agent_rounds_per_s: every agent's last
# displacement is still (0, 0), so the inertia term is skipped, and no exit
# choice or trace exists yet. crowd_dense loses about 10 of its 4177 agents a
# round, so rounds 2 and 3 do the same per-agent work and a seed takes 2 to
# 3 s. sparse_hall's last agents leave after about 180 rounds; at 100 the cap
# binds on every seed, so seeds do comparable work.
ROUND_CAPS = {"crowd_dense": 3, "sparse_hall": 100}
SIM_EMIT = {"summary", "heatmap"}
BATCH_SEEDS = 100
BATCH_EMIT = "trajectories,summary,heatmap,snapshots,steplog"
MIN_RUNS = 3
SETUP_REPEATS = 10


class LineClock(io.TextIOBase):
    """Stdout sink that timestamps every completed line."""

    def __init__(self) -> None:
        self.lines: list[tuple[float, str]] = []
        self._pending = ""

    def write(self, s: str) -> int:
        now = perf_counter()
        self._pending += s
        *done, self._pending = self._pending.split("\n")
        self.lines += [(now, line) for line in done]
        return len(s)


class Tally:
    """Runs attempted and failed, and what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str], runs: int = 1) -> bool:
        self.attempted += runs
        if problems:
            self.failed += runs
            for p in problems:
                print(f"CHECK FAILED {what}: {p}", file=sys.stderr)
        return not problems

    def crash(self, what: str, runs: int = 1) -> None:
        self.attempted += runs
        self.failed += runs
        print(f"RUN FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)


class PhaseClock:
    """Time spent in engine.init_state, and in engine.run_round after each run's first round.

    Installed over engine's module-level names, so run_simulation (and
    cli.main through it) reaches the timed versions.
    """

    def __init__(self) -> None:
        self.init_s = 0.0
        self.loop_s = 0.0
        self.agent_rounds = 0

    @contextlib.contextmanager
    def installed(self):
        init_state, run_round = engine.init_state, engine.run_round

        def timed_init(*args, **kwargs):
            t0 = perf_counter()
            state = init_state(*args, **kwargs)
            self.init_s += perf_counter() - t0
            return state

        def timed_round(state):
            t0 = perf_counter()
            run_round(state)
            elapsed = perf_counter() - t0
            if state.t > 1:
                self.loop_s += elapsed
                self.agent_rounds += state.alive_counts[-2]

        engine.init_state, engine.run_round = timed_init, timed_round
        try:
            yield self
        finally:
            engine.init_state, engine.run_round = init_state, run_round


# --------------------------------------------------------------- simulations


def simulate(text: str, seed: int, cap: int, out_dir: str):
    """One seed of a generated scenario: parse, run_simulation, write summary and heatmap."""
    clock = PhaseClock()
    t0 = perf_counter()
    spec = scenario.parse_scenario(text)
    parse_s = perf_counter() - t0
    with clock.installed():
        result = engine.run_simulation(spec, scenario.SimConfig(seed=seed, max_rounds=cap))
    cli.write_outputs(result, out_dir, SIM_EMIT)
    wall = perf_counter() - t0
    return {"setup_s": parse_s + clock.init_s, "loop_s": clock.loop_s,
            "agent_rounds": clock.agent_rounds, "wall_s": wall, "seeds": 1}, result


def agent_table(spec):
    """Per-agent v_max indexed by agent id, and the exit-cell mask."""
    v_max = np.array([spec.profiles[s.profile].v_max for s in spec.spawns], dtype=np.int64)
    return v_max, spec.grid.kind == scenario.EXIT


class SimWorkload:
    """crowd_dense / sparse_hall: consecutive seeds of one generated scenario."""

    def __init__(self, name: str, seed: int):
        self.text = getattr(workloads, name)(seed)
        self.spec = scenario.parse_scenario(self.text)
        self.v_max, self.is_exit = agent_table(self.spec)
        self.cap = ROUND_CAPS[name]
        self.first_seed = seed * 10_000
        self.out_dir = os.path.join(OUT, "run")

    def scenario_info(self) -> dict:
        return describe(self.spec, self.text)

    def run(self, index: int, tally: Tally) -> dict | None:
        """One checked run; returns its timings and digest, or None if it failed."""
        seed = self.first_seed + index
        os.makedirs(self.out_dir)
        try:
            timing, result = simulate(self.text, seed, self.cap, self.out_dir)
            problems, derived = checks.check_result(result, self.v_max, self.is_exit)
        except Exception:
            tally.crash(f"seed {seed}")
            return None
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        timing["euclid_excess"] = derived["euclid_excess"]
        timing["digest"] = checks.result_digest(result)
        return timing if tally.record(f"seed {seed}", problems) else None

    def time_setups(self) -> None:
        """Each run times its own set-up."""

    def setup_times(self, runs: list[dict]) -> list[float]:
        return [r["setup_s"] for r in runs]

    def seed_times(self, runs: list[dict]) -> list[float]:
        return [r["wall_s"] for r in runs]

    def repeat(self, first: dict | None, tally: Tally) -> dict | None:
        """Run the first seed again; its outputs must be identical. Returns the run."""
        again = self.run(0, tally)
        check_same(first, again and again["digest"], tally, "repeat of the first seed")
        return again


# -------------------------------------------------------------- seed batches


class BatchWorkload:
    """seed_batch: cli.main on scenarios/room.txt, BATCH_SEEDS seeds per call."""

    def __init__(self, seed: int):
        with open(ROOM) as fh:
            self.text = fh.read()
        self.spec = scenario.parse_scenario(self.text)
        self.v_max, self.is_exit = agent_table(self.spec)
        self.first_seed = seed * 10_000
        self.out_dir = os.path.join(OUT, "batch")
        self.setups: list[float] = []

    def scenario_info(self) -> dict:
        return {"path": "scenarios/room.txt", **describe(self.spec, self.text)}

    def time_setups(self) -> None:
        """parse_scenario + init_state of room.txt, SETUP_REPEATS times, between batches."""
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            engine.init_state(scenario.parse_scenario(self.text), scenario.SimConfig())
            self.setups.append(perf_counter() - t0)

    def setup_times(self, runs: list[dict]) -> list[float]:
        return self.setups

    def call_cli(self, first: int, count: int, out_dir: str) -> tuple[int, float, LineClock, PhaseClock]:
        argv = ["--scenario", ROOM, "--seed", str(first), "--seeds", str(count),
                "--out", out_dir, "--emit", BATCH_EMIT]
        lines, phases = LineClock(), PhaseClock()
        t0 = perf_counter()
        with contextlib.redirect_stdout(lines), phases.installed():
            status = cli.main(argv)
        return status, t0, lines, phases

    def run(self, index: int, tally: Tally) -> dict | None:
        """One checked batch; returns its timings and first-seed digest, or None if it failed."""
        first = self.first_seed + index * BATCH_SEEDS
        what = f"batch from seed {first}"
        try:
            status, t0, clock, phases = self.call_cli(first, BATCH_SEEDS, self.out_dir)
            wall = perf_counter() - t0
            if status != 0:
                tally.record(what, [f"cli.main exited with status {status}"], BATCH_SEEDS)
                return None
            seed_times, last = [], t0
            for at, line in clock.lines:
                if line.startswith("seed="):
                    seed_times.append(at - last)
                    last = at
            problems, rounds, excess = [], [], 0
            for s in range(first, first + BATCH_SEEDS):
                found, derived = checks.check_cli_seed(self.out_dir, s, self.v_max, self.is_exit)
                problems += found
                excess += derived["euclid_excess"]
                if derived["evacuation_rounds"] is not None:
                    rounds.append(derived["evacuation_rounds"])
            problems += self.batch_problems(rounds, clock, len(seed_times))
            digest = checks.artifact_digest(self.out_dir, first)
        except Exception:
            tally.crash(what, BATCH_SEEDS)
            return None
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        if not tally.record(what, problems, BATCH_SEEDS):
            return None
        return {"wall_s": wall, "loop_s": phases.loop_s, "agent_rounds": phases.agent_rounds,
                "seeds": BATCH_SEEDS, "seed_times": seed_times, "euclid_excess": excess,
                "digest": digest}

    def batch_problems(self, rounds: list[int], clock: LineClock, reported: int) -> list[str]:
        problems = []
        if reported != BATCH_SEEDS:
            problems.append(f"cli.main reported {reported} seeds, expected {BATCH_SEEDS}")
        lo, hi = checks.batch_band(BATCH_SEEDS)
        mean = statistics.fmean(rounds) if rounds else float("nan")
        if not lo <= mean <= hi:
            problems.append(f"mean evacuation rounds {mean:.3f} outside [{lo:.3f}, {hi:.3f}]")
        expected = f"mean_evacuation_rounds={mean:.4f}"
        if not any(line.startswith(expected) for _, line in clock.lines):
            problems.append(f"cli.main did not print {expected}")
        return problems

    def seed_times(self, runs: list[dict]) -> list[float]:
        return [t for r in runs for t in r["seed_times"]]

    def repeat(self, first: dict | None, tally: Tally) -> None:
        """Run the first batch's first seed again on its own; its artifacts must be identical.

        The repeat is a single seed, not a batch, so it gives no timing sample.
        """
        out_dir = os.path.join(OUT, "repeat")
        tally.attempted += 1
        try:
            status, *_ = self.call_cli(self.first_seed, 1, out_dir)
            digest = checks.artifact_digest(out_dir, self.first_seed) if status == 0 else f"status {status}"
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        check_same(first, digest, tally, "repeat of the first seed")


# ------------------------------------------------------------------- driving


def run_for(work, seconds: float, min_runs: int, tally: Tally) -> list[dict | None]:
    """Consecutive untraced runs until `seconds` have passed and at least `min_runs` ran."""
    runs = []
    start = perf_counter()
    while len(runs) < min_runs or perf_counter() - start < seconds:
        runs.append(work.run(len(runs), tally))
        report(f"run {len(runs) - 1}", runs[-1])
        work.time_setups()
    return runs


def report(label: str, run: dict | None) -> None:
    """One line per run with its timings, for a reader of the log."""
    if run is None:
        print(f"{label}: failed")
        return
    fields = ", ".join(f"{k}={v:.4g}" for k, v in run.items() if isinstance(v, (int, float)))
    print(f"{label}: {fields}")


def check_same(first: dict | None, digest: str | None, tally: Tally, what: str) -> None:
    """A second run of a seed fails when its outputs differ from the first run's."""
    if first is not None and digest is not None and first["digest"] != digest:
        tally.failed += 1
        print(f"CHECK FAILED {what}: outputs differ between two runs of one seed", file=sys.stderr)


def end_to_end(work, runs: list[dict]) -> dict:
    walls = [r["wall_s"] for r in runs]
    seed_times = work.seed_times(runs)
    return {
        "setup_s": (statistics.median(work.setup_times(runs)), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "agent_rounds_per_s": (statistics.median(r["agent_rounds"] / r["loop_s"] for r in runs), "1/s"),
        "seeds_per_s": (sum(r["seeds"] for r in runs) / sum(walls), "1/s"),
        "run_s_p50": (statistics.median(seed_times), "s"),
        "run_s_p90": (statistics.quantiles(seed_times, n=10, method="inclusive")[-1]
                      if len(seed_times) > 1 else seed_times[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(trace, traced: list[dict], untraced: list[dict]) -> dict:
    """Layer metrics per run; `traced[i]` repeats the seeds of `untraced[i]`."""
    seeds = sum(r["seeds"] for r in traced)
    busy, counts = trace.busy, trace.counts

    def per_run(value: float) -> float:
        return value / seeds

    tokens = counts["movement.tokens"]
    metrics = {
        "trace_overhead_s": (statistics.median(b["wall_s"] - a["wall_s"] for a, b in zip(untraced, traced)), "s"),
        "engine.self_s": (per_run(trace.self_time["engine.round"]), "s/run"),
        "movement.step_yield": (counts["movement.steps"] / tokens if tokens else 0.0, "ratio"),
        "movement.euclid_excess": (per_run(sum(r["euclid_excess"] for r in traced)), "count/run"),
    }
    for key, src in (("scenario.parse_s", "scenario.parse"),
                     ("static_field.dijkstra_s", "static_field.dijkstra"),
                     ("dynamic_field.update_s", "dynamic_field.update"),
                     ("dynamic_field.record_s", "dynamic_field.record"),
                     ("decision.exit_s", "decision.exit"),
                     ("decision.dest_s", "decision.dest"),
                     ("decision.crowd_s", "decision.crowd"),
                     ("engine.stream_s", "engine.stream"),
                     ("movement.round_s", "movement.round"),
                     ("cli.write_s", "cli.write")):
        metrics[key] = (per_run(busy[src]), "s/run")
    for key in ("static_field.calls", "static_field.cells", "dynamic_field.cells",
                "decision.calls", "engine.streams", "movement.tokens", "movement.steps",
                "cli.bytes", "cli.files"):
        metrics[key] = (per_run(counts[key]), "count/run")
    return metrics


def describe(spec, text: str) -> dict:
    return {
        "width": spec.grid.width,
        "height": spec.grid.height,
        "agents": len(spec.spawns),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int, scenario_info: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload_seed": seed,
        "scenario": scenario_info,
    }


def run(args) -> int:
    """Run one workload as the parsed arguments say; returns the exit status."""
    try:
        return run_workload(args)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(OUT))


def run_workload(args) -> int:
    try:
        work = BatchWorkload(args.seed) if args.workload == "seed_batch" else SimWorkload(args.workload, args.seed)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment(args.seed, work.scenario_info())))

    tally = Tally()
    if args.trace == 0:
        runs = run_for(work, args.seconds, MIN_RUNS, tally)
        again = work.repeat(runs[0], tally)
        if again is not None:
            report("repeat of run 0", again)
            runs.append(again)
        ok = [r for r in runs if r is not None]
        metrics = end_to_end(work, ok) if ok else None
        print(f"samples: {len(ok)} units of work, {len(work.setup_times(ok))} set-ups, "
              f"{len(work.seed_times(ok))} run times")
    else:
        untraced = run_for(work, args.seconds / 2, 2, tally)
        trace = layertrace.LayerTrace()
        with layertrace.installed(trace):
            traced = [work.run(i, tally) for i in range(len(untraced))]
        for i, (a, b) in enumerate(zip(untraced, traced)):
            check_same(a, b and b["digest"], tally, f"traced repeat of run {i}")
        pairs = [(a, b) for a, b in zip(untraced, traced) if a is not None and b is not None]
        metrics = per_layer(trace, [b for _, b in pairs], [a for a, _ in pairs]) if pairs else None
        print(f"samples: {len(pairs)} traced units of work, {sum(b['seeds'] for _, b in pairs)} runs")

    print(f"runs attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_frac {tally.failed / tally.attempted:.4f}")
    if metrics is None:
        print("error: no run completed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


