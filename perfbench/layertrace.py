"""Outside-in layer trace: wraps the module-level functions that `engine` and
`cli` call, and accumulates busy time and work counts per layer.

Metrics are keyed by module, not by function, so a later replacement of a
function (say, a batched decision kernel) still reports under the same name
as long as `engine` reaches it through a module-level name.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from evacsim import cli, dynamic_field, engine, scenario


class LayerTrace:
    """Busy seconds, self seconds and counts per key, from nested spans."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_time = [0.0]

    def span(self, key: str, fn, before=None, after=None):
        """Wrap fn so each call adds a span under key.

        `before(args)` runs ahead of the call and `after(args, result)` after
        it, both outside the span, to record counts where the work happens.
        The caller's self time excludes the whole wrapped call, hooks and
        bookkeeping included, so trace cost is not charged to the caller.
        """
        stack = self._child_time

        def wrapped(*args, **kwargs):
            start = perf_counter()
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = stack.pop()
                self.busy[key] += elapsed
                self.self_time[key] += elapsed - children
            if after is not None:
                after(args, result)
            stack[-1] += perf_counter() - start
            return result

        return wrapped

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n


def _chebyshev(a, b) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@contextmanager
def installed(trace: LayerTrace):
    """Patch the traced functions for the duration of the block, then restore."""
    count = trace.count

    def field_work(args) -> None:
        count("static_field.calls")
        count("static_field.cells", args[0].kind.size)

    def decision(args) -> None:
        count("decision.calls")

    def tokens(args) -> None:
        agents, destinations = args[0], args[1]
        count("movement.tokens", sum(_chebyshev(a.pos, destinations[a.id]) for a in agents))

    def steps(args, execution) -> None:
        count("movement.steps", len(execution.steps))

    def file_written(args) -> None:
        count("cli.files")
        count("cli.bytes", len(args[1].encode()))

    targets = [
        (scenario, "parse_scenario", "scenario.parse", None, None),
        (cli, "parse_scenario", "scenario.parse", None, None),
        (engine, "compute_static_field", "static_field.dijkstra", field_work, None),
        (engine, "compute_wall_distance", "static_field.dijkstra", field_work, None),
        (engine, "choose_exit", "decision.exit", decision, None),
        (engine, "choose_destination", "decision.dest", decision, None),
        (engine, "crowd_counts", "decision.crowd", None, None),
        (engine, "derive_stream", "engine.stream", lambda args: count("engine.streams"), None),
        (engine, "execute_round", "movement.round", tokens, steps),
        (dynamic_field.DynamicField, "record_moves", "dynamic_field.record", None, None),
        (dynamic_field.DynamicField, "decay_and_diffuse", "dynamic_field.update",
         lambda args: count("dynamic_field.cells", args[0].dx.size), None),
        (engine, "run_round", "engine.round", None, None),
        (cli, "write_outputs", "cli.write", None, None),
        (cli, "_write_text", "cli.file", file_written, None),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, *_ in targets]
    try:
        for owner, name, key, before, after in targets:
            setattr(owner, name, trace.span(key, getattr(owner, name), before, after))
        yield trace
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
