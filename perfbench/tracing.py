"""In-memory span recorder, method wrapping and Chrome trace output.

A span is one call across a layer boundary: name, layer, start and end
(``perf_counter_ns``), the span that was open when it started, the
request it served and the benchmark phase.  Spans stay in memory until
the run ends and are then written as Chrome trace-event JSON, which
Perfetto and ``chrome://tracing`` open directly.

The recorder only wraps public methods called once per batch; per-query
work is counted from the reports those methods already return.  The
traced run states its overhead as its span count times the measured
cost of one wrapped call over a plain one (:func:`span_cost_ns`).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int
    request: int
    phase: str
    args: dict

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class SpanRecorder:
    """Collects nested spans from the single dispatcher thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.request = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, args: dict | None = None):
        """Record the enclosed block; ``args`` may be filled in by it."""
        parent = self._stack[-1] if self._stack else -1
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = Span(
                span_id, name, layer, start, end, parent,
                self.request, self.phase, args if args is not None else {},
            )

    def wrap(self, owner, method: str, layer: str, annotate=None):
        """Replace ``owner.method`` with a spanning wrapper; returns undo.

        ``annotate(result)`` returns fields of the call's result to keep
        on the span.
        """
        original = getattr(owner, method)
        name = f"{owner.__name__}.{method}"

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            fields: dict = {}
            with self.span(name, layer, fields):
                result = original(*args, **kwargs)
                if annotate is not None:
                    fields.update(annotate(result))
            return result

        setattr(owner, method, spanned)
        return lambda: setattr(owner, method, original)

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for span in self.spans:
            kids.setdefault(span.parent, []).append(span)
        return kids

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by that span's children.

        Spans come from one thread and nest strictly, so a span's
        children never overlap and their durations simply subtract.
        """
        kids = self.children()
        table: dict[str, float] = {}
        for span in self.spans:
            covered = sum(child.seconds for child in kids.get(span.id, ()))
            table[span.layer] = table.get(span.layer, 0.0) + span.seconds - covered
        return table

    def write_chrome_trace(self, path) -> None:
        pid = os.getpid()
        origin = min((span.start_ns for span in self.spans), default=0)
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start_ns - origin) / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "pid": pid,
                "tid": 0,
                "args": {
                    "id": span.id,
                    "parent": span.parent,
                    "request": span.request,
                    "phase": span.phase,
                    **span.args,
                },
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class NullRecorder:
    """The untraced run's recorder: every span is a no-op."""

    enabled = False
    phase = "setup"
    request = -1
    spans: list = []

    @contextmanager
    def span(self, name: str, layer: str, args: dict | None = None):
        yield


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Wrap the once-per-batch public methods of the serving stack."""
    from repro.serving.service import QueryService
    from repro.serving.sharded import ShardedQueryService
    from repro.sharding.frozen_overlay import FrozenOverlay

    undo = [
        recorder.wrap(QueryService, "run", "serving", _busiest),
        recorder.wrap(QueryService, "refresh_hot_pairs", "serving.cache"),
        recorder.wrap(QueryService, "swap_snapshot", "serving"),
        recorder.wrap(ShardedQueryService, "run", "sharding"),
        recorder.wrap(FrozenOverlay, "stitch_batch", "sharding"),
    ]
    try:
        yield recorder
    finally:
        for restore in reversed(undo):
            restore()


def _busiest(report) -> dict:
    """The busiest worker's seconds in one ``QueryService.run`` call."""
    return {
        "busy_max": max(
            (stats.busy_seconds for stats in report.per_worker), default=0.0
        )
    }


class _Probe:
    def call(self) -> None:
        return None


def span_cost_ns(calls: int = 20000) -> float:
    """Nanoseconds one wrapped call costs over the same call unwrapped.

    This is everything tracing adds to a call: the wrapper, the span's
    context manager and its bookkeeping.  The median of five timings of
    ``calls`` calls each is taken, so a scheduler hiccup does not count.
    """
    probe = _Probe()
    plain = probe.call

    def timed(call) -> float:
        started = time.perf_counter_ns()
        for _ in range(calls):
            call()
        return (time.perf_counter_ns() - started) / calls

    recorder = SpanRecorder()
    undo = recorder.wrap(_Probe, "call", "probe")
    try:
        spanned = probe.call
        costs = []
        for _ in range(5):
            recorder.spans.clear()
            costs.append(timed(spanned) - timed(plain))
    finally:
        undo()
    return max(0.0, statistics.median(costs))
