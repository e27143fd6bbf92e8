"""In-memory span recorder for the traced benchmark run.

Spans sit in the benchmark's own files around calls into the
program's public functions.  Each span keeps its name, start, end,
parent span and operation id; the layer is the name's first dotted
component (``sapper.parse`` belongs to ``sapper``).  At the end the
spans are written as Chrome trace-event JSON, which any trace viewer
opens, and each layer's self time is computed as span time minus the
time its child spans cover.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None
    pid: int = field(default_factory=os.getpid)
    tid: int = field(default_factory=threading.get_native_id)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans while *enabled*; a disabled tracer records nothing
    and its ``span`` context costs one attribute test."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def new_op(self) -> int:
        """A fresh operation id."""
        return next(self._ops)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        parent = self._current.get()
        # a root span starts an operation; its descendants share the id
        op = parent.op if parent is not None else self.new_op()
        span = Span(next(self._ids), name, time.perf_counter_ns(), 0,
                    parent.sid if parent else None, op)
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append(span)

    def add(self, name: str, start_ns: int, end_ns: int, parent: Span | None,
            pid: int | None = None) -> Span:
        """Record a span timed elsewhere (a child process, or a stage
        whose duration the program itself reports) under *parent*."""
        span = Span(next(self._ids), name, start_ns, end_ns,
                    parent.sid if parent else None, parent.op if parent else self.new_op())
        if pid is not None:  # a child process's main thread
            span.pid = span.tid = pid
        self.spans.append(span)
        return span

    def adopt(self, records: list[dict], parent: Span | None) -> None:
        """Merge spans a child process exported with :func:`export` under
        *parent*.  ``perf_counter_ns`` reads the system-wide monotonic
        clock on Linux, so child times need no shift."""
        idmap: dict[int, Span] = {}
        for rec in sorted(records, key=lambda r: r["start_ns"]):
            up = idmap.get(rec["parent"]) if rec["parent"] is not None else parent
            idmap[rec["sid"]] = self.add(
                rec["name"], rec["start_ns"], rec["end_ns"], up, pid=rec["pid"]
            )

    # -- analysis -----------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed seconds of every span called *name*."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Layer -> summed self time: each span's duration minus the part
        of its interval that its children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered = 0
            cursor = s.start_ns
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start_ns):
                lo, hi = max(c.start_ns, cursor), min(c.end_ns, s.end_ns)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.layer] = out.get(s.layer, 0.0) + (s.end_ns - s.start_ns - covered) / 1e9
        return out

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON (complete events, microseconds)."""
        base = min((s.start_ns for s in self.spans), default=0)
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start_ns - base) / 1000.0,
                "dur": (s.end_ns - s.start_ns) / 1000.0,
                "pid": s.pid,
                "tid": s.tid,
                "args": {"id": s.sid, "parent": s.parent, "op": s.op},
            }
            for s in sorted(self.spans, key=lambda s: s.start_ns)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def export(tracer: Tracer) -> list[dict]:
    """Spans as plain records, for a child process to hand its parent."""
    return [
        {"sid": s.sid, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
         "parent": s.parent, "pid": s.pid}
        for s in tracer.spans
    ]
