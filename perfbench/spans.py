"""In-memory spans around the benchmark's calls into the engine.

A span records its name, start and end (perf_counter seconds), the span
that was open when it started, and a trace id: the query, document or
corpus the call worked on.  Spans stay in memory until `write` is
called once, after the run.  `Tracer(enabled=False)` records nothing,
so the untraced run pays only for entering an empty context manager.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: str = "") -> Iterator[None]:
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        record = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
                  "trace": trace_id, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        """Aggregate per-token work that would be too fine-grained for spans."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children's."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time[s["id"]]
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}))
