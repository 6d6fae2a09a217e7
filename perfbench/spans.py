"""In-memory spans for the traced run, written out as one Chrome trace.

Spans are recorded by the benchmark around its own calls into each layer
of the program; nothing inside the program is instrumented.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from itertools import count
from typing import Dict, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[str]
    lane: int = 0


class Spans:
    """Spans of one thread: ``span`` nests under the innermost open one."""

    def __init__(self) -> None:
        self.records: List[Span] = []
        self._ids = count(1)
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[int]:
        """Time the enclosed block as a child of the innermost open span."""
        stack = self._open
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.records.append(Span(sid, name, start, end, parent, request_id))

    def add(
        self, name: str, start: float, end: float,
        parent: Optional[int] = None, request_id: Optional[str] = None, lane: int = 0,
    ) -> int:
        """Record an interval timed elsewhere (a server-reported one).
        ``lane`` is the Chrome-trace thread row it is drawn in."""
        sid = next(self._ids)
        self.records.append(Span(sid, name, start, end, parent, request_id, lane))
        return sid

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus the part of it that
        its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for s in self.records:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: Dict[str, List[float]] = {}
        for s in self.records:
            covered = 0.0
            edge = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge, s.start), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.setdefault(s.name, []).append((s.end - s.start) - covered)
        return out

    def write_chrome(self, path: str, *, process_name: str) -> None:
        """One complete ("X") event per span, times in microseconds."""
        origin = min((s.start for s in self.records), default=0.0)
        events = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": process_name},
        }]
        for s in sorted(self.records, key=lambda s: s.start):
            events.append({
                "name": s.name, "ph": "X", "pid": 1,
                "tid": s.lane,
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "args": {"span": s.sid, "parent": s.parent, "request_id": s.request_id},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
