"""In-memory spans around the benchmark's calls into the program.

A span has a name, start and end times (seconds since the tracer was
made) and the id of the span that was open when it started. Spans stay in
memory and are written out as one JSON file when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "trace": self.trace_id,
            "start": time.perf_counter() - self.t0,
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter() - self.t0

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name`` from span ``since`` on."""
        return sum(s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"trace": self.trace_id, "spans": self.spans}, indent=1))

