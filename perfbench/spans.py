"""In-memory spans for the traced run.

A span records a name, the id of the group, ring or claim it worked on, its
start and end on the `time.perf_counter` clock, and the span that caused it.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, key=None):
        rec = self._new(name, key, self._open[-1] if self._open else None)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name, key, start, end, parent):
        """A span known only from its endpoints (derived, not timed here)."""
        rec = self._new(name, key, parent)
        rec.update(start=start, end=end, derived=True)
        return rec

    def _new(self, name, key, parent):
        rec = {"id": len(self.spans), "name": name, "key": key, "parent": parent}
        self.spans.append(rec)
        return rec

    def self_times(self):
        """Self time per span name: duration minus the union of its children."""
        children = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], [])):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            own = s["end"] - s["start"] - covered
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def dump(self, path):
        origin = min((s["start"] for s in self.spans), default=0.0)
        rows = [
            dict(s, start=s["start"] - origin, end=s["end"] - origin) for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"clock": "perf_counter, seconds from first span", "spans": rows}, f)
