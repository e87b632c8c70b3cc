"""In-memory spans around calls into alignrec's public functions.

A span records its name, start, end, parent span and thread. Spans are
appended to a list and only written out by `Tracer.dump` when the run ends.

Spans come from two places, both in the benchmark's own files:

* `Tracer.span(name)`, a context manager around a call the benchmark makes;
* `Tracer.patched(targets)`, which for the duration of a `with` block
  replaces attributes such as `alignrec.model.forward` by timed wrappers, so
  calls the program makes internally are recorded too. A target whose
  attribute does not exist (the function was removed or renamed) is listed in
  `Tracer.absent` and skipped, so the benchmark survives the removal.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.absent: set[str] = set()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        with self._id_lock:
            sid = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    @contextmanager
    def patched(self, targets):
        """targets: iterable of (owner, attribute, span name)."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if original is None:
                    self.absent.add(name)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) * 1e3 for _, n, start, end, _, _ in self.spans if n == name]

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total and self milliseconds. Self time
        is the span's duration minus the time covered by its child spans."""
        child_ms: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ms[parent] = child_ms.get(parent, 0.0) + (end - start) * 1e3
        out: dict[str, dict] = {}
        for sid, name, start, end, _, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            ms = (end - start) * 1e3
            entry["calls"] += 1
            entry["total_ms"] += ms
            entry["self_ms"] += ms - child_ms.get(sid, 0.0)
        return out

    def dump(self, path) -> None:
        spans = sorted(self.spans)
        origin = spans[0][2] if spans else 0.0
        doc = {"spans": [{"id": sid, "name": name, "start_ms": (start - origin) * 1e3,
                          "end_ms": (end - origin) * 1e3, "parent": parent, "thread": tid}
                         for sid, name, start, end, parent, tid in spans],
               "summary": self.summary(),
               "absent": sorted(self.absent)}
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
