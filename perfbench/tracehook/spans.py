"""In-memory span recorder shared by the workload process and the trace hook.

A span has a name, a start, an end, a parent span and a process id.  Spans
and per-key time totals stay in memory; :meth:`Recorder.dump` writes them to
``<trace dir>/<pid>.json`` (atomically), which the workload reads back after
a phase.  Only the benchmark's traced runs create a recorder.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Recorder:
    """Spans and time totals of one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.totals: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {"id": span_id, "name": name, "start": start, "end": end,
                      "parent": parent, "pid": self.pid}
            with self._lock:
                self.spans.append(record)
                self.totals[name] = self.totals.get(name, 0.0) + (end - start)

    def add(self, key: str, seconds: float) -> None:
        with self._lock:
            self.totals[key] = self.totals.get(key, 0.0) + seconds

    def dump(self) -> None:
        with self._lock:
            payload = {"pid": self.pid, "spans": list(self.spans), "totals": dict(self.totals)}
        path = os.path.join(self.out_dir, f"{self.pid}.json")
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


#: The process's recorder, set by the trace hook when it is installed.
ACTIVE: Optional[Recorder] = None


def load_all(out_dir: str) -> List[dict]:
    """Every per-process dump in ``out_dir``."""
    dumps = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                dumps.append(json.load(handle))
    return dumps


def merged_totals(dumps: List[dict], exclude_pid: Optional[int] = None) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for dump in dumps:
        if dump["pid"] == exclude_pid:
            continue
        for key, value in dump["totals"].items():
            totals[key] = totals.get(key, 0.0) + value
    return totals
