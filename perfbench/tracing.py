"""Spans and counters recorded around the library's public functions.

The tracer replaces a function at the module attribute its caller looks up
(for example `serialquota.properties.apply`, which is a separate binding
from `serialquota.mechanisms.apply`).  Each call records one span: name,
start, end, parent span and the workload item it belongs to.  Counters are
computed from each call's arguments and result after the span has ended, so
their cost lands in the trace overhead, not in the span.

Spans live in flat arrays while the pass runs and are aggregated into
per-layer metrics (and optionally saved) when it ends.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.item = -1
        self.memo: dict = {}  # per-process values counters reuse
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.t0 = array("d")
        self.t1 = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.item_of = array("i")
        self.counts = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.item_of.append(self.item)
        self.t1.append(0.0)
        self._stack.append(sid)
        self.t0.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a recording wrapper; missing attributes are
        skipped so the benchmark keeps running when a function is removed."""
        fn = getattr(module, attr, None)
        if fn is None or getattr(fn, "__wrapped_by_tracer__", False):
            return
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        setattr(module, attr, wrapper)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "t0": np.frombuffer(self.t0, dtype=np.float64),
            "t1": np.frombuffer(self.t1, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item_of, dtype=np.int32),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (sum of durations) and self time
        (durations minus the time covered by direct children)."""
        a = self.arrays()
        k = len(self.names)
        dur = a["t1"] - a["t0"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child[: dur.size]
        calls = np.bincount(a["name"], minlength=k)
        busy = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=self_time, minlength=k)
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[nid]),
                "busy_s": float(busy[nid]),
                "self_s": float(self_s[nid]),
            }
        return out

    def top_level_busy(self) -> float:
        a = self.arrays()
        top = a["parent"] == NO_PARENT
        return float((a["t1"][top] - a["t0"][top]).sum())

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _Span:
    __slots__ = ("tracer", "nid", "sid")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.sid = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False
