"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer, recorded from the benchmark's own code:
its name, start and end (perf_counter_ns), the span that was open when it
started (its parent) and the run id of the operation it belongs to.  Spans
live in flat typed arrays so a traced stream pass (three spans per sample)
stays cheap, and are written out once, when the benchmark ends.  The
untraced stream's per-push latencies go to a fixed-size histogram, so
memory does not grow with the number of operations.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_clock = time.perf_counter_ns


class LatencyHistogram:
    """Counts of per-call latencies in 100 ns bins, in constant memory."""

    BIN_NS = 100
    BINS = 100_000  # up to 10 ms; slower calls land in the last bin

    def __init__(self):
        self.counts = np.zeros(self.BINS, dtype=np.int64)

    def add(self, ns) -> None:
        idx = np.minimum(np.frombuffer(ns, dtype=np.int64) // self.BIN_NS, self.BINS - 1)
        self.counts += np.bincount(idx, minlength=self.BINS)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def percentile_us(self, p: float) -> float:
        """Bin-centre latency below which `p` percent of the calls fall."""
        rank = p / 100.0 * self.n
        i = int(np.searchsorted(np.cumsum(self.counts), rank))
        return (i + 0.5) * self.BIN_NS * 1e-3


class Tracer:
    """Spans and counters of one process; only the main thread records."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = -1  # the operation index; set-up k is -1 - k
        self.counts: dict[tuple[int, str], float] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Start a span of name id `nid`; returns the handle `close` takes."""
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def count(self, name: str, n: float) -> None:
        """Add `n` to a per-operation counter (work done, as a count)."""
        key = (self.run_id, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns plus per-span duration and self time (ns).

        Self time is a span's duration minus the durations of its direct
        children; children never overlap because one thread records.
        """
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": start.copy(),
            "end_ns": end.copy(),
            "parent": parent.copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "dur_ns": dur,
            "self_ns": dur - child,
        }

    def per_run_totals(self, cols, name: str, runs) -> list[float]:
        """Seconds spent in spans called `name`, summed within each of `runs`.

        `cols` is the output of `arrays()`, computed once after recording.
        """
        nid = self._ids.get(name)
        if nid is None:
            return [0.0 for _ in runs]
        of_name = cols["name"] == nid
        return [float(cols["dur_ns"][of_name & (cols["run"] == r)].sum()) * 1e-9 for r in runs]

    def per_call(self, cols, name: str, runs) -> np.ndarray:
        """Durations in seconds of every span called `name` within `runs`."""
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0)
        sel = (cols["name"] == nid) & np.isin(cols["run"], list(runs))
        return cols["dur_ns"][sel] * 1e-9

    def self_time_table(self, cols) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds over the process."""
        table = {}
        for nid, name in enumerate(self.names):
            sel = cols["name"] == nid
            table[name] = {
                "calls": int(sel.sum()),
                "total_s": float(cols["dur_ns"][sel].sum()) * 1e-9,
                "self_s": float(cols["self_ns"][sel].sum()) * 1e-9,
            }
        return table

    def write(self, cols, path: Path, meta: dict) -> None:
        """Write every span, the name table and `meta` to one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, names=self.names, counts=[[r, n, v] for (r, n), v in sorted(self.counts.items())])
        np.savez_compressed(path, meta=np.array(json.dumps(doc)), **cols)
