"""Spans and counters recorded around calls into causalpch's public functions.

The tracer patches attributes of causalpch modules and classes for the
length of one traced round and puts the originals back afterwards; nothing
inside the package is changed. Spans stay in memory until the run reports.

- ``span_calls`` records one span per call: name, start, end, the span that
  was open on the same thread when the call began, the thread, and the
  process CPU time at both ends.
- ``count_calls`` is for functions called hundreds of thousands of times (the
  log-posterior gradient): it keeps a per-thread call count and the calling
  thread's CPU time inside the calls. Thread CPU time rather than wall time,
  because a call on one of several chain threads also waits for the
  interpreter lock while another chain runs.
"""

from __future__ import annotations

import json
import threading
import time


class Tracer:
    def __init__(self):
        # [name, start, end, parent, thread, process cpu at start, at end]
        self.spans: list[list] = []
        self.results: dict[str, object] = {}   # last return value per span name
        self._stacks: dict[int, list[int]] = {}
        self._counters: dict[str, dict[int, list]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_calls(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.results[name] = result
            return result

        self._patch(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        per_thread = self._counters.setdefault(name, {})

        def wrapper(*args, **kwargs):
            t0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                # each thread only ever touches its own entry
                acc = per_thread.setdefault(threading.get_ident(), [0, 0.0])
                acc[0] += 1
                acc[1] += time.thread_time() - t0

        self._patch(owner, attr, wrapper)

    # --------------------------------------------------------------- spans

    def open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               stack[-1] if stack else -1, tid,
                               time.process_time(), None])
            stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end, cpu = time.perf_counter(), time.process_time()
        with self._lock:
            span = self.spans[idx]
            span[2], span[6] = end, cpu
            self._stacks[span[4]].pop()

    # ------------------------------------------------------------- queries

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s[2] - s[1] for s in self.named(name))

    def cpu(self, name: str) -> float:
        """Process CPU seconds (all threads) spent while the named spans were open."""
        return sum(s[6] - s[5] for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus that of their direct children."""
        idx = {i for i, s in enumerate(self.spans) if s[0] == name}
        child = sum(s[2] - s[1] for s in self.spans if s[3] in idx)
        return self.total(name) - child

    def dump(self, path) -> None:
        """Write every span as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": a - t0, "end": b - t0, "parent": parent,
                 "thread": tid, "cpu": c1 - c0}
                for n, a, b, parent, tid, c0, c1 in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=0)

    def calls(self, name: str) -> tuple[int, float]:
        """(call count, thread CPU seconds) summed over threads for a counter."""
        accs = self._counters.get(name, {}).values()
        return sum(a[0] for a in accs), sum(a[1] for a in accs)
