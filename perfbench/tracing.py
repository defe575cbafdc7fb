"""In-memory spans around calls into pairdom's layers.

A Tracer replaces a module attribute with a wrapper that records a span
(name, start, end, parent) around every call, then puts the original
back. It patches the name where the caller looks the function up, so
``gptest.statistic_stwj`` is wrapped rather than
``empirical.statistic_stwj``: the caller bound its own reference at
import time.

Self time is computed while the spans close: a span's duration minus the
durations of its direct children. Spans are single-threaded; the
benchmark runs every workload in one thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

# A hook sees (args, kwargs, result) of one call and updates the counters.
Hook = Callable[[tuple, dict, Any, dict], None]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr``, reported as span ``name``."""

    module: Any
    attr: str
    name: str
    hook: Optional[Hook] = None


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Collects spans and per-name self times; not thread-safe."""

    # Each span is [name, start, end, parent index or -1].
    spans: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    unwrapped: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        index, child_s = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        totals = self.totals.setdefault(span[0], LayerTotals())
        totals.calls += 1
        totals.self_s += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _wrapper(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if target.hook is not None:
                target.hook(args, kwargs, result, self.counters)
            return result

        return wrapped

    @contextlib.contextmanager
    def patched(self, targets: list[Target]):
        """Wrap every target for the duration of the block, then restore.

        A target whose attribute does not exist is skipped and listed in
        ``unwrapped``, so the benchmark keeps running when a later change
        removes a layer; its metrics then read zero.
        """
        originals = []
        try:
            for target in targets:
                fn = getattr(target.module, target.attr, None)
                if fn is None:
                    self.unwrapped.append(f"{target.module.__name__}.{target.attr}")
                    continue
                originals.append((target.module, target.attr, fn))
                setattr(target.module, target.attr, self._wrapper(fn, target))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        """Write the spans as columns, times relative to the first span."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "names": names,
            "name": [ids[s[0]] for s in self.spans],
            "start_s": [round(s[1] - t0, 9) for s in self.spans],
            "end_s": [round(s[2] - t0, 9) for s in self.spans],
            "parent": [s[3] for s in self.spans],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
