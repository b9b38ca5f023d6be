"""Span recorder for the traced run, installed from outside the program.

:meth:`Tracer.install` replaces one attribute — a module-level function
at the module that calls it, or a method on its class — with a wrapper
that records a span: name, start, end, parent and request id.  Spans
stay in per-thread lists in memory until :meth:`Tracer.write` and
:meth:`Tracer.layers` read them at the end of the run.

A span's self time is its duration minus the time its direct children
cover; children of one span run on the same thread one after another,
so that is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from common import percentile

# name, start, end, parent index (-1 for a root), request id, root name
Span = List[object]


#: Stack marker of a span that is not recorded because the cap was hit.
_SKIPPED = -2


class Tracer:
    """Records spans of every thread; stops opening new roots at ``max_spans``."""

    def __init__(self, max_spans: int = 400_000) -> None:
        self._local = threading.local()
        self._threads: List[List[Span]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[object, str, object]] = []
        self._max_spans = max_spans
        self._recorded = 0
        #: Root spans not recorded because ``max_spans`` was reached.
        self.skipped_roots = 0
        #: Event counts recorded beside the spans (``count``).
        self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def _state(self) -> Tuple[List[Span], List[int]]:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            self._local.stack = []
            with self._lock:
                self._threads.append(spans)
        return spans, self._local.stack

    def begin(self, name: str, request_id: Optional[object] = None) -> None:
        spans, stack = self._state()
        parent = stack[-1] if stack else -1
        if parent == _SKIPPED:
            stack.append(_SKIPPED)
            return
        if parent >= 0:
            request_id = spans[parent][4]
            root = spans[parent][5]
        else:
            if self._recorded >= self._max_spans:
                self.skipped_roots += 1
                stack.append(_SKIPPED)
                return
            if request_id is None:
                request_id = next(self._ids)
            root = name
        self._recorded += 1
        spans.append([name, time.perf_counter(), 0.0, parent, request_id, root])
        stack.append(len(spans) - 1)

    def end(self) -> None:
        spans, stack = self._state()
        index = stack.pop()
        if index != _SKIPPED:
            spans[index][2] = time.perf_counter()

    def span(self, name: str, request_id: Optional[object] = None) -> "_SpanContext":
        return _SpanContext(self, name, request_id)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        name: str,
        function: Callable,
        request_id: Optional[Callable[[tuple], Optional[object]]] = None,
        on_result: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            tracer.begin(name, request_id(args) if request_id else None)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def install(self, target: str, name: str, **options) -> bool:
        """Wrap ``module:attr`` or ``module:Class.method`` as span ``name``.

        Returns False, and wraps nothing, when the target no longer
        exists, so a refactor of the program leaves that layer's numbers
        at zero instead of stopping the benchmark.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: object = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attribute = parts[-1]
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            return False
        setattr(owner, attribute, self.wrap(name, original, **options))
        self._patched.append((owner, attribute, original))
        return True

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched = []

    # ------------------------------------------------------------------ #
    def spans(self) -> List[Span]:
        with self._lock:
            return [span for spans in self._threads for span in spans]

    def write(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            with self._lock:
                threads = list(self._threads)
            for thread, spans in enumerate(threads):
                for index, (name, start, end, parent, rid, root) in enumerate(spans):
                    handle.write(json.dumps({
                        "name": name, "start": start, "end": end,
                        "thread": thread, "index": index, "parent": parent,
                        "request": rid, "root": root,
                    }) + "\n")
                    written += 1
        return written

    def layers(self, roots: Optional[Sequence[str]] = None) -> Dict[str, "LayerStats"]:
        """Per-span-name durations and self times.

        ``roots`` keeps only spans under a root of those names, so set-up
        work and measured operations are summarized apart.
        """
        with self._lock:
            threads = list(self._threads)
        stats: Dict[str, LayerStats] = {}
        for spans in threads:
            child_time = [0.0] * len(spans)
            for span in spans:
                if span[3] >= 0 and span[2]:
                    child_time[span[3]] += span[2] - span[1]
            for index, (name, start, end, _, _, root) in enumerate(spans):
                if not end or (roots is not None and root not in roots):
                    continue
                entry = stats.setdefault(name, LayerStats())
                entry.durations.append(end - start)
                entry.self_times.append(end - start - child_time[index])
        return stats


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, request_id: Optional[object]) -> None:
        self._tracer = tracer
        self._name = name
        self._request_id = request_id

    def __enter__(self) -> None:
        self._tracer.begin(self._name, self._request_id)

    def __exit__(self, *exc_info) -> None:
        self._tracer.end()


class LayerStats:
    def __init__(self) -> None:
        self.durations: List[float] = []
        self.self_times: List[float] = []

    @property
    def calls(self) -> int:
        return len(self.durations)

    def p(self, q: float, scale: float = 1.0) -> float:
        return percentile(self.durations, q) * scale if self.durations else 0.0

    def self_p(self, q: float, scale: float = 1.0) -> float:
        return percentile(self.self_times, q) * scale if self.self_times else 0.0

    def total(self) -> float:
        return sum(self.durations)


def layer_summary(stats: Dict[str, LayerStats]) -> Dict[str, Dict[str, float]]:
    """Sample counts and p50/p99/self-p50 (microseconds) of every span name."""
    return {
        name: {
            "calls": entry.calls,
            "p50_us": entry.p(50, 1e6),
            "p99_us": entry.p(99, 1e6),
            "self_p50_us": entry.self_p(50, 1e6),
            "total_s": entry.total(),
        }
        for name, entry in sorted(stats.items())
    }
