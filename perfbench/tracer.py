"""In-memory span recorder, the wrappers that feed it, and self-time arithmetic.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
span that was open when this one started (``-1`` at the top).  Spans stay
in memory while the program runs and are written out as JSON once, at the
end, so recording costs two clock reads and a list append per call.

A layer's *self time* is the summed duration of its spans minus the part
of each span that its child spans cover.  Summing self time over every
layer therefore never counts an interval twice, and whatever the traced
wall time holds beyond that sum is time no span saw (``other_s``).

Nothing here imports :mod:`repro`; :mod:`layers` decides what to wrap.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = ["Tracer", "self_times", "span_counts"]

#: One span: ``[name, start, end, parent]`` (a list, so closing is a store).
Span = List[Any]


class Tracer:
    """Span stack plus named counters for one traced process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self._count_boxes: List[Tuple[str, List[int]]] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        # Spans close in LIFO order; popping down to ``index`` keeps the
        # stack sound even if an inner wrapper was skipped by an error.
        while self.stack and self.stack.pop() != index:
            pass

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    # -- wrappers ---------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Callable[["Tracer", tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``fn`` inside a span named ``name``.

        A generator result is wrapped too, so each resumption of it is a
        span of its own (a backend's ``map`` does its work while being
        iterated, not when called).  ``after(tracer, args, kwargs,
        result)`` runs outside the span to record counts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if inspect.isgenerator(result):
                result = tracer._traced_generator(result, name)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = fn
        return traced

    def _traced_generator(self, gen, name: str):
        try:
            while True:
                index = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                yield item
        finally:
            gen.close()

    def counter(self, fn: Callable, name: str) -> Callable:
        """``fn`` counted but not timed: for calls too frequent to span."""
        box = [0]
        self._count_boxes.append((name, box))

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped_by_tracer__ = fn
        return counted

    def flush_counters(self) -> None:
        """Fold the count-only wrappers' tallies into :attr:`counts`."""
        for name, box in self._count_boxes:
            self.count(name, box[0])
            box[0] = 0

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                handle,
            )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        self.index = self.tracer.open(self.name)
        return self.index

    def __exit__(self, *exc_info) -> None:
        self.tracer.close(self.index)


def self_times(spans: Sequence[Sequence[Any]]) -> Dict[str, float]:
    """Self seconds per span name: each span minus its children's spans."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, float] = {}
    for (name, start, end, _parent), child in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start) - child
    return totals


def span_counts(spans: Iterable[Sequence[Any]]) -> Dict[str, int]:
    """Calls per span name, not counting a span nested in its own name
    (an override calling ``super()``, a generator resumed many times)."""
    spans = list(spans)
    counts: Dict[str, int] = {}
    for name, _start, _end, parent in spans:
        if parent >= 0 and spans[parent][0] == name:
            continue
        counts[name] = counts.get(name, 0) + 1
    return counts

