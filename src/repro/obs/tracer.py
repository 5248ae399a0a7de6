"""Request-scoped span tracing on the simulated clock.

A *span* is one timed region of a request's journey — a stub call, a
ring-buffer phase, a proxy handler, an NVMe submission — stamped with
simulated-nanosecond start/end times, a category, and a parent link.
Because every component of the Solros stack shares one discrete-event
clock, a single file read yields one causally-linked span tree that
crosses the data-plane stub, the transport rings, the control-plane
proxy, and the device models.

Design constraints:

* **Zero simulated-time overhead.** Spans only *read* ``engine.now``;
  enabling tracing never changes a benchmark's simulated result.
* **Zero cost when disabled.** Components hold a :class:`NullTracer`
  by default and guard instrumentation with ``tracer.enabled`` — one
  attribute load on the hot path, nothing else.
* **Explicit context propagation.** There is no ambient "current
  span": context crosses process boundaries as a
  :class:`SpanContext` riding on :class:`~repro.transport.rpc.RpcMessage`
  (and on ring-buffer slots), mirroring how real distributed tracers
  propagate a trace-context header.

Categories used by the stack (see ``docs/OBSERVABILITY.md``):
``stub``, ``transport``, ``proxy``, ``fs``, ``device``, ``net``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

__all__ = ["Span", "SpanContext", "Tracer", "NullTracer", "NULL_TRACER"]


class SpanContext:
    """The propagatable identity of a span: ``(trace_id, span_id)``."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ctx t{self.trace_id}/s{self.span_id}>"


class Span:
    """One timed region; ``end_ns`` is None while the span is open."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "category",
        "start_ns",
        "end_ns",
        "track",
        "attrs",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        start_ns: int,
        track: str,
        attrs: Optional[Dict[str, Any]],
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.track = track
        self.attrs = attrs

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def ctx(self) -> SpanContext:
        """The context to hand to children / remote messages."""
        return SpanContext(self.trace_id, self.span_id)

    def __repr__(self) -> str:  # pragma: no cover
        end = self.end_ns if self.end_ns is not None else "…"
        return (
            f"<Span #{self.span_id} {self.category}:{self.name} "
            f"[{self.start_ns}, {end}]>"
        )


def _merge_intervals(
    intervals: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Merge possibly-overlapping ``(start, end)`` intervals."""
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged


def _union_length(intervals: List[Tuple[int, int]]) -> int:
    return sum(end - start for start, end in _merge_intervals(intervals))


class Tracer:
    """Collects spans against one simulation engine's clock.

    ``max_spans`` bounds memory on long benchmark sweeps: once the cap
    is hit new spans are still timed and returned to callers (so
    instrumented code needs no special casing) but are no longer
    retained; ``dropped`` counts them.
    """

    enabled = True

    def __init__(self, engine, max_spans: int = 250_000):
        self.engine = engine
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._next_span = 0
        self._next_trace = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        category: str,
        parent: Optional[Any] = None,
        core: Optional[Any] = None,
        start_ns: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span.

        ``parent`` is a :class:`Span`, a :class:`SpanContext`, or None
        (None starts a new trace — a *root* span).  ``core`` names the
        execution track (for the Perfetto lanes); ``start_ns`` allows
        retroactive spans (e.g. a queue-wait measured at dequeue time).
        """
        if parent is None:
            self._next_trace += 1
            trace_id = self._next_trace
            parent_id: Optional[int] = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self._next_span += 1
        track = "main" if core is None else f"{core.cpu.name}.c{core.cid}"
        span = Span(
            trace_id,
            self._next_span,
            parent_id,
            name,
            category,
            self.engine.now if start_ns is None else start_ns,
            track,
            attrs or None,
        )
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close ``span`` at the current simulated time."""
        span.end_ns = self.engine.now
        if attrs:
            if span.attrs is None:
                span.attrs = {}
            span.attrs.update(attrs)
        return span

    def timed(
        self,
        name: str,
        category: str,
        gen: Generator,
        parent: Optional[Any] = None,
        core: Optional[Any] = None,
        **attrs: Any,
    ) -> Generator:
        """Run sub-generator ``gen`` inside a span:
        ``result = yield from tracer.timed(...)``."""
        span = self.begin(name, category, parent=parent, core=core, **attrs)
        try:
            result = yield from gen
        finally:
            self.end(span)
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        return [s for s in self.spans if s.finished]

    def categories(self) -> List[str]:
        return sorted({s.category for s in self.finished_spans()})

    def traces(self) -> List[int]:
        return sorted({s.trace_id for s in self.spans})

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def trace_spans(self, trace_id: int) -> List[Span]:
        """All spans of one trace, in start order."""
        spans = [s for s in self.spans if s.trace_id == trace_id]
        spans.sort(key=lambda s: (s.start_ns, s.span_id))
        return spans

    def children(self, span: Span) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.parent_id == span.span_id and s.trace_id == span.trace_id
        ]

    def span_tree(self, trace_id: int) -> List[Tuple[int, Span]]:
        """The trace as ``(depth, span)`` rows in DFS order."""
        spans = self.trace_spans(trace_id)
        by_parent: Dict[Optional[int], List[Span]] = {}
        for s in spans:
            by_parent.setdefault(s.parent_id, []).append(s)
        out: List[Tuple[int, Span]] = []

        def visit(parent_id: Optional[int], depth: int) -> None:
            for s in by_parent.get(parent_id, []):
                out.append((depth, s))
                visit(s.span_id, depth + 1)

        visit(None, 0)
        return out

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def category_union_ns(
        self, trace_id: Optional[int] = None
    ) -> Dict[str, int]:
        """Per-category *wall* time: the length of the interval union
        of that category's finished spans (parallel or nested spans of
        one category count once).

        This is the aggregation that reproduces the Figure 13 breakdown:
        it equals "simulated time during which at least one span of
        this category was open".
        """
        per_cat: Dict[str, List[Tuple[int, int]]] = {}
        for s in self.finished_spans():
            if trace_id is not None and s.trace_id != trace_id:
                continue
            per_cat.setdefault(s.category, []).append((s.start_ns, s.end_ns))
        return {cat: _union_length(iv) for cat, iv in per_cat.items()}

    def category_self_ns(
        self, trace_id: Optional[int] = None
    ) -> Dict[str, int]:
        """Per-category *self* time (flame-graph style): each span's
        duration minus the union of its children's intervals.  Sums to
        the root durations of the included traces."""
        spans = [
            s
            for s in self.finished_spans()
            if trace_id is None or s.trace_id == trace_id
        ]
        kids: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for s in spans:
            if s.parent_id is not None:
                kids.setdefault((s.trace_id, s.parent_id), []).append(
                    (s.start_ns, s.end_ns)
                )
        totals: Dict[str, int] = {}
        for s in spans:
            covered = 0
            child_iv = kids.get((s.trace_id, s.span_id))
            if child_iv:
                clipped = [
                    (max(a, s.start_ns), min(b, s.end_ns))
                    for a, b in child_iv
                    if b > s.start_ns and a < s.end_ns
                ]
                covered = _union_length(clipped)
            self_ns = max(0, s.duration_ns - covered)
            totals[s.category] = totals.get(s.category, 0) + self_ns
        return totals

    def reset(self) -> None:
        self.spans.clear()
        self.dropped = 0


class NullTracer:
    """The zero-overhead default: components check ``enabled`` first,
    but every method is also a safe no-op."""

    enabled = False

    _SPAN = Span(0, 0, None, "null", "null", 0, "null", None)

    def begin(self, name, category, parent=None, core=None, start_ns=None, **attrs):
        return self._SPAN

    def end(self, span, **attrs):
        return span

    def timed(self, name, category, gen, parent=None, core=None, **attrs):
        result = yield from gen
        return result

    def finished_spans(self):
        return []

    def categories(self):
        return []

    def traces(self):
        return []

    def roots(self):
        return []

    def category_union_ns(self, trace_id=None):
        return {}

    def category_self_ns(self, trace_id=None):
        return {}

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()
