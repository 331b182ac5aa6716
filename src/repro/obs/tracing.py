"""Span-based structured tracing over the simulated clock.

A *span* is one timed operation (an AS exchange, a KDC handler run, a
propagation round); spans nest, and every span belongs to a *trace*
identified by a trace ID (``req-%06d``, historically the request ID —
one scheme for both wire records and spans).  The tracer keeps a single
stack of open spans for the synchronous call structure, plus two
mechanisms that let a trace cross a simulated wire hop:

* a :class:`TraceContext` — ``(trace_id, parent span_id)`` — captured
  from the innermost open span and carried on a
  :class:`~repro.netsim.network.Datagram` as out-of-band simulation
  metadata (never wire bytes: golden vectors are unaffected);
* :meth:`Tracer.adopt` / :meth:`Tracer.span_under`, which parent a
  server-side handler span to the *propagated* context instead of
  whatever span happens to be open on the local stack — so a queued KDC
  answering client A's request during client B's pump still attaches the
  handler span to A's trace;
* :meth:`Tracer.open_span` / :meth:`Tracer.close_span` for spans that
  live *outside* the stack entirely (a datagram in flight, a request
  sitting in a work queue), with explicit start/end times.

Trace IDs are drawn from a deterministic counter (never a random or
wall-clock source), so traces are reproducible run-to-run under the
seeded :class:`repro.netsim.clock.SimClock`.

Set ``tracer.enabled = False`` to make every span a throwaway: nothing
is recorded and the stack is untouched, which is the baseline the
tracing-overhead benchmark compares against.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.obs.metrics import HeldHandles

#: Recorded-span ceiling: beyond this the tracer stops *recording* (spans
#: still time correctly) so a runaway storm cannot grow memory unbounded.
MAX_RECORDED_SPANS = 200_000


class TracingError(Exception):
    """Span misuse: unbalanced start/end."""


class TraceContext:
    """The part of a trace that crosses a wire hop: ``(trace_id,
    span_id)`` of the sender's innermost span.  Out-of-band simulation
    metadata — an attacker can neither read nor forge it (forged or
    replayed datagrams travel context-less)."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: Optional[int] = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id!r}, span_id={self.span_id})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))


class Span:
    """One timed operation; part of a trace identified by request_id."""

    __slots__ = (
        "name", "span_id", "parent_id", "request_id",
        "start", "end", "attrs",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        request_id: str,
        start: float,
        attrs: Dict[str, object],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def trace_id(self) -> str:
        """The trace this span belongs to (same scheme as request_id)."""
        return self.request_id

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Simulated seconds from start to end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def context(self) -> TraceContext:
        """This span as a propagation context for a wire hop."""
        return TraceContext(self.request_id, self.span_id)

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.finished else "open"
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"rid={self.request_id}, {state})"
        )


class _Anchor:
    """A stack sentinel standing in for a *remote* parent span (pushed by
    :meth:`Tracer.adopt`).  Quacks enough like a span for parent lookup."""

    __slots__ = ("request_id", "span_id")

    def __init__(self, request_id: str, span_id: Optional[int]) -> None:
        self.request_id = request_id
        self.span_id = span_id


class Tracer(HeldHandles):
    """Records spans against a clock exposing ``now() -> float``.

    The clock is duck-typed so the module stays free of the simulator; in the
    simulation it is the network's :class:`SimClock`.  When a
    :class:`repro.obs.MetricsRegistry` is attached (``tracer.metrics``),
    recorded spans count into ``trace.spans_total{name}`` and overflow
    into ``trace.spans_dropped_total``.
    """

    def __init__(self, clock, max_spans: int = MAX_RECORDED_SPANS) -> None:
        self.clock = clock
        self.enabled = True
        #: The attached registry, or None; the held ``trace.spans_*``
        #: handles are keyed (series, span name).
        self.metrics = None
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self._stack: List[object] = []  # Spans and _Anchors
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    # -- internal helpers ----------------------------------------------------

    def _counter(self, series: str, name: Optional[str] = None):
        """Bind ``series`` — its ``name`` series, given one — the first
        time it is bumped."""
        handle = self._held[series, name] = self._metrics.counter(
            series, None if name is None else {"name": name}
        )
        return handle

    def _record(self, span: Span) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
            key = ("trace.spans_total", span.name)
        else:
            key = ("trace.spans_dropped_total", None)
        if self._metrics is not None:
            (self._held.get(key) or self._counter(*key)).inc()

    def _fresh_trace_id(self) -> str:
        return f"req-{next(self._request_ids):06d}"

    def _detached(self, name: str, attrs: Dict[str, object]) -> Span:
        """A throwaway span (tracing disabled): times correctly via the
        clock, never recorded, never on the stack.  ``span_id == 0``
        marks it so ``end_span`` knows to skip the stack check."""
        return Span(
            name=name, span_id=0, parent_id=None, request_id="",
            start=self.clock.now(), attrs=dict(attrs),
        )

    # -- span lifecycle ------------------------------------------------------

    def start_span(self, name: str, **attrs: object) -> Span:
        """Open a span; it becomes a child of the currently open span (or
        adopted remote context), or the root of a fresh trace if none is
        open."""
        if not self.enabled:
            return self._detached(name, attrs)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            request_id = parent.request_id
            parent_id: Optional[int] = parent.span_id
        else:
            request_id = self._fresh_trace_id()
            parent_id = None
        span = Span(
            name=name,
            span_id=next(self._span_ids),
            parent_id=parent_id,
            request_id=request_id,
            start=self.clock.now(),
            attrs=dict(attrs),
        )
        self._record(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> Span:
        """Close ``span``, which must be the innermost open span."""
        if span.span_id == 0:  # detached (tracing was disabled at start)
            span.end = self.clock.now()
            return span
        if not self._stack or self._stack[-1] is not span:
            raise TracingError(
                f"cannot end {span!r}: it is not the innermost open span"
            )
        self._stack.pop()
        span.end = self.clock.now()
        return span

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """``with tracer.span("client.as_exchange", client=...) as span:``

        On an exception the span still ends, with an ``error`` attribute
        recording the exception type and message.
        """
        span = self.start_span(name, **attrs)
        try:
            yield span
        except BaseException as exc:
            span.attrs.setdefault(
                "error", f"{type(exc).__name__}: {exc}"
            )
            raise
        finally:
            self.end_span(span)

    # -- cross-hop propagation ----------------------------------------------

    def context(self) -> Optional[TraceContext]:
        """The innermost open span (or adopted anchor) as a propagation
        context, or None when nothing is open."""
        if not self._stack:
            return None
        top = self._stack[-1]
        return TraceContext(top.request_id, top.span_id)

    def propagation_context(self) -> Optional[TraceContext]:
        """What the network stamps onto an outbound datagram: the current
        context, or None — un-instrumented traffic stays orphaned, which
        is itself a signal (forged packets can never carry a context)."""
        if not self.enabled:
            return None
        return self.context()

    def new_context(self) -> TraceContext:
        """A fresh root context (no parent span), drawn from the same
        trace-ID counter — for senders that want a trace per message
        without holding a span open (open-loop load generators)."""
        return TraceContext(self._fresh_trace_id(), None)

    @contextmanager
    def adopt(self, context: Optional[TraceContext]) -> Iterator[None]:
        """Parent spans opened inside the block to ``context`` (a remote
        sender's span) instead of the local stack — the server side of a
        wire hop.  With ``context=None`` the block starts a *fresh*
        trace: an un-traced arrival must not glue itself onto whatever
        unrelated span is open on the pumping caller's stack."""
        if not self.enabled:
            yield
            return
        if context is None:
            context = self.new_context()
        anchor = _Anchor(context.trace_id, context.span_id)
        self._stack.append(anchor)
        try:
            yield
        finally:
            if not self._stack or self._stack[-1] is not anchor:
                raise TracingError("adopt(): stack unbalanced at exit")
            self._stack.pop()

    @contextmanager
    def span_under(
        self, context: Optional[TraceContext], name: str, **attrs: object
    ) -> Iterator[Span]:
        """A server-side handler span parented to the datagram's
        propagated context: ``with tracer.span_under(dgram.trace,
        "kdc.as", ...)``.  Spans nested inside still stack normally."""
        with self.adopt(context):
            with self.span(name, **attrs) as span:
                yield span

    # -- non-stack spans (in-flight legs, queue residency) --------------------

    def open_span(
        self,
        name: str,
        context: Optional[TraceContext] = None,
        start: Optional[float] = None,
        **attrs: object,
    ) -> Span:
        """Open a span *outside* the stack: a datagram in flight or a
        request waiting in a queue overlaps arbitrary other work, so it
        cannot ride the synchronous stack.  Parented to ``context``
        (fresh root trace when None); close with :meth:`close_span`."""
        if not self.enabled:
            return self._detached(name, attrs)
        if context is None:
            context = self.new_context()
        span = Span(
            name=name,
            span_id=next(self._span_ids),
            parent_id=context.span_id,
            request_id=context.trace_id,
            start=self.clock.now() if start is None else start,
            attrs=dict(attrs),
        )
        self._record(span)
        return span

    def close_span(self, span: Span, end: Optional[float] = None) -> Span:
        """Close a span opened with :meth:`open_span` (no stack check)."""
        span.end = self.clock.now() if end is None else end
        return span

    # -- queries ------------------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        for frame in reversed(self._stack):
            if isinstance(frame, Span):
                return frame
        return None

    @property
    def current_request_id(self) -> Optional[str]:
        """The trace ID of the innermost open span (or adopted context),
        if any."""
        return self._stack[-1].request_id if self._stack else None

    def by_request(self, request_id: str) -> List[Span]:
        """Every span of one trace, in recording order."""
        return [s for s in self.spans if s.request_id == request_id]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def request_ids(self) -> List[str]:
        """Distinct trace IDs, in first-seen order."""
        return list(dict.fromkeys(span.request_id for span in self.spans))

    #: The propagated-context vocabulary alias: one scheme, two names.
    trace_ids = request_ids

    def hosts(self, request_id: Optional[str] = None) -> List[str]:
        """Distinct ``host`` attribute values across recorded spans (one
        trace, or all) — how many machines a trace actually touched."""
        spans = (
            self.by_request(request_id) if request_id is not None
            else self.spans
        )
        hosts = (span.attrs.get("host") for span in spans)
        return list(dict.fromkeys(h for h in hosts if isinstance(h, str)))

    def clear(self) -> None:
        """Forget recorded spans.  Open spans stay open (the stack is the
        live call structure and must stay balanced)."""
        self.spans = [s for s in self._stack if isinstance(s, Span)]
