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
  sitting in a work queue), with explicit start/end times;
* :meth:`Tracer.record_instants` for spans written after the fact (a
  batch's handler spans), appended as rows in one pass.

Trace IDs are drawn from a deterministic counter (never a random or
wall-clock source), so traces are reproducible run-to-run under the
seeded :class:`repro.netsim.clock.SimClock`.

Set ``tracer.enabled = False`` to make every span a throwaway: nothing
is recorded and the stack is untouched, which is the baseline the
tracing-overhead benchmark compares against.

Recorded spans are kept in columns (:class:`SpanRows`), not as objects:
a span takes its row when it opens, a live :class:`Span` stands in the
row while it is open, and closing it writes its end time and attribute
record into the row and lets the object go.  Reading a closed row back
builds a :class:`ClosedSpan`.  A closed record equal to one the tracer
already stores is stored as that same tuple (:class:`_KeySet`): the
legs to one destination, a batch's handler spans and one service's
spans each keep one record, so a reader may rely on a record's value,
never on its identity.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Mapping, Sequence
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


class FrozenAttrs(Mapping):
    """A read-only view of a closed span's record, ``(keys, *values)``:
    it reads like the dict the attributes were, in insertion order.  The
    keys tuple is shared by every span with the same key-set, and the
    record by every span with equal attributes (:class:`_KeySet`)."""

    __slots__ = ("_record",)

    def __init__(self, record: tuple) -> None:
        self._record = record

    def __getitem__(self, key: str) -> object:
        record = self._record
        try:
            return record[record[0].index(key) + 1]
        except ValueError:
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._record[0])

    def __len__(self) -> int:
        return len(self._record[0])

    def __repr__(self) -> str:
        return repr(dict(zip(self._record[0], self._record[1:])))

    def _read_only(self, *args: object, **kwargs: object) -> None:
        raise TypeError("a closed span's attrs are read-only")

    __setitem__ = __delitem__ = _read_only
    update = setdefault = pop = popitem = clear = _read_only


#: The one record of every span that closes without attributes.
_NO_ATTRS = ((),)

#: How many records of a key-set :class:`_KeySet` compares a new one
#: against until one repeats: five, what a dict's smallest table holds.
_RECENT = 5
#: How many once a record of the key-set has repeated; a full table
#: starts over empty.
_REPEATING = 4096


class _KeySet:
    """The tracer's memory of one attribute key-set: the one keys tuple
    its records hold, and records already stored, so that an equal
    closed record is stored as the same tuple.  Until one of its records
    repeats, only the last :data:`_RECENT` are held — a key-set whose
    records never repeat (a login's root span, a queued item's own wait)
    costs one small table, not a slot per record; after that, up to
    :data:`_REPEATING`.

    Records are matched with ``==``, so an attribute must keep to one
    type of value (``True == 1 == 1.0``, ``0.0 == -0.0``): an equal value
    of another type would read back as the one stored first.  Every span
    in ``repro`` does."""

    __slots__ = ("keys", "stored", "limit")

    def __init__(self, keys: tuple) -> None:
        self.keys = keys
        self.stored: Dict[tuple, tuple] = {}
        self.limit = _RECENT

    def share(self, record: tuple) -> tuple:
        """The stored record equal to ``record``, or ``record`` itself
        (with this key-set's keys tuple), now stored."""
        stored = self.stored
        try:
            kept = stored.get(record)
        except TypeError:  # an unhashable value: kept as it is
            return record
        if kept is not None:
            self.limit = _REPEATING
            return kept
        if record[0] is not self.keys:
            record = (self.keys, *record[1:])
        if len(stored) >= self.limit:
            stored.clear()
        stored[record] = record
        return record


class Span:
    """One timed operation; part of a trace identified by request_id."""

    __slots__ = (
        "name", "span_id", "parent_id", "request_id",
        "start", "end", "_attrs", "_row",
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
        self._attrs = attrs
        #: Its row in the tracer's :class:`SpanRows`; -1 when unrecorded.
        self._row = -1

    @property
    def attrs(self) -> Mapping[str, object]:
        """A dict while the span is open; once it is closed, a read-only
        :class:`FrozenAttrs` view of its record."""
        attrs = self._attrs
        return attrs if type(attrs) is dict else FrozenAttrs(attrs)

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

    def _fields(self) -> tuple:
        return (
            self.name, self.span_id, self.parent_id, self.request_id,
            self.start, self.end, self._attrs,
        )

    def __hash__(self) -> int:
        return hash((self.request_id, self.span_id))

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.finished else "open"
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"rid={self.request_id}, {state})"
        )


class ClosedSpan(Span):
    """A closed row of :class:`SpanRows`, read back: a frozen copy of the
    span as it closed, equal to any span with the same fields."""

    __slots__ = ()

    def __init__(self, *fields: object) -> None:
        for slot, value in zip(Span.__slots__, fields):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("a closed span is read-only")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = Span.__hash__


#: What an open row's end column holds until its span closes.
_OPEN = float("nan")


class SpanRows(Sequence):
    """The recorded spans, one row each, in parallel columns: start and
    end times, span and parent ids (-1: no parent), names, trace ids, and
    ``records`` — the live :class:`Span` while its row is open, its
    ``(keys, *values)`` attribute record once it is closed.

    A read-only sequence: an open row reads as its live span, a closed
    one as a fresh :class:`ClosedSpan`.
    """

    __slots__ = (
        "starts", "ends", "ids", "parents", "names", "traces", "records",
    )

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.ids = array("q")
        self.parents = array("q")
        self.names: List[str] = []
        self.traces: List[str] = []
        self.records: List[object] = []

    def reserve(self, span: Span) -> None:
        """Give the open ``span`` the next row."""
        span._row = len(self.records)
        self.starts.append(span.start)
        self.ends.append(_OPEN)
        self.ids.append(span.span_id)
        parent = span.parent_id
        self.parents.append(-1 if parent is None else parent)
        self.names.append(span.name)
        self.traces.append(span.request_id)
        self.records.append(span)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        record = self.records[index]
        if type(record) is not tuple:
            return record
        parent = self.parents[index]
        return ClosedSpan(
            self.names[index], self.ids[index],
            None if parent < 0 else parent, self.traces[index],
            self.starts[index], self.ends[index], record, -1,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, SpanRows)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))

    def attrs(self, index: int) -> Mapping[str, object]:
        """Row ``index``'s attributes, without building its span."""
        record = self.records[index]
        return FrozenAttrs(record) if type(record) is tuple else record.attrs

    def closed(self) -> Iterator[tuple]:
        """``(name, trace_id, start, end, attrs)`` of every closed row,
        in recording order."""
        for name, trace, start, end, record in zip(
            self.names, self.traces, self.starts, self.ends, self.records
        ):
            if type(record) is tuple:
                yield name, trace, start, end, FrozenAttrs(record)


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
        self._rows = SpanRows()
        self._stack: List[object] = []  # Spans and _Anchors
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        #: Every key-set a closed span has had, by its keys.
        self._key_sets: Dict[tuple, _KeySet] = {}
        #: One copy of each span name the rows hold.
        self._names: Dict[str, str] = {}

    @property
    def spans(self) -> SpanRows:
        """The recorded spans, in recording order (read-only)."""
        return self._rows

    # -- internal helpers ----------------------------------------------------

    def _counter(self, series: str, name: Optional[str] = None):
        """Bind ``series`` — its ``name`` series, given one — the first
        time it is bumped."""
        handle = self._held[series, name] = self._metrics.counter(
            series, None if name is None else {"name": name}
        )
        return handle

    def _open(
        self,
        name: str,
        parent_id: Optional[int],
        request_id: str,
        start: float,
        attrs: Dict[str, object],
    ) -> Span:
        """A new recorded span, owning ``attrs`` (a fresh ``**attrs``
        dict) — given a row while there is room below ``max_spans``, only
        counted beyond it."""
        name = self._names.setdefault(name, name)
        span = Span(
            name, next(self._span_ids), parent_id, request_id, start, attrs
        )
        rows = self._rows
        if len(rows.records) < self.max_spans:
            rows.reserve(span)
            key = ("trace.spans_total", name)
        else:
            key = ("trace.spans_dropped_total", None)
        if self._metrics is not None:
            (self._held.get(key) or self._counter(*key)).inc()
        return span

    def _key_set(self, keys: tuple) -> _KeySet:
        key_set = self._key_sets.get(keys)
        if key_set is None:
            key_set = self._key_sets[keys] = _KeySet(keys)
        return key_set

    def _fresh_trace_id(self) -> str:
        return f"req-{next(self._request_ids):06d}"

    def _detached(
        self, name: str, attrs: Dict[str, object], start: Optional[float] = None
    ) -> Span:
        """A throwaway span (tracing disabled): times correctly via the
        clock, never recorded, never on the stack.  ``span_id == 0``
        marks it so ``end_span`` knows to skip the stack check."""
        return Span(
            name, 0, None, "", self.clock.now() if start is None else start,
            attrs,
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
        span = self._open(
            name, parent_id, request_id, self.clock.now(), attrs
        )
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> Span:
        """Close ``span``, which must be the innermost open span."""
        if span.span_id != 0:  # 0: detached (tracing was disabled at start)
            if not self._stack or self._stack[-1] is not span:
                raise TracingError(
                    f"cannot end {span!r}: it is not the innermost open span"
                )
            self._stack.pop()
        return self.close_span(span)

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
            return self._detached(name, attrs, start)
        if context is None:
            context = self.new_context()
        return self._open(
            name, context.span_id, context.trace_id,
            self.clock.now() if start is None else start, attrs,
        )

    def close_span(self, span: Span, end: Optional[float] = None) -> Span:
        """Close a span opened with :meth:`open_span` (no stack check).
        Its attribute dict becomes one tuple: the keys, interned per
        key-set, then the values — or the equal record already stored.
        The end time and that record go into the span's row, which stops
        holding the span."""
        span.end = end = self.clock.now() if end is None else end
        attrs = span._attrs
        if attrs:
            key_set = self._key_set(tuple(attrs))
            record = key_set.share((key_set.keys, *attrs.values()))
        else:
            record = _NO_ATTRS
        span._attrs = record
        row = span._row
        if row >= 0:
            self._rows.ends[row] = end
            self._rows.records[row] = record
        return span

    def record_instants(self, names, contexts, records) -> None:
        """Record spans written after the fact, opened and closed now:
        ``names[i]``, parented to ``contexts[i]`` as :meth:`open_span`
        does, keeping ``records[i]``, ``(keys, *values)``.  Ids, the
        ``max_spans`` cut, the counts and the stored records are those
        of an ``open_span``/``close_span`` pair per item; no
        :class:`Span`."""
        if not self.enabled:
            return
        rows, now, counts = self._rows, self.clock.now(), {}
        for name, context, record in zip(names, contexts, records):
            span_id = next(self._span_ids)
            if context is None:
                trace, parent = self._fresh_trace_id(), None
            else:
                trace, parent = context.trace_id, context.span_id
            if len(rows.records) < self.max_spans:
                rows.starts.append(now)
                rows.ends.append(now)
                rows.ids.append(span_id)
                rows.parents.append(-1 if parent is None else parent)
                rows.names.append(self._names.setdefault(name, name))
                rows.traces.append(trace)
                rows.records.append(self._key_set(record[0]).share(record))
                key = ("trace.spans_total", name)
            else:
                key = ("trace.spans_dropped_total", None)
            counts[key] = counts.get(key, 0) + 1
        if self._metrics is not None:
            for key, count in counts.items():
                (self._held.get(key) or self._counter(*key)).inc(count)

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
        rows = self._rows
        return [rows[i] for i, rid in enumerate(rows.traces) if rid == request_id]

    def roots(self) -> List[Span]:
        rows = self._rows
        return [rows[i] for i, parent in enumerate(rows.parents) if parent < 0]

    def children(self, span: Span) -> List[Span]:
        rows, span_id = self._rows, span.span_id
        return [rows[i] for i, parent in enumerate(rows.parents) if parent == span_id]

    def request_ids(self) -> List[str]:
        """Distinct trace IDs, in first-seen order."""
        return list(dict.fromkeys(self._rows.traces))

    #: The propagated-context vocabulary alias: one scheme, two names.
    trace_ids = request_ids

    def hosts(self, request_id: Optional[str] = None) -> List[str]:
        """Distinct ``host`` attribute values across recorded spans (one
        trace, or all) — how many machines a trace actually touched."""
        rows = self._rows
        hosts = (
            rows.attrs(i).get("host") for i, rid in enumerate(rows.traces)
            if request_id is None or rid == request_id
        )
        return list(dict.fromkeys(h for h in hosts if isinstance(h, str)))

    def clear(self) -> None:
        """Forget the closed rows and the records stored for sharing.
        Every open row stays, renumbered: the stack's spans (the live
        call structure must stay balanced) and spans opened off the
        stack, which close into their rows later."""
        open_spans = [r for r in self._rows.records if type(r) is not tuple]
        self._rows = SpanRows()
        self._key_sets = {}
        for span in open_spans:
            self._rows.reserve(span)
