"""A dependency-free metrics registry: counters, gauges, histograms.

The paper's quantitative claims are operational — KDC load at Athena
scale (Section 9), per-transaction authentication cost (the NFS
appendix), hourly slave propagation (Figure 13) — so the reproduction
keeps every one of them as an inspectable time series instead of ad-hoc
attributes scattered across components.

Instruments are keyed by ``(name, labels)`` where labels are a small
``str -> str`` mapping; asking for the same name with the same labels
(in any order) returns the same instrument.  Nothing in this module
reads the wall clock or any other ambient state: snapshots take the
current simulated time as an argument, which keeps them deterministic
under the seeded :class:`repro.netsim.clock.SimClock`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Labels as stored: a sorted tuple of (key, value) string pairs.
LabelsKey = Tuple[Tuple[str, str], ...]

#: Safety valve against unbounded label values (e.g. accidentally using
#: a per-user principal as a label at 5,000-user scale).
MAX_SERIES_PER_NAME = 1024


class MetricsError(Exception):
    """Misuse of the registry: kind clashes, cardinality blow-ups."""


def labels_key(labels: Optional[Mapping[str, object]]) -> LabelsKey:
    """Normalize a labels mapping to its canonical storage key."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Common shape of every metric: a name plus a label set.

    Instruments are allocated per label set but *touched* per event —
    every datagram, request, and cache probe — so the hierarchy uses
    ``__slots__``.
    """

    __slots__ = ("name", "labels")

    kind = "instrument"

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels

    @property
    def labels_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    def zero(self) -> None:  # pragma: no cover - overridden everywhere
        raise NotImplementedError


class Counter(Instrument):
    """A monotonically increasing count (datagrams, requests, hits)."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, name: str, labels: LabelsKey) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def zero(self) -> None:
        self.value = 0.0


class Gauge(Instrument):
    """A value that goes up and down (cache sizes, pending callbacks)."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self, name: str, labels: LabelsKey) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def zero(self) -> None:
        self.value = 0.0


class Histogram(Instrument):
    """A distribution over fixed, ascending bucket boundaries.

    A boundary ``b`` counts observations with ``value <= b`` (Prometheus
    ``le`` semantics); observations above the last boundary land in the
    implicit ``+Inf`` bucket, which exists only as ``count``.
    """

    __slots__ = ("boundaries", "bucket_counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelsKey, boundaries: Sequence[float]
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise MetricsError(f"histogram {name} needs at least one boundary")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricsError(
                f"histogram {name} boundaries must be strictly ascending: "
                f"{bounds}"
            )
        self.boundaries = bounds
        #: Non-cumulative per-bucket counts; index i holds observations in
        #: (boundaries[i-1], boundaries[i]].  Cumulative counts are derived
        #: at export time.
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        # Above every boundary: only the implicit +Inf bucket (count).

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """[(le, cumulative_count), ...] excluding the +Inf bucket."""
        out = []
        running = 0
        for bound, n in zip(self.boundaries, self.bucket_counts):
            running += n
            out.append((bound, running))
        return out

    def percentile(self, q: float) -> float:
        """Nearest-rank quantile estimate from the bucket boundaries.

        Returns the smallest boundary whose cumulative count covers the
        rank — i.e. an upper bound on the true quantile, as precise as
        the bucket layout.  An empty histogram estimates 0.0; a rank
        that falls in the implicit ``+Inf`` bucket returns ``inf`` (the
        layout cannot bound it).
        """
        if not 0.0 < q <= 1.0:
            raise MetricsError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = math.ceil(q * self.count)
        running = 0
        for bound, n in zip(self.boundaries, self.bucket_counts):
            running += n
            if running >= rank:
                return bound
        return math.inf

    def zero(self) -> None:
        self.bucket_counts = [0] * len(self.boundaries)
        self.sum = 0.0
        self.count = 0


class MetricsRegistry:
    """All instruments of one simulated world, by name + label tuple."""

    def __init__(self, max_series_per_name: int = MAX_SERIES_PER_NAME) -> None:
        self._instruments: Dict[Tuple[str, LabelsKey], Instrument] = {}
        self._kinds: Dict[str, str] = {}
        self._histogram_bounds: Dict[str, Tuple[float, ...]] = {}
        self.max_series_per_name = max_series_per_name
        self._series_per_name: Dict[str, int] = {}

    # -- instrument factories ------------------------------------------------

    def counter(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        boundaries: Sequence[float],
        labels: Optional[Mapping[str, object]] = None,
    ) -> Histogram:
        bounds = tuple(float(b) for b in boundaries)
        known = self._histogram_bounds.get(name)
        if known is not None and known != bounds:
            raise MetricsError(
                f"histogram {name} re-registered with different boundaries "
                f"({known} vs {bounds})"
            )
        instrument = self._get_or_create(
            Histogram, name, labels, boundaries=bounds
        )
        self._histogram_bounds[name] = bounds
        return instrument

    def _get_or_create(self, cls, name, labels, **kwargs):
        key = (name, labels_key(labels))
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricsError(
                    f"{name} already registered as a {existing.kind}, "
                    f"not a {cls.kind}"
                )
            return existing
        registered_kind = self._kinds.get(name)
        if registered_kind is not None and registered_kind != cls.kind:
            raise MetricsError(
                f"{name} already registered as a {registered_kind}, "
                f"not a {cls.kind}"
            )
        n = self._series_per_name.get(name, 0)
        if n >= self.max_series_per_name:
            raise MetricsError(
                f"{name} exceeds {self.max_series_per_name} label sets — "
                "a label value is probably unbounded (per-user? per-ticket?)"
            )
        instrument = cls(name, key[1], **kwargs)
        self._instruments[key] = instrument
        self._kinds[name] = cls.kind
        self._series_per_name[name] = n + 1
        return instrument

    # -- queries ----------------------------------------------------------------

    def instruments(self, name: Optional[str] = None) -> List[Instrument]:
        """All instruments (of one name, if given), deterministically sorted."""
        out = [
            inst
            for (n, _), inst in self._instruments.items()
            if name is None or n == name
        ]
        out.sort(key=lambda i: (i.name, i.labels))
        return out

    def get(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Optional[Instrument]:
        return self._instruments.get((name, labels_key(labels)))

    def total(self, name: str, **label_filter: object) -> float:
        """Sum the values of every counter/gauge under ``name`` whose
        labels are a superset of ``label_filter``."""
        wanted = {(str(k), str(v)) for k, v in label_filter.items()}
        total = 0.0
        for inst in self.instruments(name):
            if isinstance(inst, Histogram):
                raise MetricsError(f"total() is for counters/gauges, {name} is a histogram")
            if wanted <= set(inst.labels):
                total += inst.value
        return total

    # -- lifecycle ---------------------------------------------------------------

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero instruments (all, or those whose name has ``prefix``).

        Instruments stay registered, so a snapshot taken after a reset
        still reports the full schema — with zeros.
        """
        for (name, _), inst in self._instruments.items():
            if prefix is None or name.startswith(prefix):
                inst.zero()

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self, now: Optional[float] = None) -> dict:
        """A plain-dict view of every instrument, deterministically ordered.

        ``now`` is the *simulated* clock reading to stamp the snapshot
        with; this function never consults the wall clock.
        """
        counters, gauges, histograms = [], [], []
        for inst in self.instruments():
            entry = {"name": inst.name, "labels": inst.labels_dict}
            if isinstance(inst, Counter):
                entry["value"] = inst.value
                counters.append(entry)
            elif isinstance(inst, Gauge):
                entry["value"] = inst.value
                gauges.append(entry)
            elif isinstance(inst, Histogram):
                entry["buckets"] = [
                    [le, n] for le, n in inst.cumulative_buckets()
                ]
                entry["sum"] = inst.sum
                entry["count"] = inst.count
                histograms.append(entry)
        return {
            "version": 1,
            "clock": now,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


class HeldHandles:
    """Mixin: a reassignable ``metrics`` registry and the instrument
    handles its owner holds on it.

    Code that bumps a labelled series per event — every scheduled
    event, recorded span, audit event, queued item — used to look it up
    by name each time: a fresh dict, :func:`labels_key` and a sort,
    1.4 us against 0.15 for a held handle.  The owner keeps
    ``self._held[key]`` instead and binds a handle, in a method of its
    own, the *first time* its key is bumped — at attach it would put an
    empty series into every export.  Reassigning ``metrics`` (None
    detaches) drops what was held on the old registry."""

    _metrics = None

    @property
    def metrics(self):
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        self._held: dict = {}

