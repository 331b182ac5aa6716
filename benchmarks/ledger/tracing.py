"""Where the time went: counts, handler spans, and the profile roll-up.

Everything here observes the program from outside ``src/``:

* **counts** are deltas of the program's own public counters (the
  metrics registry, the key-schedule cache statistics, the journal
  sequence) over a run — exact, and equal across same-seed runs;
* **handler spans** are wall-clock intervals around each server port
  handler, installed with ``Host.rebind``;
* **self shares** come from ``cProfile``: each function's own time is
  charged to the ``repro`` package it lives in, and the own time of C
  builtins, numpy and the standard library is charged to the ``repro``
  package that called them.

cProfile taxes every Python call and no C work, so shares lean toward
call-heavy layers; ``driver.trace_overhead_x`` says by how much the run
slowed, and the probes give per-unit costs free of that bias.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.crypto import keycache, modes
from repro.netsim import KDBM_PORT, KERBEROS_PORT, KPROP_PORT

from benchmarks.ledger.workloads import Workload

#: Every layer a share is reported for, in ledger order.
LAYERS = (
    "crypto", "encode", "database", "core.kdc", "core.client",
    "core.applib", "netsim", "runtime", "obs", "kdbm", "replication",
    "apps", "other",
)

#: ``repro`` sub-packages that are their own layer.
_PACKAGE_LAYERS = {
    "crypto", "encode", "database", "netsim", "runtime", "obs", "kdbm",
    "replication", "apps",
}

_PORT_LAYERS = {
    KERBEROS_PORT: "core.kdc",
    KDBM_PORT: "kdbm",
    KPROP_PORT: "replication",
}


_OWN_DIR = str(Path(__file__).resolve().parent)


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None for code outside
    ``repro`` (builtins, numpy, stdlib), whose time is charged to
    whoever called it.  This package's own frames are ``other``."""
    if filename.startswith(_OWN_DIR):
        return "other"
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    parts = filename[at + len(marker):].split("/")
    top = parts[0]
    if top in _PACKAGE_LAYERS:
        return top
    if top == "core" and len(parts) > 1:
        module = parts[1]
        if module == "kdc.py":
            return "core.kdc"
        if module == "client.py":
            return "core.client"
        # tickets, authenticators, messages, safe/priv, replay, caches ...
        return "core.applib"
    if top == "principal.py":
        return "core.applib"  # Figure 2 names: part of every message
    return "other"


# -- counts ------------------------------------------------------------------


def _histogram(metrics, name: str) -> Tuple[float, float]:
    """(count, sum) over every series of one histogram."""
    series = metrics.instruments(name)
    return sum(i.count for i in series), sum(i.sum for i in series)


def read_counters(workload: Workload) -> Dict[str, float]:
    """The program's own counters, as they stand now."""
    world = workload.world
    m = world.net.metrics
    batches, batched = _histogram(m, "kdc.batch_size")
    waits, waited = _histogram(m, "kdc.queue.wait_seconds")
    keys = keycache.stats()
    skeletons = keycache.skeleton_stats()
    journal = world.site.db.journal
    return {
        "datagrams": m.total("net.datagrams_total"),
        "wire_bytes": m.total("net.bytes_total"),
        "events": m.total("runtime.events_run_total"),
        "spans": m.total("trace.spans_total")
        + m.total("trace.spans_dropped_total"),
        "audit_events": m.total("audit.events_total")
        + m.total("audit.events_dropped_total"),
        "key_hits": keys["hit"],
        "key_misses": keys["miss"],
        "skeleton_hits": skeletons["hit"],
        "skeleton_misses": skeletons["miss"],
        "interleaved_blocks": modes.interleaved_blocks(),
        "kdc_requests": m.total("kdc.requests_total"),
        "kdc_batches": batches,
        "kdc_batched": batched,
        "lookups_saved": m.total("kdc.batch_lookups_saved_total"),
        "shed": m.total("kdc.outcomes_total", kind="shed"),
        "queue_waits": waits,
        "queue_waited_s": waited,
        "kdc_attempts": m.total("retry.attempts_total", op="as")
        + m.total("retry.attempts_total", op="tgs"),
        "journal_seq": journal.last_seq,
        "delta_bytes": m.total("repl.delta_bytes_total"),
        "full_dumps": m.total("repl.full_dumps_total"),
        "kprop_rounds": m.total("kprop.rounds_total"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(
    before: Dict[str, float],
    after: Dict[str, float],
    ops: int,
    steps: int,
    workload: Workload,
) -> Dict[str, Tuple[float, str]]:
    """Per-op counts and ratios from two ``read_counters`` snapshots."""
    d = {k: after[k] - before[k] for k in after}
    expected_attempts = steps * workload.kdc_exchanges_per_step
    return {
        "netsim.datagrams_per_op": (d["datagrams"] / ops, "count"),
        "netsim.wire_bytes_per_op": (d["wire_bytes"] / ops, "B"),
        "runtime.events_per_op": (d["events"] / ops, "count"),
        "obs.spans_per_op": (d["spans"] / ops, "count"),
        "obs.audit_events_per_op": (d["audit_events"] / ops, "count"),
        "crypto.keyschedule_miss_per_op": (d["key_misses"] / ops, "count"),
        "crypto.keyschedule_hit_share": (
            _ratio(d["key_hits"], d["key_hits"] + d["key_misses"]), "share"),
        "crypto.interleaved_blocks_per_op": (
            d["interleaved_blocks"] / ops, "count"),
        "crypto.skeleton_hit_share": (
            _ratio(d["skeleton_hits"],
                   d["skeleton_hits"] + d["skeleton_misses"]), "share"),
        "core.kdc.requests_per_op": (d["kdc_requests"] / ops, "count"),
        "core.kdc.batch_size_mean": (
            _ratio(d["kdc_batched"], d["kdc_batches"]), "count"),
        "core.kdc.lookups_saved_per_op": (d["lookups_saved"] / ops, "count"),
        "core.kdc.shed_share": (
            _ratio(d["shed"], d["shed"] + d["kdc_requests"]), "share"),
        "runtime.queue_wait_sim_ms_mean": (
            1e3 * _ratio(d["queue_waited_s"], d["queue_waits"]), "ms"),
        "core.client.retries_per_op": (
            (d["kdc_attempts"] - expected_attempts) / ops, "count"),
        "database.journal_entries_per_op": (d["journal_seq"] / ops, "count"),
        "replication.delta_bytes_per_op": (d["delta_bytes"] / ops, "B"),
        "replication.full_dumps": (d["full_dumps"], "count"),
    }


# -- handler spans -----------------------------------------------------------


class HandlerSpans:
    """Inclusive wall-clock spans around server port handlers.

    A span is ``(id, parent, layer, op, start, end)``; ``parent`` is the
    enclosing handler span's id, or 0 for the op itself.  Spans are kept
    in memory and written out by the caller when the run is over.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, int, float, float]] = []
        self.ops: List[Tuple[int, float, float]] = []
        self._op = 0
        self._open: List[int] = []
        self._next_id = 1

    def install(self, workload: Workload) -> None:
        ports = dict(_PORT_LAYERS)
        ports.update({port: "apps" for port in workload.app_ports})
        for host in workload.world.net.hosts():
            for port, layer in ports.items():
                handler = host.handler_for(port)
                if handler is not None:
                    host.rebind(port, self._wrap(handler, layer))

    def _wrap(self, handler, layer: str):
        def traced(datagram):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else 0
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                return handler(datagram)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans.append(
                    (span_id, parent, layer, self._op, start, end)
                )

        return traced

    def begin_op(self, op: int) -> None:
        self._op = op

    def end_op(self, op: int, start: float, end: float) -> None:
        self.ops.append((op, start, end))

    def metrics(
        self, ops: int, kprop_rounds: float, step_factors: List[float]
    ) -> Dict[str, Tuple[float, str]]:
        """Calibrated microseconds.  ``step_factors[op]`` is the
        calibrated-per-wall factor of the step a span ran in (steps are
        numbered from 0 in a measured run)."""
        total: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        outermost = 0.0
        for _id, parent, layer, op, start, end in self.spans:
            seconds = (end - start) * step_factors[op]
            total[layer] = total.get(layer, 0.0) + seconds
            calls[layer] = calls.get(layer, 0) + 1
            if parent == 0:
                outermost += seconds
        op_wall = sum(
            (end - start) * step_factors[op] for op, start, end in self.ops
        )

        def per_call(layer: str) -> float:
            return 1e6 * _ratio(total.get(layer, 0.0), calls.get(layer, 0))

        return {
            "core.kdc.handler_us_per_req": (per_call("core.kdc"), "us"),
            "apps.handler_us_per_call": (per_call("apps"), "us"),
            "kdbm.handler_us_per_req": (per_call("kdbm"), "us"),
            "replication.kpropd_us_per_round": (
                1e6 * _ratio(total.get("replication", 0.0), kprop_rounds),
                "us"),
            "core.client.side_us_per_op": (
                1e6 * (op_wall - outermost) / ops, "us"),
        }

    def to_json(self) -> dict:
        return {
            "ops": [list(row) for row in self.ops],
            "spans": [list(row) for row in self.spans],
            "columns": {
                "ops": ["op", "start", "end"],
                "spans": ["id", "parent", "layer", "op", "start", "end"],
            },
        }


# -- the profile roll-up -----------------------------------------------------


def _code_file(code) -> str:
    """Source file of a profiler entry's code; C functions have none."""
    return "" if isinstance(code, str) else code.co_filename


def _code_label(code) -> str:
    if isinstance(code, str):
        return code
    return f"{code.co_filename}:{code.co_firstlineno}:{code.co_name}"


def roll_up(profiler) -> Tuple[Dict[str, float], List[dict]]:
    """Self seconds per layer, and the per-function table.

    Own time of a function outside ``repro`` is split among its callers
    in proportion to the own time it spent under each, recursively, until
    a ``repro`` frame (or a root, which is ``other``) is reached.
    """
    entries = profiler.getstats()
    layer_by_code = {e.code: layer_of(_code_file(e.code)) for e in entries}
    # callee -> [(caller, callee's own seconds under that caller)]
    callers: Dict[object, List[Tuple[object, float]]] = {}
    for entry in entries:
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append(
                (entry.code, sub.inlinetime)
            )

    resolved: Dict[object, Dict[str, float]] = {}

    def owners(code, seen: frozenset) -> Dict[str, float]:
        """Fractions of ``code``'s own time owed to each layer."""
        layer = layer_by_code.get(code)
        if layer is not None:
            return {layer: 1.0}
        if code in resolved:
            return resolved[code]
        edges = [
            (caller, weight)
            for caller, weight in callers.get(code, ())
            if caller not in seen and weight > 0.0
        ]
        weight_sum = sum(weight for _caller, weight in edges)
        if not edges or weight_sum <= 0.0:
            return {"other": 1.0}
        shares: Dict[str, float] = {}
        inner = seen | {code}
        for caller, weight in edges:
            for name, part in owners(caller, inner).items():
                shares[name] = shares.get(name, 0.0) + part * weight / weight_sum
        if not seen:
            resolved[code] = shares
        return shares

    seconds = {layer: 0.0 for layer in LAYERS}
    table = []
    for entry in entries:
        split = owners(entry.code, frozenset())
        for name, part in split.items():
            seconds[name] += entry.inlinetime * part
        table.append({
            "function": _code_label(entry.code),
            "calls": entry.callcount,
            "self_s": entry.inlinetime,
            "charged_to": {k: round(v, 4) for k, v in split.items()},
        })
    table.sort(key=lambda row: -row["self_s"])
    return seconds, table


def share_metrics(seconds: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    total = sum(seconds.values())
    return {
        f"{layer}.self_share": (_ratio(seconds[layer], total), "share")
        for layer in LAYERS
    }
