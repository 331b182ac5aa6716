"""The table of structural rules (:data:`RULES`) and their predicates.

Adding a rule is adding a row: where a fact must hold, how to find a
breach or an anchor, where the tree shows one, and a planted offender.
"""

import ast
import linecache
import re
import symtable
from fnmatch import fnmatchcase

from tests.lint.harness import (
    DOCS, LOOPS, LOOPY, Rule, calls, descendants, each, functions, join,
    looped, modules, name_of, namespace, nodes,
)

SRC = ("src/repro/*",)
CRYPTO = "src/repro/crypto/"
DES_SIMD = CRYPTO + "des_simd.py"
MODES = CRYPTO + "modes.py"
KDC = "src/repro/core/kdc.py"
CLIENT = "src/repro/core/client.py"
STRUCTFMT = "src/repro/encode/structfmt.py"
DES_ORACLE = "tests/crypto/reference_des.py"
CODEC_ORACLE = "tests/encode/reference_codec.py"
PRIMITIVES = "tests/encode/primitives.py"
FORMATS_ORACLE = "tests/encode/reference_formats.py"
BENCH = "benchmarks/*"


def _str(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def call_sites(*names, on=(), attr=False, loops=None):
    """Calls of ``names`` (through an attribute if ``attr``, of a value
    named in ``on`` if given; inside a ``loops`` node if given)."""
    def find(tree):
        inside = looped(tree, loops) if loops else ()
        out = []
        for node in calls(tree, set(names)):
            dotted = isinstance(node.func, ast.Attribute)
            owner = name_of(node.func.value) if dotted else None
            if attr and not dotted or on and owner not in on:
                continue
            if loops and id(node) not in inside:
                continue
            prefix = f".{owner}." if on else "." if dotted else ""
            out.append((node.lineno, f"{prefix}{name_of(node.func)}()"))
        return out
    return find


def imports(tree):
    return [
        (node.lineno, f"from {node.module} import {alias.name}" if
         isinstance(node, ast.ImportFrom) else f"import {alias.name}")
        for node in nodes(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]


def imports_of(*names):
    return lambda tree: [site for site in imports(tree) if site[1].split()[-1] in names]


# -- Removed names, each under the PR that removed it, with how code is
# searched for one: ``word``, an identifier or string constant equal to it;
# ``part``, a pattern found in any identifier (the single-request path must
# not grow back under another name); ``text``, anywhere in the source,
# comments too.  A PR that removed names under two modes has one row per
# mode.  The docs' text is searched for each as a substring (a ``part``
# entry as its pattern).

REMOVED = {
    14: ("part", r"_serve\b", "_handle_as", "_handle_tgs", "_finish_prepared",
         "_as_ap_request", "seal_ticket_cached"),
    15: ("word", "_encode_value", "_decode_value", "_SCALAR_ENCODERS", "_SCALAR_DECODERS"),
    16: ("word", "kdc_addresses=", "kdc_directory", "set_kdcs", "set_kdc_list",
         "publish_kdcs", "count_deprecated", "deprecated_calls_total", "NetworkStats",
         "net.stats", ".as_requests", ".tgs_requests", "kdc_workers", "retries=", "n_slaves"),
    17: ("word", "reference_kernels", "crypt_int_ref", "repro.crypto.reference",
         "write_bench_artifact", "test_bench_perf_hotpath", "BENCH_PERF_HOTPATH"),
    22: ("text", "bind_audit"),
    24: ("word", "schedule_hourly", "ShardReferral", "sharded_locator", "_send_entries",
         "realm.sharding.RangeReceiver", "hesiod_kdcs", "hesiod_ring", "hesiod_shard_kdcs"),
    25: ("word", "ShardedRealm", "HesiodLocator", "ShardDirectory", "KDC_RECORD_PREFIX",
         "store_kdc_list", "ring=True"),
    26: ("word", "busy_hour", "login_job"),
    28: ("word", "refuse_through", "on_crash", "on_restart"),
    30: ("word", "mutation_listeners", "_notify_mutation", "_on_db_mutation",
         "invalidate_skeletons", "_TICKET_SUFFIX_LEN"),
    31: ("word", "AthenaWorkload", "repro.workload", "WorkloadStats", "BurstResult",
         "session_traffic", "workload.events_total", "workload.login"),
    34: ("word", "ProtocolTracer", "correlated_report", "repro.trace", "replay_from"),
    37: ("word", "attach_metrics", "crypto.keyschedule_total", "crypto.interleaved_blocks_total",
         "skeleton_get", "skeleton_put"),
    40: ("part", "test_bench_", "bench_util", "small_realm", "logged_in_workstation",
         "rlogin_principal"),
    41: ("word", "Encoder", "Decoder", "encode_into", "decode_from", "dump_position"),
    42: ("word", "call_at", "call_every", "pending_callbacks", "FlightRecorder", "series_key",
         "rpc_timeout"),
    44: ("word", "partition_master"),
    45: ("word", "SqliteStore", "sqlstore", "SupervisorConfig", "propagation_context",
         "_detached"),
    47: ("word", "HeldHandles", "trace_ids", "shed_count", "_life_series",
         "mappings_installed"),
    52: ("word", "start_span", "end_span", "span_under", "_Anchor", "current_batch",
         "current_batch_dispatched_at", "write_chrome_trace", "default_life"),
    53: ("word", "current_request_id"),
    54: (("word", "des_key_from_bytes", "_from_bytes_cached", "_key_cache", "KEY_CACHE_SIZE"),
         ("text", "DesKey.from_bytes")),
    56: ("text", "._enc_subkeys", "._dec_subkeys"),
}


def _removed(*modes):
    rows = [row for entry in REMOVED.values()
            for row in (entry if isinstance(entry[0], tuple) else (entry,))]
    return [name for mode, *names in rows if mode in modes for name in names]


WORDS = frozenset(_removed("word"))
PART = re.compile("|".join(_removed("part")))
TEXT = re.compile("|".join(map(re.escape, _removed("text"))))
IN_DOCS = re.compile("|".join(sorted(
    _removed("part") + [re.escape(name) for name in _removed("word", "text")],
    key=len, reverse=True)))


def _removed_in_code(tree):
    first = {}
    for node in nodes(tree):
        for field in ("id", "attr", "name", "arg", "asname", "module", "value"):
            token = getattr(node, field, None)
            if isinstance(token, str) and (token in WORDS or not isinstance(
                    node, ast.Constant) and PART.search(token)):
                first.setdefault(token, node.lineno)
    for lineno, line in enumerate(tree.source.splitlines(), 1):
        for match in TEXT.finditer(line):
            first.setdefault(match.group(), lineno)
    return [(line, name) for name, line in first.items()]


def _unknown_rule_ids(text):
    return [
        (lineno, f"no rule {token}") for lineno, line in enumerate(text.splitlines(), 1)
        for token in re.findall(r"`([a-z0-9]+(?:-[a-z0-9]+){2,})`", line)
        if token not in {rule.id for rule in RULES}
    ]


def _removed_in_docs(text):
    return [
        (lineno, match.group())
        for lineno, line in enumerate(text.splitlines(), 1)
        for match in IN_DOCS.finditer(line)
    ]


# -- Front doors: who authenticates, who verifies a transfer, who binds.

def _dotted_quads(tree):
    return [
        (node.lineno, f"address literal {node.value!r}") for node in nodes(tree)
        if _str(node) and len(parts := node.value.split(".")) == 4
        and all(p.isdigit() and int(p) <= 255 for p in parts)
    ]


def _obs_wiring(trees):
    return [
        (rel, node.lineno, f"{cls.name} reads .network.{node.attr}")
        for rel, cls in descendants(trees, "Service") for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and node.attr in ("metrics", "tracer", "audit")
        and name_of(node.value) == "network"
    ]


def _one_lifecycle(trees):
    for rel, cls in descendants(trees, "AuthenticatedService"):
        yield rel, cls.lineno, f"class {cls.name}"
        for hook in functions(cls, top=True).values():
            if hook.name in ("on_attach", "on_detach") and not any(
                isinstance(call.func, ast.Attribute) and call.func.attr == hook.name
                and isinstance(call.func.value, ast.Call)
                and name_of(call.func.value.func) == "super" for call in calls(hook)
            ):
                yield rel, hook.lineno, f"{cls.name}.{hook.name} skips super()"


def _transfer_side_doors(trees):
    from repro.replication import Kpropd, RangeReceiver, TransferReceiver

    for daemon in (Kpropd, RangeReceiver):
        if not issubclass(daemon, TransferReceiver) or daemon._handle is not \
                TransferReceiver._handle or daemon.ports is not TransferReceiver.ports:
            yield "src/repro/replication/receiver.py", 0, f"{daemon.__name__} has its own door"
    receivers = descendants(trees, "TransferReceiver")
    yield from ((rel, cls.lineno, f"class {cls.name}") for rel, cls in receivers)
    for rel, cls in dict.fromkeys(descendants(trees, "Service") + receivers):
        if not any(name_of(n) in ("KPROP_PORT", "SHARD_PORT") for n in ast.walk(cls)):
            continue
        if (rel, cls) not in receivers:
            yield rel, cls.lineno, f"{cls.name} binds a transfer port outside TransferReceiver"
        yield from (
            (rel, node.lineno, f"{cls.name}.{node.name} overrides the front door")
            for node in functions(cls, top=True).values() if node.name in ("ports", "_handle")
        )


def _inline_handlers(tree):
    return [
        (node.lineno, "handler_for()()") for node in calls(tree)
        if isinstance(node.func, ast.Call) and isinstance(node.func.func, ast.Attribute)
        and node.func.func.attr == "handler_for"
    ]


def _shape_tests(tree):
    return [
        (node.lineno, f".{side.attr} compared with None")
        for node in nodes(tree) if isinstance(node, ast.Compare)
        for op, pair in zip(node.ops, zip([node.left, *node.comparators], node.comparators))
        if isinstance(op, (ast.Is, ast.IsNot)) for side, other in (pair, pair[::-1])
        if isinstance(side, ast.Attribute)
        and side.attr in ("ring", "membership", "receiver", "directory")
        and isinstance(other, ast.Constant) and other.value is None
    ]


#: What a shard group holds; a realm has no second way to shard 0's.
SHARD_PARTS = {"db", "kdc", "kdbm", "kprop", "master_host", "slaves"}


def _realm_parts(tree):
    return [
        (node.lineno, f"realm.{node.attr}") for node in nodes(tree)
        if isinstance(node, ast.Attribute) and node.attr in SHARD_PARTS
        and name_of(node.value) == "realm"
    ]


# -- Determinism and the audit plane.

#: Ambient time, and draws on the module-global RNG (a seeded
#: ``random.Random`` is fine), by module.
AMBIENT = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "localtime", "gmtime"},
    **dict.fromkeys(("datetime", "date"), {"now", "utcnow", "today"}),
    "random": {"random", "randint", "randrange", "uniform", "choice", "choices", "shuffle",
               "sample", "gauss", "normalvariate", "expovariate", "betavariate",
               "getrandbits", "randbytes", "seed"},
}


def _ambient(tree):
    found, imported = [], set()
    for node in nodes(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("time", "random"):
            bad = [alias for alias in node.names if alias.name in AMBIENT[node.module]]
            found += [(node.lineno, f"from {node.module} import {a.name}") for a in bad]
            imported |= {a.asname or a.name for a in bad if node.module == "time"}
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in AMBIENT.get(getattr(node.func.value, "id", None), ()):
                found.append((node.lineno, f"{node.func.value.id}.{node.func.attr}()"))
        elif isinstance(node, ast.Call) and name_of(node.func) in imported:
            found.append((node.lineno, f"{node.func.id}()"))
    return found


def _stopwatches(tree):
    """A time or timeit import, an ambient read, or a test taking
    pytest-benchmark's ``benchmark`` fixture."""
    return [site for site in imports(tree) if site[1].split()[1] in ("time", "timeit")] \
        + [site for site in _ambient(tree) if not site[1].startswith("from ")] \
        + [(node.lineno, f"{node.name} takes the benchmark fixture") for node in nodes(tree)
           if isinstance(node, ast.FunctionDef)
           and "benchmark" in [arg.arg for arg in node.args.args]]


def _clock_movers(tree):
    """Every ``.advance`` — called, or handed out to be called later —
    and any ``.call_at``/``.call_every``: a second way to move or queue
    on the clock."""
    return [
        (node.lineno, f".{node.attr}") for node in nodes(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("advance", "call_at", "call_every")
    ]


def _audit_vocabulary(trees):
    from repro.obs.audit import AUDIT_KINDS

    emitted = set()
    for rel, tree in trees.items():
        emits = [call for call in calls(tree, {"emit", "emit_run"})
                 if isinstance(call.func, ast.Attribute)]
        for call in emits:
            if call.args and _str(call.args[0]) and call.args[0].value not in AUDIT_KINDS:
                yield (rel, call.lineno,
                       f"{call.func.attr}({call.args[0].value!r}) outside AUDIT_KINDS")
        # A kind may reach emit() through a variable, so every string of
        # an emitting module counts; defining the vocabulary does not.
        if emits and not rel.endswith("obs/audit.py"):
            emitted |= {node.value for node in nodes(tree) if _str(node)}
    for kind in AUDIT_KINDS:
        if kind not in emitted:
            yield "src/repro/obs/audit.py", 0, f"{kind!r} is never emitted"


# -- The cipher: one DES in src/, kernels that stay in arrays.

def _second_des(trees):
    for rel, tree in trees.items():
        if rel.endswith("/reference.py"):
            yield rel, 0, "a reference module"
        yield from ((rel, func.lineno, f"def {name}")
                    for name, func in functions(tree).items() if name.endswith("_ref"))
        if rel.startswith(CRYPTO):
            for name, func in functions(tree, top=True).items():
                if name in ("seal", "unseal"):
                    yield rel, func.lineno, f"def {name}"
                    yield from (
                        (rel, node.lineno, f"{name} indexes {ast.unparse(node)}")
                        for node in ast.walk(func)
                        if isinstance(node, ast.Subscript) and "mode" in ast.unparse(node.slice)
                    )


#: The functions of each module a block passes through.
KERNELS = {"des.py": ("crypt_int",), "des_simd.py": ("_ip", "_rounds", "_fp", "crypt_wide")}


def _expansion(trees):
    helpers = {name for tree in trees.values() for name in functions(tree, top=True)}
    for rel, tree in trees.items():
        for name, func in functions(tree, top=True).items():
            if name not in KERNELS.get(rel.rsplit("/", 1)[-1], ()):
                continue
            yield rel, func.lineno, f"kernel {name}"
            for node in ast.walk(func):
                named = name_of(node) or ""
                if named.startswith("_E") or named == "apply_permutation":
                    yield rel, node.lineno, f"{name} names {named}"
            yield from ((rel, line, f"{name} loop calls {what}")
                        for line, what in call_sites(*helpers, loops=LOOPS)(func))


def _oversized_tables(trees):
    def oversized(value):
        if not isinstance(value, (tuple, list)):
            return False
        if any(isinstance(row, (tuple, list)) for row in value):
            return any(oversized(row) for row in value)
        return len(value) > 4096

    for rel, tree in trees.items():
        space = namespace(rel, tree)
        yield from ((rel, 0, f"{name} holds over 4,096 entries")
                    for name, value in space.items() if oversized(value))
        if "_get_tables" in space and space["available"]():
            # The wide tables stack the single-lane ones: four at most.
            tables = space["_get_tables"]()
            yield from ((rel, 0, f"a wide table of {table.size} entries")
                        for table in tables if table.size > 4 * 4096)
            if sum(table.nbytes for table in tables) > 512 * 1024:
                yield rel, 0, "wide tables over 512 KiB"


#: The most lines of Python ``src/repro/crypto/`` may hold: what it held
#: when this ceiling landed.  Lower it whenever crypto/ shrinks; a change
#: that needs more lines there deletes as many first.
CRYPTO_LINES = 1967


def _crypto_lines(trees):
    total = sum(len(tree.source.splitlines()) for tree in trees.values())
    if total > CRYPTO_LINES:
        yield CRYPTO, 0, f"{total:,} lines, over {CRYPTO_LINES:,}"


#: Calls that move a step's lanes between arrays and Python objects, and
#: what reads a table (in the step loop, all but ``_rounds`` is IP or FP).
MARSHALLING = {"tolist", "append", "array"}
GATHERS = {"take", "gather", "_ip", "_fp", "_get_tables", "crypt_wide"}


def _seal_step(tree):
    """Each outermost loop stepping ``_rounds``, and everything in it that
    is not array work or reads a table outside the rounds."""
    for func in functions(tree).values():
        inner = set()
        for loop in ast.walk(func):
            if not isinstance(loop, LOOPS) or id(loop) in inner or not calls(loop, {"_rounds"}):
                continue
            inner |= {id(node) for node in ast.walk(loop)}
            yield loop.lineno, f"{func.name} steps _rounds"
            for node in ast.walk(loop):
                if node is not loop and isinstance(node, LOOPY):
                    yield node.lineno, f"{type(node).__name__} in the step loop"
                if isinstance(node, ast.Call) and name_of(node.func) in MARSHALLING | GATHERS:
                    yield node.lineno, f"{name_of(node.func)}() in the step loop"


def kernel_calls(*kernels):
    """Every call of a kernel, by caller, marked when it runs per item."""
    return lambda tree: [
        (call.lineno, f"{name} calls {name_of(call.func)}"
         + (" in a loop" if id(call) in looped(func) else ""))
        for name, func in functions(tree).items()
        for call in calls(func, set(kernels))
    ]


def _round_loops(tree):
    """Each loop gathering from a table in its own body (a sixteen-round
    loop, whatever it iterates), and who calls the rounds, IP and FP."""
    return [
        (loop.lineno, f"round loop in {func.name}")
        for func in functions(tree).values() for loop in ast.walk(func)
        if isinstance(loop, LOOPS) and calls(loop, {"take", "gather"})
    ] + kernel_calls("_rounds", "_ip", "_fp")(tree)


#: All the oracle takes from ``src/``: the published FIPS tables, the key
#: carrier (never its subkeys or packed schedule) and the permutation compiler.
ORACLE_IMPORTS = {
    "repro.crypto.des": ("_IP", "_FP", "_E", "_P", "_PC1", "_PC2", "_SHIFTS", "_SBOXES",
                         "BLOCK_SIZE", "DesKey"),
    "repro.crypto.bits": ("apply_permutation", "bytes_to_int", "compile_permutation",
                          "int_to_bytes"),
}


def _oracle_imports(tree):
    return imports(tree) + [
        (node.lineno, f"reads .{node.attr}") for node in nodes(tree)
        if isinstance(node, ast.Attribute) and node.attr.endswith(("_subkeys", "_schedule"))
    ]


# -- The KDC: one plane, per-batch work, handles instead of lookups.

#: The registry's one binder is ``family``, made where its owner is built
#: or attached; ``counter``/``gauge``/``histogram`` are its private bind step.
BINDERS = {"counter", "gauge", "histogram", "family"}
CONSTRUCTORS = {"__init__", "on_attach"}
#: Per module: the functions that run per batch or per event (they hold
#: handles).  The scope-wide checks keep every binder out of them; a
#: by-name *read* (``total``, a scan of the whole registry) binds nothing,
#: so only this list keeps one out.
HANDLES = {
    KDC: ("_serve_batch", "_unseal_all", "_get_record", "_issue_all", "_lookup_all",
          "_unseal_keys", "_admit", "_lookup_service", "_lookup_tgs_service"),
    "src/repro/runtime/scheduler.py": ("at", "step"),
    "src/repro/netsim/network.py": ("_wire_leg", "_dispatch"),
    "src/repro/netsim/faults.py": ("record",),
    CLIENT: ("_ask_kdc", "_failover_exchange", "as_exchange", "_tgs_exchange"),
    "src/repro/obs/tracing.py": ("_open", "record_instants"),
    "src/repro/obs/audit.py": ("emit_run",),
    "src/repro/runtime/workqueue.py": ("_count", "_gauge_depth", "_observe_waits"),
}


def _handles(trees):
    for rel, tree in trees.items():
        kept = {id(call) for node in nodes(tree)
                if isinstance(node, (ast.Dict, ast.DictComp)) or isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Subscript) for target in node.targets)
                for call in ast.walk(node)}
        # A def walked after the one around it: the innermost def wins.
        owner = {id(node): func for func in nodes(tree) if isinstance(func, ast.FunctionDef)
                 for node in nodes(func)}
        for call in calls(tree, BINDERS):
            func = owner.get(id(call))
            name = getattr(func, "name", "<module>")
            if id(call) in kept:
                yield rel, getattr(func, "lineno", call.lineno), f"{name} binds by hand"
            elif name_of(call.func) != "family":
                yield rel, call.lineno, f"{name} looks up {ast.unparse(call.func)}"
            elif name not in CONSTRUCTORS:
                yield rel, call.lineno, f"{name} makes a family"
        for name, func in functions(tree).items():
            if name not in HANDLES.get(rel, ()):
                continue
            # The registry itself, or a local name bound to it.
            registry = {"self.metrics", "self._metrics"}
            registry |= {target.id for node in nodes(func) if isinstance(node, ast.Assign)
                         and ast.unparse(node.value) in registry
                         for target in node.targets if isinstance(target, ast.Name)}
            lookups = [node for node in nodes(func) if isinstance(node, ast.Attribute)
                       and node.attr in BINDERS | {"total"}
                       and ast.unparse(node.value) in registry]
            yield from ((rel, node.lineno, f"{name} looks up {ast.unparse(node)}")
                        for node in lookups if node.attr == "total")
            if not lookups:
                yield rel, func.lineno, f"{name} reads handles"


#: The catalogue of every series (§2) and every span name (§3).
CATALOGUE = "docs/OBSERVABILITY.md"


def _strings(node):
    """The names a string expression stands for: a literal; an f-string,
    as a glob with ``*`` for each field; a dict comprehension, its values."""
    if isinstance(node, ast.DictComp):
        return _strings(node.value)
    if isinstance(node, ast.JoinedStr):
        return ["".join(part.value if _str(part) else "*" for part in node.values)]
    return [node.value] if _str(node) and node.value else []


def _names(*callees, at=0):
    """``(path, line, name)`` of each name a call of ``callees`` passes
    at ``at``: the first string (:func:`_strings`) in that argument, or
    the first name in it that assignments give strings (a class constant,
    the KDC's table of span names, the queue's label) as all of them."""
    def find(trees):
        constants = {}
        for node in (node for tree in trees.values() for node in nodes(tree)):
            for target in node.targets if isinstance(node, ast.Assign) else ():
                constants.setdefault(name_of(target), []).extend(_strings(node.value))
        constants.pop(None, None)
        for rel, tree in trees.items():
            for call in calls(tree, set(callees)):
                arg = call.args[at]
                names = next((names for node in ast.walk(arg) if (
                    names := _strings(node) or constants.get(name_of(node)))),
                    [f"{ast.unparse(arg)}, a name it cannot read"])
                yield from ((rel, call.lineno, name) for name in names)
    return find


def catalogue(section, named, verb, header=None):
    """Every name ``named`` finds in src/ has a row in a table of
    docs/OBSERVABILITY.md §``section`` (one headed ``header``, if given),
    and every row is one of them."""
    def find(trees):
        rows, inside, first = [], False, None
        for lineno, line in enumerate(trees.get(CATALOGUE, "").splitlines(), 1):
            inside = line.startswith(f"## {section}.") if line.startswith("## ") else inside
            first = (first or line.split("|")[1].strip()) if line.startswith("|") else None
            if inside and line.startswith("| `") and header in (None, first):
                rows += [(lineno, name) for name in re.findall(r"`([\w.<>]+)`", line.split("|")[1])]
        names = list(named({rel: t for rel, t in trees.items() if rel != CATALOGUE}))
        for rel, line, name in names:
            if not any(fnmatchcase(row, name) for _line, row in rows):
                yield rel, line, f"{name} has no row in §{section}"
        for line, row in rows:
            if not any(fnmatchcase(row, name) for *_site, name in names):
                yield CATALOGUE, line, f"{row} is {verb} nowhere in src/"
    return find


def _batch_of_one(tree):
    return [
        (node.lineno, "a batch-of-one test")
        for node in ast.walk(functions(tree).get("_serve_batch", ast.Module([], [])))
        if isinstance(node, ast.Compare)
        and "1" in (sides := {ast.unparse(side) for side in [node.left, *node.comparators]})
        and {"n", "len(datagrams)"} & sides
    ]


#: One-message entry points of the cipher, and the batch forms the stages
#: call instead.
PER_ITEM_CIPHER = {"seal", "unseal", "unseal_key", "encrypt_block", "session_key",
                   "session_key_bytes"}
BATCH_FORMS = ("unseal_keys", "session_keys_bytes", "seal_tickets_cached")


def _per_item_nodes(func):
    """ids of the nodes of ``func`` that run once per iteration of one of
    its loops (the iterable a loop walks is evaluated once)."""
    per_item = set()
    for loop in ast.walk(func):
        if isinstance(loop, ast.For):
            parts = loop.body + loop.orelse
        elif isinstance(loop, ast.While):
            parts = [loop.test] + loop.body + loop.orelse
        elif isinstance(loop, LOOPY):
            first, *rest = loop.generators
            parts = [getattr(loop, f, None) for f in ("elt", "key", "value")] + first.ifs + rest
        else:
            continue
        per_item |= {id(node) for part in parts if part is not None for node in ast.walk(part)}
    return per_item


def _per_item_cipher(tree):
    """One-message cipher calls that run once per item of a batch entering
    at ``_serve_batch``, following ``self.…()`` calls."""
    funcs, found, seen = functions(tree), set(), set()

    def visit(name, each_item):
        if (name, each_item) in seen or name not in funcs:
            return
        seen.add((name, each_item))
        per_item = _per_item_nodes(funcs[name])
        for node in calls(funcs[name]):
            item = each_item or id(node) in per_item
            if item and name_of(node.func) in PER_ITEM_CIPHER:
                found.add((node.lineno, f"{name} calls {name_of(node.func)}() per item"))
            if isinstance(node.func, ast.Attribute) and ast.unparse(node.func.value) == "self":
                visit(node.func.attr, item)

    visit("_serve_batch", False)
    reached = {name_of(call.func) for name, _ in seen for call in calls(funcs[name])}
    return sorted(found) + [(0, f"reaches {form}") for form in BATCH_FORMS if form in reached]


# -- The wire codec: compiled, never interpreted per message.

#: What per-message code may call at run time (``structfmt._RUNTIME``), and
#: every other global generated code may name (``_setattr`` binds the
#: fields of an interned class, past its refusing ``__setattr__``).
CODEC_RUNTIME = {"_refuse", "_require_int", "_as_float", "_as_bytes", "_too_long",
                 "_bad_length", "_bad_count", "_bad_boolean", "_short_read", "_field_error",
                 "_as_buffer"}
CODEC_GLOBALS = CODEC_RUNTIME | {
    "DecodeError", "_MISSING", "_new", "_setattr", "isinstance", "len", "type", "str",
    "bytes", "range", "list", "tuple", "hash", "int", "float", "bool", "UnicodeDecodeError",
}


def _kind_dispatch(tree):
    """Ways code could interpret a declaration: a type test on a
    ``kind``, a ``list:`` prefix test, a look at ``FIELDS``."""
    return sorted(set(call_sites("startswith", attr=True)(tree)) | {
        (node.lineno, f"{name_of(node.func)}(kind")
        for node in calls(tree, {"isinstance", "issubclass"})
        if node.args and ast.unparse(node.args[0]).startswith("kind")
    } | {(node.lineno, ".FIELDS") for node in ast.walk(tree)
         if isinstance(node, ast.Attribute) and node.attr == "FIELDS"})


def _bare_calls(tree):
    return {call.func.id for call in calls(tree) if isinstance(call.func, ast.Name)}


#: The methods that run once per message, in a codec class of any module.
PER_MESSAGE = {"to_bytes", "_decode_at", "read_at", "from_bytes"}


def _codec_runtime(trees):
    for rel, tree in trees.items():
        funcs, per_message, steps = functions(tree, top=True), {}, set()
        if any("_RUNTIME" in map(ast.unparse, getattr(node, "targets", ())) for node in tree.body):
            runtime = sorted(helper.__name__ for helper in namespace(rel, tree)["_RUNTIME"])
            yield rel, 0, f"_RUNTIME is {runtime}"
            yield from ((rel, funcs[name].lineno, f"compile step {name}")
                        for name in ("_compile", "_generate", "_list_item", "_check_kind")
                        if name in funcs)
            if "_list_item" in funcs and _kind_dispatch(funcs["_list_item"]):
                yield rel, 0, "_list_item tells kinds apart"
            per_message = {name: funcs[name] for name in CODEC_RUNTIME if name in funcs}
            steps = set(funcs) - CODEC_RUNTIME
        for cls in (node for node in nodes(tree) if isinstance(node, ast.ClassDef)):
            methods = functions(cls, top=True)
            if cls.name == "WireStruct" and steps:
                init = methods.pop("__init_subclass__")
                yield rel, init.lineno, f"__init_subclass__ calls {sorted(_bare_calls(init))}"
            else:
                methods = {n: m for n, m in methods.items() if n in PER_MESSAGE}
            per_message.update((f"{cls.name}.{n}", m) for n, m in methods.items())
        for name, func in per_message.items():
            yield from ((rel, line, f"{name}: {what}") for line, what in _kind_dispatch(func))
            yield from ((rel, func.lineno, f"{name} calls {callee}")
                        for callee in sorted(_bare_calls(func) & steps))


def _free_globals(table):
    names = {sym.get_name() for sym in table.get_symbols()
             if sym.is_global() and sym.is_referenced()}
    return names.union(*map(_free_globals, table.get_children()))


def _straight_line(trees):
    """Generated code names only its locals and the codec's globals, and
    tells no kinds apart (a planted offender stands in for it)."""
    from tests.encode.test_all_wire_structs import STRUCTS

    for rel, tree in trees.items():
        codes = {"planted": tree}
        if modules().get(rel) is tree:
            files = {cls.to_bytes.__code__.co_filename for cls in STRUCTS.values()}
            codes = {name: ast.parse("".join(linecache.getlines(name))) for name in files}
            if len(codes) < 40:
                yield rel, 0, f"only {len(codes)} codecs"
        for name, code in codes.items():
            if not {"to_bytes", "_decode_at"} <= {getattr(n, "name", "") for n in code.body}:
                yield rel, 0, f"{name}: no to_bytes/_decode_at"
            yield from ((rel, line, f"{name}: {what}") for line, what in _kind_dispatch(code))
            top = symtable.symtable(ast.unparse(code), name, "exec")
            yield from (
                (rel, 0, f"{name}: names {stray}")
                for stray in sorted(set().union(*map(_free_globals, top.get_children())))
                if stray not in CODEC_GLOBALS and not re.fullmatch(r"_c\d+", stray)
            )


# -- Planted offenders several rows share.

FRONT_DOOR_PLANT = (
    "from repro.core.applib import AuthenticatedService, krb_rd_req\n"
    "class Side(Service):\n"
    "    def on_attach(self):\n"
    "        self.audit = self.host.network.audit\n"
    "        self.cache = replay.ReplayCache()\n"
    "    def handle(self, d):\n"
    "        return krb_rd_req(d, None, None, d.src, 0.0, self.cache)\n"
    "class Keeps(AuthenticatedService):\n"
    "    def on_attach(self):\n"
    "        self.sessions = {}\n"
    "class Polite(Keeps):\n"
    "    def on_attach(self):\n"
    "        super().on_attach()\n"
)
TRANSFER_PLANT = (
    "from repro.replication.messages import DeltaTransfer, decode_prop_message\n"
    "class Loader(Service):\n"
    "    def ports(self):\n"
    "        return {SHARD_PORT: self.load}\n"
    "    def load(self, t):\n"
    "        if self.db.master_key.verify_checksum(t.body, t.checksum):\n"
    "            return self.db.master_key.checksum(t.body), checksum(t.body)\n"
    "class Trusting(TransferReceiver):\n"
    "    def __init__(self, db, port=SHARD_PORT):\n"
    "        super().__init__(db, port)\n"
    "    def _handle(self, d):\n"
    "        return self.apply_delta(d.payload)\n"
)
#: A KDC that serves one request on its own path and looks up its
#: instruments per batch and per item, once through a local alias.
KDC_PLANT = (
    "def _serve_batch(self, datagrams):\n"
    "    n = len(datagrams)\n"
    "    if n == 1:\n"
    "        return [decode_message(datagrams[0])]\n"
    "    if 1 == len(datagrams) or n > 2:\n"
    "        self.metrics.counter('kdc.x', self._labels).inc()\n"
    "    before = self.metrics.total('kdc.y')\n"
    "    self._metrics.gauge('kdc.z').set(n)\n"
    "    metrics = self.metrics\n"
    "    for item in datagrams:\n"
    "        n = self.metrics.total('kdc.requests_total')\n"
    "    return BatchWriter([metrics.total('b') for _ in datagrams])\n"
    "def _outcome(self, code):\n"
    "    return decode_message(self.metrics.counter('kdc.outcomes_total', code=code))\n"
    "def _admit(self, items):\n"
    "    return self._admitted.inc(len(items))\n"
    "def _counter(self, series, label):\n"
    "    handle = self._held[series, label] = self._metrics.counter(series, {'label': label})\n"
    "    return handle\n"
)
#: A client that looks its exchange histogram up by name per exchange.
CLIENT_PLANT = (
    "def as_exchange(self, client, password, service):\n"
    "    cred = self._as_exchange(client, password, service)\n"
    "    self.metrics.histogram('client.exchange_seconds', BUCKETS, {'type': 'as'}).observe(1.0)\n"
    "    return cred\n"
)


RULES = (
    # -- front doors --------------------------------------------------------
    Rule(
        "one-authenticate-site",
        "A ticket is checked in one place (AuthenticatedService); the __main__ demo is bare.",
        SRC, each(call_sites("krb_rd_req", "ReplayCache")),
        sites=(("src/repro/core/applib.py", "krb_rd_req()"),
               ("src/repro/core/applib.py", "ReplayCache()")),
        exclude=("src/repro/__main__.py",),
        plant=FRONT_DOOR_PLANT, hits=((5, ".ReplayCache()"), (7, "krb_rd_req()")),
    ),
    Rule(
        "services-wire-no-observability",
        "Service.attach sets metrics/tracer/audit; no subclass reads them off host.network.",
        SRC, _obs_wiring,
        plant=FRONT_DOOR_PLANT, hits=((4, "Side reads .network.audit"),),
    ),
    Rule(
        "authenticated-services-share-one-lifecycle",
        "Ticket-taking daemons inherit one crash model: hook overrides call super().",
        SRC, _one_lifecycle,
        sites=(("src/repro/apps/kerberized.py", "class KerberizedServer"),
               ("src/repro/apps/nfs/mountd.py", "class MountDaemon"),
               ("src/repro/apps/nfs/server.py", "class NfsServer"),
               ("src/repro/apps/pop.py", "class PopServer"),
               ("src/repro/apps/rlogin.py", "class RloginServer"),
               ("src/repro/apps/zephyr.py", "class ZephyrServer"),
               ("src/repro/core/kdc.py", "class KerberosServer"),
               ("src/repro/kdbm/server.py", "class KdbmServer"),
               ("src/repro/scenarios/engine.py", "class _EchoServer")),
        plant=FRONT_DOOR_PLANT,
        hits=((8, "class Keeps"), (9, "Keeps.on_attach skips super()"), (11, "class Polite")),
    ),
    Rule(
        "one-transfer-front-door",
        "Only the master's transfers load: one MAC, one check, in an untouched TransferReceiver.",
        SRC, join(each(call_sites("verify_checksum", "checksum", attr=True)),
                  _transfer_side_doors),
        sites=(("src/repro/replication/receiver.py", ".verify_checksum()"),
               ("src/repro/replication/kprop.py", ".checksum()"),
               ("src/repro/replication/kpropd.py", "class Kpropd"),
               ("src/repro/replication/receiver.py", "class RangeReceiver")),
        plant=TRANSFER_PLANT,
        hits=((2, "Loader binds a transfer port outside TransferReceiver"),
              (3, "Loader.ports overrides the front door"), (6, ".verify_checksum()"),
              (7, ".checksum()"), (8, "class Trusting"),
              (11, "Trusting._handle overrides the front door")),
    ),
    Rule(
        "sharding-speaks-no-transfer-framing",
        "realm/sharding.py hands bodies to its source shard's Kprop; it imports no framing.",
        ("src/repro/realm/sharding.py",),
        each(imports_of("decode_prop_message", "encode_prop_message", "DeltaTransfer",
                        "PropTransfer")),
        plant=TRANSFER_PLANT,
        hits=((1, "from repro.replication.messages import DeltaTransfer"),
              (1, "from repro.replication.messages import decode_prop_message")),
    ),
    Rule(
        "no-raw-bind",
        "Daemons bind through Service.attach; an attacker squatting a port (threat/) does not.",
        SRC, each(call_sites("bind", "rebind", attr=True)),
        sites=(("src/repro/core/service.py", ".bind()"),),
        exclude=("src/repro/threat/",),
        plant="def start(host):\n"
              "    host.bind(750, lambda d: b'')\n"
              "    host.rebind(751, lambda d: b'')\n",
        hits=((2, ".bind()"), (3, ".rebind()")),
    ),
    Rule(
        "one-wire-tap",
        "The wire is one obs plane: only WireRecorder (the eavesdropper's and replayer's base) taps it.",
        SRC + (BENCH,), each(call_sites("add_tap", attr=True)),
        sites=(("src/repro/obs/wire.py", ".add_tap()"),),
        plant="def watch(net, captured):\n"
              "    net.add_tap(lambda d: captured.append(d.payload))\n"
              "    return net.remove_tap\n",
        hits=((2, ".add_tap()"),),
    ),
    Rule(
        "no-inline-handler-call",
        "A handler_for(...) handler called inline skips the scheduler, its faults and seeds.",
        SRC, each(_inline_handlers),
        plant="def shortcut(host, datagram):\n"
              "    return host.handler_for(750)(datagram)\n"
              "def is_bound(host):\n"
              "    return host.handler_for(750) is not None\n",
        hits=((2, "handler_for()()"),),
    ),
    Rule(
        "no-raw-store-mutation",
        "Deltas are right only if the journal sees every write: only database/ touches .store.",
        SRC, each(call_sites("put", "delete", "clear", on=("store",))),
        exclude=("src/repro/database/",),
        plant="def sneak(db, cache, key, value):\n"
              "    db.store.put(key, value)\n"
              "    db.store.delete(key)\n"
              "    self.db.store.clear()\n"
              "    cache.put(key, db.store.get(key))\n"
              "    return list(db.store.items()), db.store.keys()\n",
        hits=((2, ".store.put()"), (3, ".store.delete()"), (4, ".store.clear()")),
    ),
    Rule(
        "no-kdc-address-literal",
        "KDC addresses are a locator's answers, never constants: no dotted quad in src/repro.",
        SRC, each(_dotted_quads),
        plant="ADDR = '18.72.0.100'\nKDCS = ['18.72.0.1']\nVERSION = '1.2.3'\n",
        hits=((1, "address literal '18.72.0.100'"), (2, "address literal '18.72.0.1'")),
        mark="shard",
    ),
    Rule(
        "realm-is-always-a-ring",
        "ring/membership/receiver exist at every shard count; nothing tests them against None.",
        SRC, each(_shape_tests),
        plant="def route(realm, site, key):\n"
              "    if realm.ring is None:\n"
              "        return 0\n"
              "    if site.membership is not None and None is not site.receiver:\n"
              "        return realm.ring.shard_for(key)\n"
              "    assert realm.directory is None\n"
              "    ring = None\n"
              "    return ring is None or site.kdc.shard is None\n",
        hits=((2, ".ring compared with None"), (4, ".membership compared with None"),
              (4, ".receiver compared with None"), (6, ".directory compared with None")),
    ),
    Rule(
        "realm-parts-through-shards",
        "A realm is its shards: a master, its database, KDC, KDBM, kprop and slaves are "
        "read off realm.shards[i], never off the realm.",
        ("src/*", "tests/*", BENCH, "examples/*"), each(_realm_parts),
        plant_at="examples/planted.py",
        plant="def check(realm, world, realm_a):\n"
              "    site = realm.shards[0]\n"
              "    world.realm.kdc.db, site.db, realm_a.kdbm\n"
              "    return realm.db, realm.slaves[0].kprop, realm.kdc_addresses()\n",
        hits=((3, "realm.kdc"), (4, "realm.db"), (4, "realm.slaves")),
    ),
    # -- determinism and audit ---------------------------------------------
    Rule(
        "time-moves-only-in-the-runtime",
        "One queue and one loop: the scheduler alone advances the clock, nothing queues on "
        "the clock itself, and events run only inside the runtime's wait.",
        SRC, each(join(_clock_movers, call_sites("step", "next_time", on=("runtime",)))),
        sites=(("src/repro/runtime/scheduler.py", ".advance"),) * 2,
        plant="def run_with_failover(policy, clock, endpoints, attempt, sleep=None):\n"
              "    if sleep is None:\n"
              "        reference = getattr(clock, 'reference', clock)\n"
              "        sleep = reference.advance\n"
              "    clock.call_at(clock.now() + 1.0, attempt)\n"
              "    net.clock.call_every(3600.0, attempt)\n"
              "    net.runtime.run_for(policy.base_delay)\n"
              "def _pump(self, pending, deadline):\n"
              "    while not pending.done and self.runtime.next_time() <= deadline:\n"
              "        self.runtime.step()\n"
              "    self.runtime.wait(pending, deadline)\n",
        hits=((4, ".advance"), (5, ".call_at"), (6, ".call_every"),
              (9, ".runtime.next_time()"), (10, ".runtime.step()")),
    ),
    Rule(
        "no-wall-clock-or-global-rng",
        "Time is the seeded SimClock and randomness a seeded Random: same seed, same bytes.",
        SRC, each(_ambient),
        plant="import random\n"
              "import time\n"
              "from time import perf_counter\n"
              "from random import randint\n"
              "ok = random.Random(7)\n"
              "def f():\n"
              "    ok.random()\n"
              "    return time.time() + perf_counter() + random.random() + datetime.now()\n",
        hits=((3, "from time import perf_counter"), (4, "from random import randint"),
              (8, "datetime.now()"), (8, "perf_counter()"), (8, "random.random()"),
              (8, "time.time()")),
    ),
    Rule(
        "experiments-read-no-clock",
        "A row observes counts, bytes, digests and sim time; wall time is benchmarks/ledger/'s.",
        (BENCH,), each(_stopwatches),
        plant="import time\n"
              "from timeit import timeit\n"
              "from datetime import datetime\n"
              "def test_row(benchmark):\n"
              "    t0 = time.perf_counter()\n"
              "    return benchmark(lambda: None), datetime.now() - t0\n",
        hits=((1, "import time"), (2, "from timeit import timeit"),
              (4, "test_row takes the benchmark fixture"), (5, "time.perf_counter()"),
              (6, "datetime.now()")),
    ),
    Rule(
        "audit-event-built-in-one-module",
        "Events go through AuditLog.emit, which checks the kind, stamps seq/time and counts.",
        SRC, each(call_sites("AuditEvent")),
        sites=(("src/repro/obs/audit.py", "AuditEvent()"),),
        plant="from repro.obs.audit import AuditEvent\n"
              "import repro.obs.audit as audit\n"
              "e1 = AuditEvent(1, 0.0, 'auth_failure', 'h', '', '', '')\n"
              "e2 = audit.AuditEvent(2, 0.0, 'auth_failure', 'h', '', '', '')\n"
              "ok = audit.AuditLog(None)\n",
        hits=((3, "AuditEvent()"), (4, ".AuditEvent()")),
        mark="obs",
    ),
    Rule(
        "one-span-store",
        "Spans are recorded as rows of the Tracer's columns: only obs/tracing.py builds a Span.",
        ("src/*", "tests/*", BENCH), each(call_sites("Span")),
        sites=(("src/repro/obs/tracing.py", "Span()"),),
        plant="from repro.obs import tracing\n"
              "from repro.obs.tracing import Span\n"
              "kept = [Span('op', 1, None, 'req-000001', 0.0, {})]\n"
              "kept.append(tracing.Span('op', 2, 1, 'req-000001', 0.0, {}))\n"
              "rows = tracing.Tracer(None).spans\n",
        hits=((3, "Span()"), (4, ".Span()")),
    ),
    Rule(
        "audit-kinds-match-the-vocabulary",
        "A literal emit()/emit_run() kind is in AUDIT_KINDS, and each kind is emitted somewhere.",
        SRC, _audit_vocabulary,
        plant="KINDS = ('auth_success', 'auth_failure', 'preauth_failure', 'replay_detected',\n"
              "         'acl_denial', 'tampered_propagation', 'overload_shed',\n"
              "         'master_promoted', 'slave_rejoined')\n"
              "def warn(audit):\n"
              "    audit.emit('auth_sucess', host='h')\n"
              "    audit.emit_run('auth_succes', 'h', [''], [None], [''])\n",
        hits=((0, "'shard_rebalanced' is never emitted"),
              (5, "emit('auth_sucess') outside AUDIT_KINDS"),
              (6, "emit_run('auth_succes') outside AUDIT_KINDS")),
        mark="obs",
    ),
    # -- the cipher ---------------------------------------------------------
    Rule(
        "crypto-does-not-grow",
        "crypto/ only shrinks: its Python lines stay under a ceiling lowered as it does.",
        (CRYPTO + "*.py",), _crypto_lines,
        plant="pass\n" * (CRYPTO_LINES + 1),
        hits=((0, f"{CRYPTO_LINES + 1:,} lines, over {CRYPTO_LINES:,}"),),
    ),
    Rule(
        "crypto-owns-no-registry",
        "The cipher library reports to nobody: its tallies are read, never mirrored into a realm.",
        (CRYPTO + "*",),
        each(join(lambda tree: [site for site in imports(tree) if site[1].split()[1] == "weakref"],
                  call_sites("counter", "gauge", "histogram", "family", attr=True))),
        plant_at=CRYPTO + "keycache.py",
        plant="import weakref\n"
              "from weakref import ref\n"
              "def attach(metrics, labels):\n"
              "    hit = metrics.counter('crypto.hits', labels)\n"
              "    return ref(metrics), hit, metrics.histogram('crypto.x', (1.0,))\n",
        hits=((1, "import weakref"), (2, "from weakref import ref"), (4, ".counter()"),
              (5, ".histogram()")),
    ),
    Rule(
        "no-per-block-conversion",
        "Modes convert bytes<->int once a message; per-block conversion is the oracle's own.",
        (CRYPTO + "*", DES_ORACLE),
        each(call_sites("bytes_to_int", "int_to_bytes", "from_bytes", "to_bytes", loops=LOOPS)),
        exclude=(DES_ORACLE,),
        plant="def f(key, data):\n"
              "    out = []\n"
              "    for i in range(0, len(data), 8):\n"
              "        block = bytes_to_int(data[i:i + 8])\n"
              "        out.append(int_to_bytes(block, 8))\n"
              "    n = int.from_bytes(data[:8], 'big')\n"
              "    while n:\n"
              "        n = int.from_bytes(data[:4], 'big') - 1\n"
              "    return out\n",
        hits=((4, "bytes_to_int()"), (5, "int_to_bytes()"), (8, ".from_bytes()")),
    ),
    Rule(
        "src-holds-one-des",
        "No *_ref or reference module in src/; seal/unseal call kernels by name, not by mode.",
        (*SRC, DES_ORACLE), _second_des,
        sites=((MODES, "def seal"), (MODES, "def unseal")),
        exclude=(DES_ORACLE,),
        plant_at=CRYPTO + "reference.py",
        plant="def pcbc_encrypt_ref(key, data): ...\n"
              "def seal(key, data, iv, mode):\n"
              "    header = data[:8]\n"
              "    return _ENCRYPTORS[mode](key, _frame(data), iv)\n",
        hits=((0, "a reference module"), (1, "def pcbc_encrypt_ref"), (2, "def seal"),
              (4, "seal indexes _ENCRYPTORS[mode]")),
    ),
    Rule(
        "no-expansion-in-block-kernels",
        "Kernels keep both halves E-expanded: no _E*, apply_permutation or per-round helper.",
        (CRYPTO + "bits.py", CRYPTO + "des.py", DES_SIMD), _expansion,
        sites=((CRYPTO + "des.py", "kernel crypt_int"), (DES_SIMD, "kernel _ip"),
               (DES_SIMD, "kernel _rounds"), (DES_SIMD, "kernel _fp"),
               (DES_SIMD, "kernel crypt_wide")),
        plant_at=CRYPTO + "des.py",
        plant="def _feistel(b, k): ...\n"
              "def crypt_int(block, subkeys, _e=_E_B):\n"
              "    b = apply_permutation(_IP_C, block)\n"
              "    for k in subkeys:\n"
              "        b ^= _feistel(b, k)\n"
              "        b ^= table.take(b)\n"
              "    return des._E_WIDE[b]\n",
        hits=((2, "crypt_int names _E_B"), (2, "kernel crypt_int"),
              (3, "crypt_int names apply_permutation"), (5, "crypt_int loop calls _feistel()"),
              (7, "crypt_int names _E_WIDE")),
    ),
    Rule(
        "no-kernel-table-over-4096",
        "No kernel table over 4,096 entries (two 65,536-entry E tables were ~5 MiB of import).",
        (CRYPTO + "des.py", DES_SIMD), _oversized_tables,
        plant_at=CRYPTO + "des.py",
        plant="BIG = tuple(range(4097))\n"
              "ROWS = [[0] * 64] * 16\n"
              "NESTED = ((0,) * 4097, (1,))\n",
        hits=((0, "BIG holds over 4,096 entries"), (0, "NESTED holds over 4,096 entries")),
    ),
    Rule(
        "modes-call-each-kernel-once",
        "Unsealing is one crypt_wide pass, a sealing run one call; no kernel call in a loop.",
        (MODES,), each(kernel_calls("crypt_wide", "pcbc_encrypt_wide", "_rounds")),
        sites=((MODES, "_ecb calls crypt_wide"), (MODES, "pcbc_decrypt_many calls crypt_wide"),
               (MODES, "_pcbc_encrypt_run calls pcbc_encrypt_wide")),
        plant="def _pcbc_run_wide(jobs):\n"
              "    while step < depth:\n"
              "        y = des_simd.crypt_wide(blk ^ chains[:active], km)\n"
              "def pcbc_decrypt_many(items):\n"
              "    for key, data in items:\n"
              "        plain = crypt_wide(data, keymat([key]))\n"
              "    return [crypt_wide(d, km) for d in items], crypt_wide(all, km)\n"
              "def seal_many(items):\n"
              "    return pcbc_encrypt_wide(items)\n",
        hits=((3, "_pcbc_run_wide calls crypt_wide in a loop"),
              (6, "pcbc_decrypt_many calls crypt_wide in a loop"),
              (7, "pcbc_decrypt_many calls crypt_wide"),
              (7, "pcbc_decrypt_many calls crypt_wide in a loop"),
              (9, "seal_many calls pcbc_encrypt_wide")),
    ),
    Rule(
        "des-simd-one-round-loop",
        "des_simd: one sixteen-round loop both forms call, IP/FP once a run, an array-only step.",
        (DES_SIMD,), each(join(_round_loops, _seal_step)),
        sites=((DES_SIMD, "round loop in _rounds"), (DES_SIMD, "crypt_wide calls _ip"),
               (DES_SIMD, "crypt_wide calls _rounds"), (DES_SIMD, "crypt_wide calls _fp"),
               (DES_SIMD, "pcbc_encrypt_wide calls _ip"),
               (DES_SIMD, "pcbc_encrypt_wide calls _fp"),
               (DES_SIMD, "pcbc_encrypt_wide calls _rounds in a loop"),
               (DES_SIMD, "pcbc_encrypt_wide steps _rounds")),
        # A run form that forks the round loop and goes back to IP, FP and
        # Python lists per step.
        plant="def _rounds(x, y, rows, t, per_lane4):\n"
              "    for r in range(0, 16, 2):\n"
              "        x ^= merge(gather(fields), per_lane4)\n"
              "def pcbc_encrypt_wide(plain, chains, km, running):\n"
              "    x, y = _ip(d.ravel())\n"
              "    for step, alive in enumerate(running):\n"
              "        while active and lens[active - 1] <= step:\n"
              "            active -= 1\n"
              "        xs, ys = _ip(plain[step] ^ chains)\n"
              "        _rounds(xs, ys, rows, t, per_lane4)\n"
              "        lanes = np.array([v for v in xs.tolist()])\n"
              "        out.append(fp_x.take(fields))\n"
              "        chains = plain[step] ^ _fp(xs, ys)\n"
              "def crypt_wide(blocks, km):\n"
              "    x, y = _ip(blocks)\n"
              "    for k0, k1 in pairs(km):\n"
              "        x ^= merge(sp.take(fields), per_lane4)\n"
              "    return _fp(x, y)\n",
        hits=((2, "round loop in _rounds"), (5, "pcbc_encrypt_wide calls _ip"),
              (6, "pcbc_encrypt_wide steps _rounds"), (6, "round loop in pcbc_encrypt_wide"),
              (7, "While in the step loop"), (9, "_ip() in the step loop"),
              (9, "pcbc_encrypt_wide calls _ip in a loop"),
              (10, "pcbc_encrypt_wide calls _rounds in a loop"), (11, "ListComp in the step loop"),
              (11, "array() in the step loop"), (11, "tolist() in the step loop"),
              (12, "append() in the step loop"), (12, "take() in the step loop"),
              (13, "_fp() in the step loop"), (13, "pcbc_encrypt_wide calls _fp in a loop"),
              (15, "crypt_wide calls _ip"), (16, "round loop in crypt_wide"),
              (18, "crypt_wide calls _fp")),
    ),
    Rule(
        "oracle-imports-only-published-tables",
        "The DES oracle takes FIPS tables, the key carrier and the permutation compiler only.",
        (DES_ORACLE,), each(_oracle_imports),
        sites=tuple((DES_ORACLE, f"from {module} import {name}")
                    for module, names in ORACLE_IMPORTS.items() for name in names),
        plant="import numpy\n"
              "from repro.crypto.des import _IP, crypt_int\n"
              "from repro.crypto.modes import seal\n"
              "rows = key.encrypt_subkeys\n"
              "packed = key._schedule\n",
        hits=((1, "import numpy"), (2, "from repro.crypto.des import _IP"),
              (2, "from repro.crypto.des import crypt_int"),
              (3, "from repro.crypto.modes import seal"), (4, "reads .encrypt_subkeys"),
              (5, "reads ._schedule")),
    ),
    # -- the KDC pipeline ---------------------------------------------------
    Rule(
        "no-copy-in-batch-framing",
        "Batch frames are memoryviews over one buffer: no bytes()/bytearray() in a loop.",
        ("src/repro/encode/batch.py",), each(call_sites("bytes", "bytearray", loops=LOOPY)),
        plant="def frames(buffer):\n"
              "    out, pos = [], 0\n"
              "    while pos < len(buffer):\n"
              "        out.append(bytes(buffer[pos:pos + 8]))\n"
              "        pos += 8\n"
              "    return out, [bytearray(f) for f in out], bytes(8)\n",
        hits=((4, "bytes()"), (6, "bytearray()")),
    ),
    Rule(
        "no-registry-scan-per-item",
        "metrics.total() sorts the registry (8,256 scans per 4,096 requests): not in a loop.",
        (KDC,), each(call_sites("total", on=("metrics", "_metrics"), loops=LOOPY)),
        plant=KDC_PLANT, hits=((11, ".metrics.total()"), (12, ".metrics.total()")),
    ),
    Rule(
        "single-request-is-a-batch-of-one",
        "Only _serve_batch decodes and builds replies, with no batch-of-one branch.",
        (KDC,), each(join(kernel_calls("decode_message", "BatchWriter"), _batch_of_one)),
        sites=((KDC, "_serve_batch calls BatchWriter"),
               (KDC, "_serve_batch calls decode_message in a loop")),
        plant=KDC_PLANT,
        hits=((3, "a batch-of-one test"), (4, "_serve_batch calls decode_message"),
              (5, "a batch-of-one test"), (12, "_serve_batch calls BatchWriter"),
              (14, "_outcome calls decode_message")),
    ),
    Rule(
        "pipeline-reads-handles",
        "A series is bound once, through the registry's family, when its owner is built or "
        "attached; nothing looks one up by name or keeps one in a dict.",
        (*SRC, "examples/*", BENCH), _handles,
        sites=tuple((rel, f"{name} reads handles") for rel, per in HANDLES.items()
                    for name in per)
        # The registry's smoke test binds a registry of its own, once.
        + 3 * (("src/repro/obs/selfcheck.py", "check_standalone makes a family"),),
        plant_at=KDC, plant=KDC_PLANT,
        # A network, an NFS server and kprop that look series up per event.
        plants=((CLIENT, CLIENT_PLANT),
                ("src/repro/netsim/network.py",
                 "def _dispatch(self, datagram):\n"
                 "    self.metrics.total('net.datagrams_total', port=datagram.dst_port)\n"
                 "def _handle(self, datagram):\n"
                 "    self.metrics.counter('nfs.rpc_total', {'op': op.name}).inc()\n"
                 "    self._denied = self.metrics.family('counter', 'nfs.denied_total', ())\n"
                 "def _send_full(self, address, wire, result, labels):\n"
                 "    self.metrics.counter('kprop.bytes_total', labels).inc(len(wire))\n"
                 "    self._by = {r: self.metrics.family('counter', r, ()) for r in RESULTS}\n")),
        hits=((6, "_serve_batch looks up self.metrics.counter"),
              (7, "_serve_batch looks up self.metrics.total"),
              (8, "_serve_batch looks up self._metrics.gauge"),
              (11, "_serve_batch looks up self.metrics.total"),
              (12, "_serve_batch looks up metrics.total"),
              (14, "_outcome looks up self.metrics.counter"),
              (15, "_admit reads handles"), (17, "_counter binds by hand"),
              (3, "as_exchange looks up self.metrics.histogram"),
              (2, "_dispatch looks up self.metrics.total"),
              (4, "_handle looks up self.metrics.counter"), (5, "_handle makes a family"),
              (7, "_send_full looks up self.metrics.counter"), (6, "_send_full binds by hand")),
    ),
    Rule(
        "metrics-match-the-catalogue",
        "Every series a family binds in src/ has a row in docs/OBSERVABILITY.md §2, and every "
        "row is bound somewhere.",
        (*SRC, CATALOGUE), catalogue(2, _names("family", at=1), "bound"),
        # Its standalone smoke test's demo.* series belong to no realm.
        exclude=("src/repro/obs/selfcheck.py",),
        plant="lost = metrics.family('counter', 'x.lost_total', ())\n",
        plants=((CATALOGUE, "## 2. What is instrumented\n| `x.gone_total` | counter |\n"),),
        hits=((1, "x.lost_total has no row in §2"), (2, "x.gone_total is bound nowhere in src/")),
    ),
    Rule(
        "spans-match-the-catalogue",
        "Every span name src/ opens has a row in docs/OBSERVABILITY.md §3's span table, and "
        "every row is opened somewhere.",
        (*SRC, CATALOGUE), catalogue(3, _names("span", "open_span", "record_instants"), "opened",
                                     header="span"),
        # Its standalone smoke test's root/child spans belong to no realm.
        exclude=("src/repro/obs/selfcheck.py",),
        plant="with tracer.span('x.lost', under=None):\n    pass\n",
        plants=((CATALOGUE, "## 3. Spans\n| span | opened by |\n|---|---|\n| `x.gone` | - |\n"),),
        hits=((1, "x.lost has no row in §3"), (4, "x.gone is opened nowhere in src/")),
    ),
    Rule(
        "no-per-item-cipher-call",
        "No KDC stage calls the cipher per item; the walk from _serve_batch meets batch forms.",
        (KDC,), each(_per_item_cipher),
        sites=tuple((KDC, f"reaches {form}") for form in BATCH_FORMS),
        plant="class K:\n"
              "    def _serve_batch(self, datagrams):\n"
              "        first = self.keygen.session_key()\n"
              "        rows = self._stage(datagrams)\n"
              "        for row in self._once(rows):\n"
              "            self._one(row)\n"
              "        return [seal(k, d) for k, d in rows], seal_many(rows)\n"
              "    def _stage(self, items):\n"
              "        keys = self.db.master_key.unseal_keys(items)\n"
              "        while items:\n"
              "            key = self.db.master_key.unseal_key(items.pop())\n"
              "        return keys\n"
              "    def _once(self, rows):\n"
              "        return unseal(self.key, rows)\n"
              "    def _one(self, row):\n"
              "        return self._deeper(row)\n"
              "    def _deeper(self, row):\n"
              "        return self.keygen.session_key_bytes()\n"
              "    def _unreached(self, rows):\n"
              "        return [unseal(self.key, row) for row in rows]\n",
        hits=((0, "reaches unseal_keys"), (7, "_serve_batch calls seal() per item"),
              (11, "_stage calls unseal_key() per item"),
              (18, "_deeper calls session_key_bytes() per item")),
    ),
    # -- the wire codec -----------------------------------------------------
    Rule(
        "codec-interprets-nothing-per-message",
        "Per-message code (_RUNTIME; WireStruct's methods; any class's to_bytes, _decode_at, "
        "read_at and from_bytes) reads no kind, FIELDS or compiler.",
        SRC, _codec_runtime,
        sites=((STRUCTFMT, f"_RUNTIME is {sorted(CODEC_RUNTIME)}"),
               (STRUCTFMT, "compile step _compile"), (STRUCTFMT, "compile step _generate"),
               (STRUCTFMT, "compile step _list_item"), (STRUCTFMT, "compile step _check_kind"),
               (STRUCTFMT, "_list_item tells kinds apart"),
               (STRUCTFMT, "__init_subclass__ calls ['_compile', 'super']")),
        plant="def _refuse(what):\n"
              "    raise DecodeError(what)\n"
              "def _check_kind(kind):\n"
              "    return isinstance(kind, str) and kind.startswith('list:')\n"
              "_RUNTIME = (_refuse,)\n"
              "class WireStruct:\n"
              "    def __init_subclass__(cls):\n"
              "        _check_kind(cls)\n"
              "    def from_bytes(cls, data, start=0):\n"
              "        for f in cls.FIELDS:\n"
              "            _check_kind(f.kind)\n"
              "    def read_at(cls, data, pos=0):\n"
              "        return cls._decode_at(data, pos, _check_kind(cls))\n",
        plant_at=STRUCTFMT,
        plants=(("src/repro/database/planted.py",
                 "class Row(WireStruct):\n"
                 "    FIELDS = Principal.FIELDS + (field('kvno', 'u8'),)\n"
                 "    def from_bytes(cls, data, start=0):\n"
                 "        return [f.name for f in cls.FIELDS]\n"
                 "    def describe(cls):\n"
                 "        return cls.FIELDS\n"),),
        hits=((0, "_RUNTIME is ['_refuse']"), (3, "compile step _check_kind"),
              (7, "__init_subclass__ calls ['_check_kind']"),
              (9, "WireStruct.from_bytes calls _check_kind"),
              (10, "WireStruct.from_bytes: .FIELDS"),
              (12, "WireStruct.read_at calls _check_kind"),
              (4, "Row.from_bytes: .FIELDS")),
    ),
    Rule(
        "generated-code-is-straight-line",
        "Generated codecs (to_bytes, _decode_at) name only locals and the codec's globals, "
        "and tell no kinds apart.",
        (STRUCTFMT,), _straight_line,
        plant="def to_bytes(self):\n"
              "    for f in self.FIELDS:\n"
              "        kind = f.kind\n"
              "        if isinstance(kind, str) and kind.startswith('list:'):\n"
              "            _encode_value(enc, kind, getattr(self, f.name))\n",
        hits=((0, "planted: no to_bytes/_decode_at"), (2, "planted: .FIELDS"),
              (4, "planted: .startswith()"), (4, "planted: isinstance(kind"),
              (0, "planted: names _encode_value"), (0, "planted: names enc"),
              (0, "planted: names getattr")),
    ),
    # -- the tree as a whole ------------------------------------------------
    Rule(
        "removed-names-stay-gone",
        "No removed name comes back in code; the oracles and the tests that refuse one spell it.",
        ("src/*", "tests/*", BENCH), each(_removed_in_code),
        sites=((DES_ORACLE, "crypt_int_ref"),
               ("tests/crypto/test_kernel_equivalence.py", "crypt_int_ref"),
               ("tests/crypto/test_reference_des.py", "crypt_int_ref"),
               (CODEC_ORACLE, "_encode_value"), (CODEC_ORACLE, "_decode_value"),
               (CODEC_ORACLE, "_SCALAR_ENCODERS"), (CODEC_ORACLE, "_SCALAR_DECODERS"),
               *((path, name) for path in (PRIMITIVES, CODEC_ORACLE, FORMATS_ORACLE,
                 "tests/encode/test_buffer.py") for name in ("Encoder", "Decoder")),
               *((path, name) for path in (CODEC_ORACLE, FORMATS_ORACLE)
                 for name in ("encode_into", "decode_from")),
               ("tests/encode/test_codec_fuzz.py", "Decoder"),
               ("tests/core/test_locator.py", "n_slaves"),
               ("tests/obs/test_lint_auth_front_door.py", "bind_audit"),
               # A test id that names how a span closes: leaving the stack.
               ("tests/obs/test_closed_spans.py", "end_span")),
        exclude=("tests/lint/",),
        plant="from repro.core.ticket import seal_ticket_cached as stc\n"
              "def _handle_tgs(self): return self.kdc._serve(d) or _serve_batch\n"
              "note = '_serve is gone'\n"
              "shim = getattr(realm, 'n_slaves'), _encode_value(enc, kind)\n"
              "def _handle_as_req(kdc_serve): pass  # bind_audit was here\n",
        hits=((1, "seal_ticket_cached"), (2, "_handle_tgs"), (2, "_serve"),
              (4, "_encode_value"), (4, "n_slaves"), (5, "_handle_as_req"), (5, "kdc_serve"),
              (5, "bind_audit")),
    ),
    Rule(
        "removed-names-leave-the-docs",
        "A doc that still shows a removed name teaches an API that raises.",
        DOCS, each(_removed_in_docs),
        plant_at="docs/planted.md",
        plant="Call `set_kdcs(...)`, or `KerberosServer._serve`.\n"
              "A datagram is `_serve_batch([datagram])`.\n",
        hits=((1, "_serve"), (1, "set_kdcs")),
    ),
    Rule(
        "docs-name-real-rules",
        "A rule id a doc points at (a backticked kebab-case word) is a row of this table.",
        DOCS, each(_unknown_rule_ids),
        plant_at="docs/planted.md",
        plant="See `no-raw-bind` and `one-decode-one-encode`.\n",
        hits=((1, "no rule one-decode-one-encode"),),
    ),
    Rule(
        "one-lint-harness",
        "Structural rules are rows of this table: no test outside tests/lint parses source.",
        ("tests/*",), each(join(call_sites("parse", on=("ast",)), imports_of("parse"))),
        exclude=("tests/lint/",),
        plant="import ast\n"
              "tree = ast.parse(source)\n"
              "from ast import parse\n",
        hits=((2, ".ast.parse()"), (3, "from ast import parse")),
    ),
)
