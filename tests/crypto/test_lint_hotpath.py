"""Hot-loop lint: no per-block bytes/int conversion under ``repro.crypto``.

PR 3's tentpole moved the block-mode inner loops into the integer domain:
a message is converted bytes→int64 once (``struct.unpack``), the mode
loop chains pure-int ``crypt_int`` calls, and the result is packed back
once.  The old shape — ``bytes_to_int``/``int_to_bytes`` called on every
block *inside* the loop — is exactly the churn the rewrite removed, and
it is the easiest regression to reintroduce while editing a mode.

This AST walk bans calls to either converter (plus ``int.from_bytes`` /
``.to_bytes``) inside any ``for``/``while`` body in ``src/repro/crypto``,
no module exempt: the preserved byte-path is the oracle in
``tests/crypto/reference_des.py``, outside the package — and outside it
for good (``test_src_holds_one_des``).
"""

import ast
import re
from pathlib import Path

CRYPTO = Path(__file__).resolve().parents[2] / "src" / "repro" / "crypto"

#: The preserved pre-optimization path — per-block conversion is its point.
ORACLE_DES = Path(__file__).resolve().parent / "reference_des.py"

FORBIDDEN_NAMES = {"bytes_to_int", "int_to_bytes"}
FORBIDDEN_ATTRS = {"from_bytes", "to_bytes"}


def _call_label(func) -> str:
    if isinstance(func, ast.Name) and func.id in FORBIDDEN_NAMES:
        return f"{func.id}()"
    if isinstance(func, ast.Attribute) and func.attr in FORBIDDEN_ATTRS:
        return f".{func.attr}()"
    return ""


def _violations(path: Path) -> list:
    """(lineno, call) for every banned conversion inside a loop body."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call):
                label = _call_label(inner.func)
                if label:
                    found.append((inner.lineno, label))
    # A nested loop is walked twice (once via its parent); dedup.
    return sorted(set(found))


def test_no_per_block_conversion_in_crypto_loops():
    modules = sorted(CRYPTO.glob("*.py"))
    assert modules, f"no modules found under {CRYPTO}"
    bad = {}
    for path in modules:
        violations = _violations(path)
        if violations:
            bad[path.name] = violations
    assert not bad, (
        "per-block bytes<->int conversion inside a crypto loop "
        "(convert the whole message once, outside the loop):\n"
        + "\n".join(
            f"  {mod}:{line}: {what}"
            for mod, calls in bad.items()
            for line, what in calls
        )
    )


def test_the_oracle_would_be_flagged():
    """The lint has teeth: the preserved byte-path itself violates it."""
    assert _violations(ORACLE_DES), (
        "reference_des.py no longer trips the lint — if it was rewritten "
        "in the int domain it is no longer the independent byte-path the "
        "kernels are checked against"
    )


def test_lint_catches_a_planted_offender(tmp_path):
    planted = tmp_path / "offender.py"
    planted.write_text(
        "def f(key, data):\n"
        "    out = []\n"
        "    for i in range(0, len(data), 8):\n"
        "        block = bytes_to_int(data[i:i + 8])\n"
        "        out.append(int_to_bytes(block, 8))\n"
        "    n = int.from_bytes(data[:8], 'big')\n"  # outside a loop: fine
        "    while n:\n"
        "        n = int.from_bytes(data[:4], 'big') - 1\n"
        "    return out\n"
    )
    labels = {what for _, what in _violations(planted)}
    assert labels == {"bytes_to_int()", "int_to_bytes()", ".from_bytes()"}


# --------------------------------------------------------------------------
# ISSUE 17 extension: ``src/`` holds one DES.
#
# The loop-form kernels and the hook that swapped them into ``seal`` /
# ``unseal`` at run time left the program; a second DES must not grow
# back under ``src/repro/`` as a ``*_ref`` function, a ``reference``
# module, or a table of kernels ``seal``/``unseal`` index by ``mode`` on
# every call (the swap hook's only reason to exist).
# --------------------------------------------------------------------------

SRC = CRYPTO.parents[1]


def _second_des(path: Path) -> list:
    """(lineno, what) for each trace of a reference path in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [(0, "a reference module")] if path.stem == "reference" else []
    return found + [
        (node.lineno, f"def {node.name}") for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_ref")
    ]


def _kernel_lookups(tree: ast.AST) -> list:
    """(lineno, source) for each subscript keyed by ``mode`` inside
    ``seal``/``unseal``: a kernel reached through a table, not by name."""
    return sorted(
        (node.lineno, ast.unparse(node))
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in ("seal", "unseal")
        for node in ast.walk(func)
        if isinstance(node, ast.Subscript) and "mode" in ast.unparse(node.slice)
    )


def test_src_holds_one_des():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    bad = {
        str(path.relative_to(SRC)): found
        for path in modules if (found := _second_des(path))
    }
    assert not bad, bad
    modes = ast.parse((CRYPTO / "modes.py").read_text(encoding="utf-8"))
    assert {"seal", "unseal"} <= {
        node.name for node in modes.body if isinstance(node, ast.FunctionDef)
    }
    assert not _kernel_lookups(modes), _kernel_lookups(modes)
    # The oracle is where the lint would look for it: it sees it there.
    assert {"def crypt_int_ref", "def pcbc_encrypt_ref"} <= {
        what for _, what in _second_des(ORACLE_DES)
    }


def test_one_des_lint_catches_planted_offenders(tmp_path):
    planted = tmp_path / "reference.py"
    planted.write_text(
        "def pcbc_encrypt_ref(key, data): ...\n"
        "def seal(key, data, iv, mode):\n"
        "    header = data[:8]  # a slice of the message: fine\n"
        "    return _ENCRYPTORS[mode](key, _frame(data), iv)\n"
    )
    assert _second_des(planted) == [
        (0, "a reference module"), (1, "def pcbc_encrypt_ref"),
    ]
    assert _kernel_lookups(ast.parse(planted.read_text())) == [
        (4, "_ENCRYPTORS[mode]"),
    ]


# --------------------------------------------------------------------------
# ISSUE 8 extension: the batch framing path must stay zero-copy.
#
# ``repro.encode.batch`` slices every datagram out of the receive buffer
# as a memoryview and encodes every reply onto the end of one output
# buffer.  A ``bytes(...)`` call inside any of its loops (or
# comprehensions) is a per-datagram copy creeping back in — the exact
# allocation churn the batch plane exists to remove.
# --------------------------------------------------------------------------

ENCODE_BATCH = (
    Path(__file__).resolve().parents[2] / "src" / "repro" / "encode"
    / "batch.py"
)

_LOOPY = (
    ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
    ast.GeneratorExp,
)


def _bytes_copies_in_loops(path: Path) -> list:
    """(lineno, source) for every ``bytes(...)`` call in a loop body."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, _LOOPY):
            continue
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id in {"bytes", "bytearray"}
            ):
                found.append((inner.lineno, f"{inner.func.id}()"))
    return sorted(set(found))


def test_no_per_datagram_copy_in_batch_framing():
    assert ENCODE_BATCH.exists(), f"missing {ENCODE_BATCH}"
    violations = _bytes_copies_in_loops(ENCODE_BATCH)
    assert not violations, (
        "per-datagram bytes/bytearray copy inside a batch framing loop "
        "(frames must stay memoryviews over the one buffer):\n"
        + "\n".join(
            f"  batch.py:{line}: {what}" for line, what in violations
        )
    )


def test_batch_copy_lint_catches_a_planted_offender(tmp_path):
    planted = tmp_path / "offender.py"
    planted.write_text(
        "def frames(buffer):\n"
        "    out = []\n"
        "    pos = 0\n"
        "    while pos < len(buffer):\n"
        "        out.append(bytes(buffer[pos:pos + 8]))\n"
        "        pos += 8\n"
        "    copies = [bytearray(f) for f in out]\n"
        "    header = bytes(8)  # outside any loop: fine\n"
        "    return out, copies, header\n"
    )
    violations = _bytes_copies_in_loops(planted)
    assert {what for _, what in violations} == {"bytes()", "bytearray()"}
    assert all(line != 8 for line, _ in violations)


# --------------------------------------------------------------------------
# ISSUE 12 extension: no registry scans per request in the KDC.
#
# ``MetricsRegistry.total`` walks and sorts every instrument of the
# realm; called per item it was 8,256 scans per 4,096 requests.  Per
# batch (outside any loop) is fine; per item the KDC reads O(1) sources
# (``keycache.stats()``, counter handles resolved at attach).
# --------------------------------------------------------------------------

CORE_KDC = (
    Path(__file__).resolve().parents[2] / "src" / "repro" / "core" / "kdc.py"
)


def _registry_scans_in_loops(path: Path) -> list:
    """(lineno, source) for every ``….metrics.total(…)`` in a loop body."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, _LOOPY):
            continue
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "total"
                and ast.unparse(inner.func.value).endswith("metrics")
            ):
                found.append((inner.lineno, ast.unparse(inner.func) + "()"))
    return sorted(set(found))


def test_no_registry_scan_per_item_in_kdc():
    assert CORE_KDC.exists(), f"missing {CORE_KDC}"
    violations = _registry_scans_in_loops(CORE_KDC)
    assert not violations, (
        "metrics.total() inside a per-item loop of core/kdc.py (scans "
        "the whole registry per request):\n"
        + "\n".join(f"  kdc.py:{line}: {what}" for line, what in violations)
    )


def test_registry_scan_lint_catches_a_planted_offender(tmp_path):
    planted = tmp_path / "offender.py"
    planted.write_text(
        "def serve(self, items):\n"
        "    before = self.metrics.total('a')  # per batch: fine\n"
        "    for item in items:\n"
        "        n = self.metrics.total('crypto.keyschedule_total')\n"
        "    return [metrics.total('b') for _ in items], before, n\n"
    )
    violations = _registry_scans_in_loops(planted)
    assert [line for line, _ in violations] == [4, 5]


# --------------------------------------------------------------------------
# ISSUE 13 extension: the E expansion stays out of the block kernels.
#
# ``crypt_int`` and ``crypt_wide`` (since ISSUE 20 the composition of
# ``_ip``, ``_rounds`` and ``_fp``) keep both Feistel halves E-expanded,
# so nothing in their bodies may name an ``_E*`` table, apply a compiled
# permutation, or call a Python-level helper once per round; and no
# kernel table may outgrow 4,096 entries (the paired kernel's two
# 65,536-entry E tables were ~5 MiB of every process and most of the
# package's import time).
# --------------------------------------------------------------------------

MAX_TABLE_ENTRIES = 4096

KERNELS = {
    "des.py": ("crypt_int",),
    "des_simd.py": ("_ip", "_rounds", "_fp", "crypt_wide"),
}


def _python_helpers() -> set:
    """Every function defined at module level next to the kernels."""
    names = set()
    for name in ("bits.py", "des.py", "des_simd.py"):
        tree = ast.parse((CRYPTO / name).read_text(encoding="utf-8"))
        names |= {
            node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
        }
    return names


def _kernel_violations(func: ast.FunctionDef, helpers: set) -> list:
    """(lineno, what) for each way E could re-enter a kernel body."""
    found = []
    for node in ast.walk(func):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)):
            if name.startswith("_E"):
                found.append((node.lineno, f"names {name}"))
            if name == "apply_permutation":
                found.append((node.lineno, "apply_permutation"))
        if isinstance(node, (ast.For, ast.While)):
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                callee = getattr(inner.func, "id", None) or getattr(
                    inner.func, "attr", None
                )
                if callee in helpers:
                    found.append((inner.lineno, f"loop calls {callee}()"))
    return sorted(set(found))


def _kernel(module: str) -> list:
    """The functions of ``module`` a block passes through."""
    tree = ast.parse((CRYPTO / module).read_text(encoding="utf-8"))
    funcs = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in KERNELS[module]
    ]
    assert len(funcs) == len(KERNELS[module])
    return funcs


def test_no_expansion_in_the_block_kernels():
    helpers = _python_helpers()
    assert {"apply_permutation", "_expand", "crypt_int", "_rounds"} <= helpers
    bad = {
        (module, func.name): _kernel_violations(func, helpers)
        for module in KERNELS for func in _kernel(module)
    }
    assert not any(bad.values()), bad


def test_kernel_lint_catches_planted_offenders():
    planted = ast.parse(
        "def crypt_int(block, subkeys, _e=_E_B):\n"
        "    b = apply_permutation(_IP_C, block)\n"
        "    for k in subkeys:\n"
        "        b ^= _feistel(b, k)\n"
        "        b ^= table.take(b)\n"  # a C-level gather: fine
        "    return des._E_WIDE[b]\n"
    ).body[0]
    labels = {
        what for _, what in _kernel_violations(planted, {"_feistel"})
    }
    assert labels == {
        "names _E_B", "names _E_WIDE", "apply_permutation",
        "loop calls _feistel()",
    }


def test_no_kernel_table_exceeds_4096_entries():
    from repro.crypto import des, des_simd

    def oversized(value):
        if not isinstance(value, (tuple, list)):
            return False
        if any(isinstance(row, (tuple, list)) for row in value):
            return any(oversized(row) for row in value)
        return len(value) > MAX_TABLE_ENTRIES

    for module in (des, des_simd):
        bad = [
            name for name, value in vars(module).items()
            if oversized(value)
        ]
        assert not bad, f"{module.__name__}: oversized tables {bad}"
    if des_simd.available():
        # The wide tables are stacks of the single-lane ones: at most
        # four sub-tables of at most 4,096 entries in any one array.
        for table in des_simd._get_tables():
            assert table.size <= 4 * MAX_TABLE_ENTRIES
        total = sum(table.nbytes for table in des_simd._get_tables())
        assert total <= 512 * 1024


# --------------------------------------------------------------------------
# ISSUE 18 extension: the batch cipher stays in arrays.
#
# A sealing run steps a ``(depth, lanes)`` matrix: the loop around the
# rounds may slice and xor arrays, nothing else — a nested loop, a
# comprehension, ``.tolist()``, ``.append(`` or ``array(`` there is the
# per-step marshalling (128 Python ints out and back in per pass) the
# matrix replaced.  Unsealing has no sequential cipher at all, so
# ``pcbc_decrypt_many`` calls ``crypt_wide`` once, outside any loop.
#
# ISSUE 20 moved the step loop into the kernel module — it is
# ``des_simd.pcbc_encrypt_wide``'s loop around ``_rounds``, and
# ``modes._pcbc_encrypt_run`` calls that run kernel once, outside any
# loop — and made IP and FP one bulk gather each per *run*: the module
# holds exactly one sixteen-round loop (``crypt_wide`` and the run form
# share ``_rounds``; they cannot fork), and the step loop reads no IP or
# FP table.
# --------------------------------------------------------------------------

MODES = CRYPTO / "modes.py"
DES_SIMD = CRYPTO / "des_simd.py"

#: Calls that move a step's lanes between arrays and Python objects.
MARSHALLING = {"tolist", "append", "array"}

#: What reads a table: a gather, or a function built on one.  Inside the
#: step loop every one of them but ``_rounds`` is IP or FP per step.
GATHERS = {"take", "gather", "_ip", "_fp", "_get_tables", "crypt_wide"}


def _callee(call: ast.Call) -> str:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", "")


def _reaches(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(inner, ast.Call) and _callee(inner) == name
        for inner in ast.walk(node)
    )


def _step_loops(tree: ast.AST, kernel: str) -> list:
    """``(function name, loop)`` for every ``for``/``while`` statement
    whose body reaches ``kernel``, outermost only."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        inner_loops = set()
        for loop in ast.walk(func):
            if (
                isinstance(loop, (ast.For, ast.While))
                and loop not in inner_loops
                and _reaches(loop, kernel)
            ):
                found.append((func.name, loop))
                inner_loops.update(ast.walk(loop))
    return found


def _step_violations(loop: ast.AST) -> list:
    """(lineno, what) for everything in a step loop that is not array
    work, or that reads a table outside the rounds."""
    found = []
    for node in ast.walk(loop):
        if node is loop:
            continue
        if isinstance(node, _LOOPY):
            found.append((node.lineno, type(node).__name__))
        if isinstance(node, ast.Call) and _callee(node) in MARSHALLING | GATHERS:
            found.append((node.lineno, f"{_callee(node)}()"))
    return sorted(set(found))


def _round_loops(tree: ast.AST) -> list:
    """``(function name, lineno)`` of every loop that gathers from a
    table in its own body — a sixteen-round loop, whatever it iterates."""
    return sorted(
        (func.name, loop.lineno)
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for loop in ast.walk(func) if isinstance(loop, (ast.For, ast.While))
        if _reaches(loop, "take") or _reaches(loop, "gather")
    )


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    (func,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return func


def _kernel_calls(func: ast.FunctionDef, kernel: str) -> tuple:
    """(calls to ``kernel``, those of them inside a loop or a
    comprehension) as line numbers."""
    looped = {
        inner.lineno
        for node in ast.walk(func) if isinstance(node, _LOOPY)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call) and _callee(inner) == kernel
    }
    calls = sorted(
        node.lineno for node in ast.walk(func)
        if isinstance(node, ast.Call) and _callee(node) == kernel
    )
    return calls, sorted(looped)


def test_the_wide_seal_step_stays_in_arrays():
    kernels = ast.parse(DES_SIMD.read_text(encoding="utf-8"))
    loops = _step_loops(kernels, "_rounds")
    # One stepped run in the package: sealing's, in the run kernel.
    assert [name for name, _ in loops] == ["pcbc_encrypt_wide"]
    for name, loop in loops:
        assert not _step_violations(loop), (name, _step_violations(loop))
    modes = ast.parse(MODES.read_text(encoding="utf-8"))
    for kernel in ("crypt_wide", "pcbc_encrypt_wide", "_rounds"):
        assert not _step_loops(modes, kernel), kernel


def test_unsealing_is_one_pass_outside_any_loop():
    tree = ast.parse(MODES.read_text(encoding="utf-8"))
    calls, looped = _kernel_calls(
        _function(tree, "pcbc_decrypt_many"), "crypt_wide"
    )
    assert len(calls) == 1 and not looped, (calls, looped)
    # So is a sealing run, since ISSUE 20: one call of the run kernel.
    calls, looped = _kernel_calls(
        _function(tree, "_pcbc_encrypt_run"), "pcbc_encrypt_wide"
    )
    assert len(calls) == 1 and not looped, (calls, looped)
    # ... behind every sealing entry: none reaches a kernel another way.
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name != "_pcbc_encrypt_run":
            assert not _reaches(node, "pcbc_encrypt_wide"), node.name


def test_des_simd_holds_one_sixteen_round_loop():
    tree = ast.parse(DES_SIMD.read_text(encoding="utf-8"))
    assert [name for name, _ in _round_loops(tree)] == ["_rounds"]
    # Both forms reach it, neither copies it.
    for name in ("crypt_wide", "pcbc_encrypt_wide"):
        calls, _looped = _kernel_calls(_function(tree, name), "_rounds")
        assert len(calls) == 1, name


def test_no_ip_or_fp_table_is_read_inside_the_step_loop():
    tree = ast.parse(DES_SIMD.read_text(encoding="utf-8"))
    run = _function(tree, "pcbc_encrypt_wide")
    ((_name, loop),) = _step_loops(tree, "_rounds")
    # One bulk IP before the loop, one bulk FP after it.
    for gather in ("_ip", "_fp"):
        calls, looped = _kernel_calls(run, gather)
        assert len(calls) == 1 and not looped, (gather, calls, looped)
    assert not [
        what for _line, what in _step_violations(loop)
        if what.rstrip("()") in GATHERS
    ]


def test_array_lints_catch_planted_offenders():
    planted = ast.parse(
        "def _pcbc_run_wide(jobs):\n"
        "    chains = np.array([job[1] for job in jobs])\n"  # once: fine
        "    while step < depth:\n"
        "        while active and lens[active - 1] <= step:\n"
        "            active -= 1\n"
        "        blk = np.array([lanes[i][2][step] for i in range(active)])\n"
        "        y = des_simd.crypt_wide(blk ^ chains[:active], km)\n"
        "        for i, value in enumerate(y.tolist()):\n"
        "            lanes[i][3].append(value)\n"
        "        out[step, :active] = y\n"  # array work: fine
        "        step += 1\n"
        "def pcbc_decrypt_many(items):\n"
        "    for key, data in items:\n"
        "        plain = crypt_wide(data, keymat([key]))\n"
        "    return [crypt_wide(d, km) for d in items], crypt_wide(all, km)\n"
    )
    loops = _step_loops(planted, "crypt_wide")
    assert [name for name, _ in loops] == [
        "_pcbc_run_wide", "pcbc_decrypt_many",
    ]
    assert _step_violations(loops[0][1]) == [
        (4, "While"), (6, "ListComp"), (6, "array()"), (7, "crypt_wide()"),
        (8, "For"), (8, "tolist()"), (9, "append()"),
    ]
    assert _kernel_calls(
        _function(planted, "pcbc_decrypt_many"), "crypt_wide"
    ) == ([14, 15, 15], [14, 15])


def test_run_kernel_lints_catch_planted_offenders():
    """A run form that forks the round loop and goes back to IP and FP
    per step — the parent commit's step, moved into the kernel."""
    planted = ast.parse(
        "def _rounds(x, y, rows, t, per_lane4):\n"
        "    for r in range(0, 16, 2):\n"
        "        x ^= merge(gather(fields), per_lane4)\n"
        "def pcbc_encrypt_wide(plain, chains, km, running):\n"
        "    x, y = _ip(d.ravel())\n"  # bulk, before the loop: fine
        "    for step, alive in enumerate(running):\n"
        "        xs, ys = _ip(plain[step] ^ chains)\n"
        "        _rounds(xs, ys, rows, t, per_lane4)\n"
        "        chains = plain[step] ^ _fp(xs, ys)\n"
        "        out[step] = fp_x.take(fields)\n"
        "    return out\n"
        "def crypt_wide(blocks, km):\n"
        "    x, y = _ip(blocks)\n"
        "    for k0, k1 in pairs(km):\n"  # a second round loop
        "        x ^= merge(sp.take(fields), per_lane4)\n"
        "    return _fp(x, y)\n"
    )
    # The step loop gathers in its own body now, so it counts as well.
    assert _round_loops(planted) == [
        ("_rounds", 2), ("crypt_wide", 14), ("pcbc_encrypt_wide", 6),
    ]
    ((name, loop),) = _step_loops(planted, "_rounds")
    assert name == "pcbc_encrypt_wide"
    assert _step_violations(loop) == [
        (7, "_ip()"), (9, "_fp()"), (10, "take()"),
    ]
    run = _function(planted, "pcbc_encrypt_wide")
    assert _kernel_calls(run, "_ip") == ([5, 7], [7])
    assert _kernel_calls(run, "_fp") == ([9], [9])


# --------------------------------------------------------------------------
# ISSUE 14 extension: one request plane, by construction.
#
# A single request is a batch of one.  The classic per-datagram path is
# gone and must not grow back under another name, the pipeline must not
# special-case a batch of one, and what made a small batch dear — by-name
# instrument lookups and registry scans per batch — stays resolved at
# attach time.
# --------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[2]

#: Names of the deleted single-request path.
DELETED_PLANE = re.compile(
    r"_serve\b|_handle_as|_handle_tgs|_finish_prepared|_as_ap_request"
    r"|seal_ticket_cached"
)

#: ISSUE 20: what runs once per event, datagram leg, span, audit event
#: and queued item around the KDC — 19.7 by-name lookups per
#: ``login_storm`` op at the parent commit — and, per class, where the
#: handle those functions hold is bound at first use.
PER_EVENT = {
    "runtime/scheduler.py": (("at", "step"), "_counter"),
    "netsim/network.py": (("_wire_leg",), "_counter"),
    "obs/tracing.py": (("_record",), "_counter"),
    "obs/audit.py": (("emit",), "_counter"),
    "runtime/workqueue.py": (
        ("_count", "_gauge_depth", "_observe_waits"), "_series",
    ),
}

#: The staged pipeline's per-batch functions: handles only, no lookups.
PIPELINE = (
    "_serve_batch", "_unseal_all", "_get_record",
    # ISSUE 19's stage 3 (``kdc.ticket_life_seconds`` was looked up by
    # name per ticket from ``_prepare_issue``, which this list missed).
    "_issue_all", "_lookup_all", "_unseal_keys", "_admit",
    "_lookup_service", "_lookup_tgs_service",
)


def _kdc_functions() -> dict:
    tree = ast.parse(CORE_KDC.read_text(encoding="utf-8"))
    return {
        node.name: node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }


def _callers_of(name: str) -> list:
    """Functions of core/kdc.py whose body calls the bare name ``name``."""
    return sorted(
        fname for fname, func in _kdc_functions().items()
        if any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
            for node in ast.walk(func)
        )
    )


def _identifiers(tree: ast.AST):
    """(lineno, identifier) for every name the source binds or uses —
    strings and comments are prose, not names."""
    for node in ast.walk(tree):
        for attr in ("id", "attr", "name", "arg", "asname"):
            value = getattr(node, attr, None)
            if isinstance(value, str):
                yield getattr(node, "lineno", 0), value


def _deleted_plane_names(source: str) -> list:
    return sorted(
        (line, name) for line, name in _identifiers(ast.parse(source))
        if DELETED_PLANE.search(name)
    )


def _registry_lookups(func: ast.FunctionDef) -> list:
    """(lineno, call) for each ``self.metrics.total/counter/gauge/
    histogram`` (or ``self._metrics.…``, where ``metrics`` is a
    property)."""
    return sorted(
        (node.lineno, ast.unparse(node.func))
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("total", "counter", "gauge", "histogram")
        and ast.unparse(node.func.value) in ("self.metrics", "self._metrics")
    )


def _batch_of_one_tests(func: ast.FunctionDef) -> list:
    """Line numbers of comparisons of ``n`` / ``len(datagrams)`` with 1."""
    found = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Compare):
            continue
        sides = [ast.unparse(side) for side in [node.left] + node.comparators]
        if "1" in sides and {"n", "len(datagrams)"} & set(sides):
            found.append(node.lineno)
    return found


def test_one_decode_one_encode_in_the_kdc():
    assert _callers_of("decode_message") == ["_serve_batch"]
    assert _callers_of("BatchWriter") == ["_serve_batch"]


def _python_sources() -> list:
    """Every file a deleted name must stay out of."""
    files = sorted(
        list((REPO / "src").rglob("*.py"))
        + list((REPO / "tests").rglob("*.py"))
        + list((REPO / "benchmarks").glob("test_bench_*.py"))
    )
    assert len(files) > 100
    return files


def test_the_single_request_path_stays_deleted():
    files = _python_sources()
    bad = {
        str(path.relative_to(REPO)): names
        for path in files
        if (names := _deleted_plane_names(path.read_text(encoding="utf-8")))
    }
    assert not bad, bad


def test_pipeline_reads_handles_not_the_registry():
    functions = _kdc_functions()
    bad = {name: _registry_lookups(functions[name]) for name in PIPELINE}
    assert not any(bad.values()), bad
    # Refusals are labelled by error code, so _outcome looks its counter
    # up by name, and _life_series binds a kind's histogram the first
    # time it is needed — the lint sees those lookups where they are.
    assert _registry_lookups(functions["_outcome"])
    assert _registry_lookups(functions["_life_series"])
    for module, (per_event, binder) in PER_EVENT.items():
        tree = ast.parse((SRC / "repro" / module).read_text(encoding="utf-8"))
        functions = {
            node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        bad = {name: _registry_lookups(functions[name]) for name in per_event}
        assert not any(bad.values()), (module, bad)
        assert _registry_lookups(functions[binder]), (module, binder)


def test_no_batch_of_one_fast_path():
    assert not _batch_of_one_tests(_kdc_functions()["_serve_batch"])


def test_one_plane_lints_catch_planted_offenders():
    planted = ast.parse(
        "def _serve_batch(self, datagrams):\n"
        "    n = len(datagrams)\n"
        "    if n == 1:\n"
        "        return [self._serve(datagrams[0])]\n"
        "    if 1 == len(datagrams) or n > 2:\n"
        "        self.metrics.counter('kdc.x', self._labels).inc()\n"
        "    before = self.metrics.total('kdc.y')\n"
        "    self._metrics.gauge('kdc.z').set(n)\n"
        "    self._held['kdc.x'].inc()  # a held handle: fine\n"
        "    return self._lookups_saved.value - before\n"
    )
    func = planted.body[0]
    assert _batch_of_one_tests(func) == [3, 5]
    assert [line for line, _ in _registry_lookups(func)] == [6, 7, 8]
    assert _deleted_plane_names(
        "from repro.core.ticket import seal_ticket_cached as stc\n"
        "def _handle_tgs(self): return self.kdc._serve(d) or _serve_batch\n"
        "note = '_serve is gone'\n"
    ) == [(1, "seal_ticket_cached"), (2, "_handle_tgs"), (2, "_serve")]


# --------------------------------------------------------------------------
# ISSUE 19 extension: no stage of the pipeline calls the cipher per item.
#
# Session keys are drawn and database keys unsealed one wide pass per
# batch; what brought 300 single-lane blocks into every 128-frame buffer
# was a one-message cipher call sitting in a per-item code path
# (``unseal_key`` ×2 and a one-block draw in ``_prepare_issue``).  The
# walk follows ``self.…()`` calls from ``_serve_batch`` through
# core/kdc.py and flags a one-message call wherever it runs once per
# item: lexically inside a loop or comprehension, or anywhere in a
# function that is itself called from one.
# --------------------------------------------------------------------------

#: One-message entry points of the cipher (their batch forms:
#: ``seal_tickets_cached`` over ``seal_nested_many``, ``unseal_many``/
#: ``unseal_structs``, ``unseal_keys``, ``session_keys_bytes``).
PER_ITEM_CIPHER = {
    "seal", "unseal", "unseal_key", "encrypt_block", "session_key",
    "session_key_bytes",
}


def _per_item_nodes(func: ast.FunctionDef) -> set:
    """ids of the nodes of ``func`` that run once per iteration of one
    of its loops (the iterable a loop walks is evaluated once)."""
    per_item = set()
    for loop in ast.walk(func):
        if isinstance(loop, ast.For):
            parts = loop.body + loop.orelse
        elif isinstance(loop, ast.While):
            parts = [loop.test] + loop.body + loop.orelse
        elif isinstance(loop, _LOOPY):
            first, *rest = loop.generators
            parts = [
                getattr(loop, "elt", None), getattr(loop, "key", None),
                getattr(loop, "value", None), *first.ifs, *rest,
            ]
        else:
            continue
        for part in parts:
            if part is not None:
                per_item.update(id(node) for node in ast.walk(part))
    return per_item


def _per_item_cipher_calls(functions: dict, root: str = "_serve_batch") -> list:
    """(function, lineno, callee) for each one-message cipher call that
    runs once per item of a batch entering at ``root``."""
    found, seen = set(), set()

    def visit(name: str, looped: bool) -> None:
        if (name, looped) in seen or name not in functions:
            return
        seen.add((name, looped))
        per_item = _per_item_nodes(functions[name])
        for node in ast.walk(functions[name]):
            if not isinstance(node, ast.Call):
                continue
            each = looped or id(node) in per_item
            if each and _callee(node) in PER_ITEM_CIPHER:
                found.add((name, node.lineno, _callee(node)))
            if (
                isinstance(node.func, ast.Attribute)
                and ast.unparse(node.func.value) == "self"
            ):
                visit(node.func.attr, each)

    visit(root, False)
    return sorted(found)


def test_no_stage_calls_the_cipher_per_item():
    functions = _kdc_functions()
    assert set(PIPELINE) <= set(functions)
    assert not _per_item_cipher_calls(functions), (
        "a one-message cipher call in a per-item path of the KDC "
        "pipeline (collect the items, make one *_many/*_keys call):\n"
        + "\n".join(
            f"  kdc.py:{line}: {name} calls {callee}() per item"
            for name, line, callee in _per_item_cipher_calls(functions)
        )
    )
    # The batch forms are what the stages call — the walk reaches them.
    source = CORE_KDC.read_text(encoding="utf-8")
    for batch_form in (
        "unseal_keys(", "session_keys_bytes(", "seal_tickets_cached(",
    ):
        assert batch_form in source


def test_per_item_cipher_lint_catches_planted_offenders():
    planted = ast.parse(
        "class K:\n"
        "    def _serve_batch(self, datagrams):\n"
        "        first = self.keygen.session_key()  # once a batch: fine\n"
        "        rows = self._stage(datagrams)\n"
        "        for row in self._once(rows):  # evaluated once: fine\n"
        "            self._one(row)\n"
        "        return [seal(k, d) for k, d in rows], seal_many(rows)\n"
        "    def _stage(self, items):\n"
        "        keys = self.db.master_key.unseal_keys(items)  # fine\n"
        "        while items:\n"
        "            key = self.db.master_key.unseal_key(items.pop())\n"
        "        return keys\n"
        "    def _once(self, rows):\n"
        "        return unseal(self.key, rows)  # per batch: fine\n"
        "    def _one(self, row):\n"
        "        return self._deeper(row)\n"
        "    def _deeper(self, row):\n"
        "        return self.keygen.session_key_bytes()\n"
        "    def _unreached(self, rows):\n"
        "        return [unseal(self.key, row) for row in rows]\n"
    )
    functions = {
        node.name: node for node in ast.walk(planted)
        if isinstance(node, ast.FunctionDef)
    }
    assert _per_item_cipher_calls(functions) == [
        ("_deeper", 18, "session_key_bytes"),
        ("_serve_batch", 7, "seal"),
        ("_stage", 11, "unseal_key"),
    ]


# --------------------------------------------------------------------------
# ISSUE 15 extension: the wire codec is compiled, not interpreted.
#
# ``repro.encode.structfmt`` turns each class's FIELDS into straight-line
# source once, in the ``class`` statement.  The per-field walker is gone
# and must not grow back under its old names; and nothing that runs per
# message — the generated methods, the slow-path helpers they call, the
# WireStruct methods — may ask what kind a field is, look at FIELDS, or
# call into the compile step.
# --------------------------------------------------------------------------

STRUCTFMT = REPO / "src" / "repro" / "encode" / "structfmt.py"

#: The walker moved here, names and all, as the generated code's oracle.
ORACLE = REPO / "tests" / "encode" / "reference_codec.py"

DELETED_WALKER = {
    "_encode_value", "_decode_value", "_SCALAR_ENCODERS", "_SCALAR_DECODERS",
}

#: What generated code may call at run time (``structfmt._RUNTIME``).
CODEC_RUNTIME = {
    "_refuse", "_require_int", "_as_float", "_as_bytes", "_too_long",
    "_bad_length", "_bad_count", "_bad_boolean", "_short_read",
    "_field_error",
}

#: Every other global a generated function may name.
CODEC_GLOBALS = CODEC_RUNTIME | {
    "DecodeError", "_MISSING", "_new",
    "isinstance", "len", "type", "str", "bytes", "range", "list", "tuple",
    "hash", "int", "float", "bool", "UnicodeDecodeError",
}


def _kind_dispatch(tree: ast.AST) -> list:
    """(lineno, what) for each way per-message code could interpret a
    declaration: a type test on a ``kind``, a ``list:`` prefix test, a
    look at ``FIELDS``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("isinstance", "issubclass")
                and node.args
                and ast.unparse(node.args[0]).startswith("kind")
            ):
                found.append((node.lineno, f"{func.id}(kind"))
            if isinstance(func, ast.Attribute) and func.attr == "startswith":
                found.append((node.lineno, ".startswith()"))
        if isinstance(node, ast.Attribute) and node.attr == "FIELDS":
            found.append((node.lineno, ".FIELDS"))
    return sorted(set(found))


def _calls(tree: ast.AST) -> set:
    return {
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def _structfmt_functions():
    """(module-level functions, WireStruct methods) of structfmt.py."""
    tree = ast.parse(STRUCTFMT.read_text(encoding="utf-8"))
    functions = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    (base,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "WireStruct"
    ]
    methods = {
        node.name: node for node in base.body
        if isinstance(node, ast.FunctionDef)
    }
    return functions, methods


def _all_wire_structs():
    from tests.encode.test_all_wire_structs import STRUCTS

    assert len(STRUCTS) >= 40
    return STRUCTS.values()


def test_the_field_walker_stays_deleted():
    files = _python_sources()
    assert ORACLE in files
    bad = {
        str(path.relative_to(REPO)): names
        for path in files
        if path != ORACLE
        and (names := sorted(
            (line, name)
            for line, name in _identifiers(
                ast.parse(path.read_text(encoding="utf-8"))
            )
            if name in DELETED_WALKER
        ))
    }
    assert not bad, bad
    # The oracle really is the walker: the lint sees its names there.
    assert DELETED_WALKER <= {
        name for _, name in _identifiers(
            ast.parse(ORACLE.read_text(encoding="utf-8"))
        )
    }


def test_nothing_interprets_a_declaration_per_message():
    from repro.encode import structfmt

    functions, methods = _structfmt_functions()
    assert CODEC_RUNTIME == {helper.__name__ for helper in structfmt._RUNTIME}
    compile_step = set(functions) - CODEC_RUNTIME
    assert {"_compile", "_generate", "_list_item", "_check_kind"} <= compile_step
    per_message = {name: functions[name] for name in CODEC_RUNTIME}
    per_message.update(
        (f"WireStruct.{name}", node) for name, node in methods.items()
        if name != "__init_subclass__"
    )
    bad = {
        name: _kind_dispatch(node) + sorted(_calls(node) & compile_step)
        for name, node in per_message.items()
    }
    assert not any(bad.values()), bad
    # The compile step is where kinds are told apart — the lint sees it.
    assert _kind_dispatch(functions["_list_item"])
    assert _calls(methods["__init_subclass__"]) == {"super", "_compile"}


def test_generated_code_is_straight_line():
    import linecache
    import re

    for cls in _all_wire_structs():
        filename = cls.encode_into.__code__.co_filename
        tree = ast.parse("".join(linecache.getlines(filename)))
        assert {"encode_into", "decode_from"} <= {
            node.name for node in tree.body
        }, filename
        assert not _kind_dispatch(tree), (filename, _kind_dispatch(tree))
        local = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        } | {
            arg.arg for node in ast.walk(tree)
            if isinstance(node, ast.arguments)
            for arg in node.args + node.kwonlyargs + [node.kwarg]
            if arg is not None
        } | {
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.name
        }
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        stray = {
            name for name in loaded - local - CODEC_GLOBALS
            if not re.fullmatch(r"_c\d+", name)
        }
        assert not stray, (filename, stray)


def test_codec_lints_catch_planted_offenders():
    planted = ast.parse(
        "def encode_into(self, enc):\n"
        "    for f in self.FIELDS:\n"
        "        kind = f.kind\n"
        "        if isinstance(kind, str) and kind.startswith('list:'):\n"
        "            _encode_value(enc, kind, getattr(self, f.name))\n"
        "        elif issubclass(kind[1], WireStruct):\n"
        "            _check_kind(kind)\n"
    )
    assert _kind_dispatch(planted) == [
        (2, ".FIELDS"), (4, ".startswith()"), (4, "isinstance(kind"),
        (6, "issubclass(kind"),
    ]
    assert _calls(planted) >= {"_encode_value", "_check_kind"}
    assert [
        name for _, name in _identifiers(planted) if name in DELETED_WALKER
    ] == ["_encode_value"]
