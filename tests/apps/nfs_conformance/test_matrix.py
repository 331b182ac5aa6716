"""The fleet conformance matrix: {AuthMode × UnmappedPolicy × config
transition × fault}, 216 generated cells.

Every cell builds a fresh two-server fleet, establishes a client under
the initial config (mount handshake in MAPPED mode, per-RPC Kerberos in
KERBEROS_RPC mode), applies one config **transition**, injects one
**fault**, then runs a fixed operation battery and asserts:

* every operation's outcome against an independent oracle (a small
  model of the export/credential contract, written below — not a copy
  of the server code paths);
* the **full kernel credential-map state** on both servers, before and
  after the battery (expiry is lazy: a stale entry survives until the
  first MAPPED lookup purges it);
* the **filesystem state** (writes that must land landed; writes that
  must be refused left no trace);
* that both servers run exactly the transitioned config;
* the audit log: every expected ``acl_denial`` was emitted on the
  serving host, trace-joined to its request.

The battery tries, in order: read the user's 0600 secret, read the
world-readable /motd, read /scratch/readme.txt, write the user's own
notes file, write the world-writable /scratch/pad.txt.
"""

import pytest

from repro.apps.nfs import (
    AuthMode,
    ClientRange,
    ExportSpec,
    NfsClientError,
    NfsCredential,
    NfsExportConfig,
    SquashMode,
    STALE_MAPPING,
    UnmappedPolicy,
)
from repro.core.errors import KerberosError

from tests.apps.nfs_conformance.conftest import (
    FleetWorld,
    JIS_CRED,
    JIS_UID,
    MOTD,
    NEW_NOTES,
    NOTES,
    ROOT_CRED,
    SCRATCH_README,
    SECRET,
    TICKET_LIFE,
)

pytestmark = pytest.mark.nfs

NOBODY = NfsCredential.nobody()

#: The operation battery: (name, path, is_write, payload).
BATTERY = (
    ("read_secret", "/u/jis/secret.txt", False, None),
    ("read_motd", "/motd", False, None),
    ("read_scratch", "/scratch/readme.txt", False, None),
    ("write_notes", "/u/jis/notes.txt", True, NEW_NOTES),
    ("write_pad", "/scratch/pad.txt", True, b"pad"),
)

#: What each fixture file must read back as, keyed by battery op.
READ_BACK = {
    "read_secret": SECRET,
    "read_motd": MOTD,
    "read_scratch": SCRATCH_README,
}

#: auth-mode cycle used by the ``mode_cycle`` transition.
NEXT_MODE = {
    AuthMode.TRUSTED: AuthMode.MAPPED,
    AuthMode.UNTRUSTED: AuthMode.TRUSTED,
    AuthMode.MAPPED: AuthMode.KERBEROS_RPC,
    AuthMode.KERBEROS_RPC: AuthMode.MAPPED,
}

#: A client range that matches no simulated host (hosts are 18.72.x.y).
NOWHERE = ClientRange("18.73.0.0/16")


def _transition_config(name: str, base: NfsExportConfig) -> NfsExportConfig:
    """The post-transition config document for each transition kind."""
    if name in ("noop", "restore"):
        return base
    if name == "policy_flip":
        flipped = (
            UnmappedPolicy.UNFRIENDLY
            if base.unmapped_policy == UnmappedPolicy.FRIENDLY
            else UnmappedPolicy.FRIENDLY
        )
        return base.with_policy(flipped)
    if name == "mode_cycle":
        return base.with_mode(NEXT_MODE[base.auth_mode])
    if name == "add_export":
        # Longest-prefix override: /scratch goes read-only while the
        # rest of the tree stays writable under "/".
        return base.with_exports(
            ExportSpec("/"), ExportSpec("/scratch", read_only=True)
        )
    if name == "drop_root_export":
        return base.with_exports(ExportSpec("/u"))
    if name == "restrict_clients":
        return base.with_exports(ExportSpec("/", allowed=(NOWHERE,)))
    if name == "read_only":
        return base.with_exports(ExportSpec("/", read_only=True))
    if name == "squash_all":
        return base.with_exports(ExportSpec("/", squash=SquashMode.ALL))
    raise ValueError(name)


TRANSITIONS = (
    "noop",
    "policy_flip",
    "mode_cycle",
    "add_export",
    "drop_root_export",
    "restrict_clients",
    "read_only",
    "squash_all",
    "restore",
)

FAULTS = ("none", "crash_restart", "expiry")


class Oracle:
    """An independent model of the conformance contract for one cell."""

    def __init__(self, cfg, mounted, mode_changed, fault, perrpc, client_addr):
        self.cfg = cfg
        self.client_addr = client_addr
        self.perrpc = perrpc
        self.tgt_expired = fault == "expiry"
        self.acl_denials = 0
        if not mounted or mode_changed or fault == "crash_restart":
            # Never mounted, flushed by the mode change, or lost with
            # the crashed kernel.
            self.mapping = "absent"
        elif fault == "expiry":
            self.mapping = "stale"
        else:
            self.mapping = "valid"

    def mapping_present(self) -> bool:
        """Is the ⟨CLIENT-IP, UID⟩ entry still in the kernel table?
        (A stale entry survives until a lookup purges it.)"""
        return self.mapping in ("valid", "stale")

    def expect(self, path: str, is_write: bool):
        """The oracle's verdict for one battery op: ("ok", cred) or
        ("err"/"krb", message-substring).  Mirrors the declared
        contract: export policy first, then credential resolution,
        then squashing, then classic Unix permission checks."""
        if self.perrpc and self.tgt_expired:
            # Per-RPC mode fetches a fresh service ticket for *every*
            # call, client-side, before the request is even sent — an
            # expired TGT fails there, ahead of any export policy.
            return "krb", "no valid ticket-granting ticket"
        spec = self.cfg.export_for(path)
        if spec is None:
            self.acl_denials += 1
            return "err", "is not exported"
        if not spec.admits(self.client_addr):
            self.acl_denials += 1
            return "err", "not permitted"
        if spec.read_only and is_write:
            self.acl_denials += 1
            return "err", "read-only export"

        mode = self.cfg.auth_mode
        if mode == AuthMode.UNTRUSTED:
            return "err", "NFS access error"
        if mode == AuthMode.KERBEROS_RPC:
            if not self.perrpc:
                return "err", "NFS access error"
            cred = JIS_CRED
        elif mode == AuthMode.TRUSTED:
            cred = JIS_CRED
        else:  # MAPPED
            if self.mapping == "stale":
                self.mapping = "absent"
                return "err", STALE_MAPPING
            if self.mapping == "absent":
                if self.cfg.unmapped_policy == UnmappedPolicy.UNFRIENDLY:
                    self.acl_denials += 1
                    return "err", "NFS access error"
                cred = NOBODY
            else:
                cred = JIS_CRED

        if spec.squash == SquashMode.ALL:
            cred = NOBODY
        return self._fs_verdict(path, cred)

    @staticmethod
    def _fs_verdict(path: str, cred: NfsCredential):
        """Unix permissions on the fixture tree for the effective cred."""
        if path.startswith("/u/jis/") and cred.uid != JIS_UID:
            # /u/jis is 0700: nobody cannot even traverse into it.
            return "err", "permission denied traversing"
        return "ok", cred


def _attempt(fn):
    try:
        return "ok", fn()
    except NfsClientError as exc:
        return "err", str(exc)
    except KerberosError as exc:
        return "krb", str(exc)


def _run_battery(client, oracle):
    """Run every battery op, checking each outcome against the oracle;
    returns the set of ops the oracle said must succeed."""
    succeeded = set()
    for op, path, is_write, payload in BATTERY:
        want_kind, want = oracle.expect(path, is_write)
        if is_write:
            kind, result = _attempt(lambda: client.write(path, payload))
        else:
            kind, result = _attempt(lambda: client.read(path))
        if want_kind == "ok":
            assert kind == "ok", (
                f"{op}: expected success, got {kind}: {result}"
            )
            if not is_write:
                assert result == READ_BACK[op], f"{op}: wrong bytes"
            succeeded.add(op)
        else:
            assert kind == want_kind and want in str(result), (
                f"{op}: expected {want_kind} {want!r}, got {kind}: {result}"
            )
    return succeeded


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("transition", TRANSITIONS)
@pytest.mark.parametrize(
    "policy", list(UnmappedPolicy), ids=lambda p: p.value
)
@pytest.mark.parametrize("mode", list(AuthMode), ids=lambda m: m.value)
def test_conformance_cell(mode, policy, transition, fault):
    base = NfsExportConfig(auth_mode=mode, unmapped_policy=policy)
    world = FleetWorld(config=base)
    fleet = world.fleet
    site = fleet[0]
    snapshot = fleet.snapshot_config()

    # -- establish the client under the initial config ---------------------
    ws = world.login("jis")
    client = fleet.client(ws, 0, uid_on_client=JIS_UID, gids=[100])
    mounted = False
    if mode == AuthMode.MAPPED:
        client.kerberos_mount(ws.client, site.mount_service)
        mounted = True
        assert len(site.server.credmap) == 1
    elif mode == AuthMode.KERBEROS_RPC:
        client.enable_per_rpc_kerberos(ws.client, site.nfs_service)

    # -- transition --------------------------------------------------------------
    cfg2 = _transition_config(transition, base)
    if transition == "restore":
        # Mutate away from the base config, then restore the snapshot.
        mutated = base.with_policy(
            UnmappedPolicy.UNFRIENDLY
            if policy == UnmappedPolicy.FRIENDLY
            else UnmappedPolicy.FRIENDLY
        ).with_exports(ExportSpec("/", read_only=True))
        fleet.apply_config(mutated)
        changes = fleet.restore_config(snapshot)
        assert all(per_server for per_server in changes.values()), (
            "restoring over a mutated config must report changes"
        )
    else:
        changes = fleet.apply_config(cfg2)
        if transition == "noop":
            assert all(not per_server for per_server in changes.values())
        else:
            assert all(per_server for per_server in changes.values()), (
                f"{transition} must report a change on every server"
            )
    for other in fleet.servers:
        assert other.server.config == cfg2, (
            f"{other.name} is not running the transitioned config"
        )

    # -- fault -----------------------------------------------------------------
    if fault == "crash_restart":
        world.net.crash_host(site.name, downtime=5.0)
        world.net.runtime.run_for(6.0)
    elif fault == "expiry":
        world.net.runtime.run_for(TICKET_LIFE + 60.0)

    # -- oracle + credmap state before the battery -----------------------------
    oracle = Oracle(
        cfg2,
        mounted=mounted,
        mode_changed=cfg2.auth_mode != mode,
        fault=fault,
        perrpc=mode == AuthMode.KERBEROS_RPC,
        client_addr=ws.host.address,
    )
    entry_key = (str(ws.host.address), JIS_UID)
    expected_entries = (
        {entry_key: JIS_CRED} if oracle.mapping_present() else {}
    )
    assert site.server.credmap.entries() == expected_entries
    assert fleet[1].server.credmap.entries() == {}

    # -- the battery, op by op against the oracle ----------------------------
    acl_before = len([
        e for e in world.net.audit.events("acl_denial")
        if e.host == site.name
    ])
    succeeded = _run_battery(client, oracle)

    # -- full post-state: credmap, fs, audit ---------------------------------
    expected_entries = (
        {entry_key: JIS_CRED} if oracle.mapping_present() else {}
    )
    assert site.server.credmap.entries() == expected_entries, (
        "kernel map in the wrong state after the battery"
    )
    assert fleet[1].server.credmap.entries() == {}

    fs = site.server.fs
    want_notes = NEW_NOTES if "write_notes" in succeeded else NOTES
    assert fs.read("/u/jis/notes.txt", ROOT_CRED) == want_notes
    want_pad = b"pad" if "write_pad" in succeeded else b""
    assert fs.read("/scratch/pad.txt", ROOT_CRED) == want_pad
    # The untouched sibling server never saw a write.
    assert fleet[1].server.fs.read("/u/jis/notes.txt", ROOT_CRED) == NOTES

    denials = [
        e for e in world.net.audit.events("acl_denial")
        if e.host == site.name
    ][acl_before:]
    assert len(denials) == oracle.acl_denials, (
        f"expected {oracle.acl_denials} acl_denial events, "
        f"got {len(denials)}: {[e.detail for e in denials]}"
    )
    for event in denials:
        assert event.trace_id, (
            f"acl_denial not trace-joined: {event.detail}"
        )
