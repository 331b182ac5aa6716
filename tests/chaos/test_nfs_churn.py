"""Chaos: Kerberized-NFS churn — expiry mid-I/O and crash-restart.

A client hammers a fleet server while its authorising ticket dies and
the server itself crash-restarts.  Both interruptions must ride out
through the retry policy plus the auto-remount hook, and — the actual
security property — the server must never *silently* serve with the
wrong credential: every successful secret read returns the right bytes,
and every refusal in the unfriendly world is a typed, trace-joined
``acl_denial`` in the audit log.
"""

import pytest

from repro.apps.nfs import (
    NfsClientError,
    NfsExportConfig,
    UnmappedPolicy,
)
from repro.core import RetryPolicy

from tests.apps.nfs_conformance.conftest import (
    FleetWorld,
    JIS_CRED,
    JIS_UID,
    SECRET,
    TICKET_LIFE,
)

pytestmark = pytest.mark.chaos

#: Generous enough to span the 5 s crash downtime with backoff.
POLICY = RetryPolicy(max_attempts=8, deadline=30.0, base_delay=0.5, jitter=0.25)


def _mounted(world, retry_policy=POLICY):
    ws = world.login("jis")
    site = world.fleet[0]
    client = world.fleet.client(
        ws, 0, uid_on_client=JIS_UID, retry_policy=retry_policy
    )
    client.kerberos_mount(ws.client, site.mount_service)
    client.enable_auto_remount(ws.client, site.mount_service)
    return ws, site, client


class TestExpiryMidIo:
    def test_expiry_rides_out_through_auto_remount(self):
        world = FleetWorld()
        ws, site, client = _mounted(world)
        for _ in range(3):
            assert client.read("/u/jis/secret.txt") == SECRET
        # The ticket dies mid-I/O; a fresh kinit is the user's part,
        # the remount handshake is the client library's.
        world.net.runtime.run_for(TICKET_LIFE + 60.0)
        ws.client.kinit("jis", "jis-pw")
        for _ in range(3):
            assert client.read("/u/jis/secret.txt") == SECRET
        assert world.net.metrics.total(
            "nfs.stale_mappings_total", server=site.name
        ) == 1

    def test_expiry_without_fresh_tgt_fails_loud_not_wrong(self):
        """With no new TGT the re-mount fails inside the hook — the
        client sees a hard error, never someone else's bytes."""
        world = FleetWorld()
        ws, site, client = _mounted(world)
        world.net.runtime.run_for(TICKET_LIFE + 60.0)
        with pytest.raises((NfsClientError, Exception)) as excinfo:
            client.read("/u/jis/secret.txt")
        assert "secret" not in str(excinfo.value)


class TestCrashRestart:
    def test_crash_restart_rides_out_through_retry_and_remount(self):
        world = FleetWorld()
        ws, site, client = _mounted(world)
        assert client.read("/u/jis/secret.txt") == SECRET
        # Crash the server under the client: the kernel map dies with
        # it.  The retry policy spans the downtime (its backoff sleeps
        # advance the sim clock through the restart), and the remount
        # hook restores the mapping.
        world.net.crash_host(site.name, downtime=5.0)
        assert client.read("/u/jis/secret.txt") == SECRET
        assert site.server.credmap.entries() == {
            (str(ws.host.address), JIS_UID): JIS_CRED
        }
        assert world.net.metrics.total(
            "nfs.map_losses_total", server=site.name
        ) == 1

    def test_unfriendly_crash_refusals_are_audited_never_silent(self):
        """The no-silent-wrong-credential property, asserted via the
        audit log: in the unfriendly world a post-crash unmapped request
        is refused with a trace-joined ``acl_denial`` — and once
        remounted, reads return exactly the right bytes again."""
        world = FleetWorld(
            config=NfsExportConfig(unmapped_policy=UnmappedPolicy.UNFRIENDLY)
        )
        ws, site, client = _mounted(world, retry_policy=None)
        assert client.read("/u/jis/secret.txt") == SECRET

        world.net.crash_host(site.name, downtime=5.0)
        world.net.runtime.run_for(6.0)

        # Strip the recovery hook: observe the raw refusal first.
        client.set_remount(None)
        with pytest.raises(NfsClientError, match="NFS access error"):
            client.read("/u/jis/secret.txt")
        denials = [
            e for e in world.net.audit.events("acl_denial")
            if e.host == site.name
        ]
        assert len(denials) == 1
        assert "no mapping" in denials[0].detail
        assert denials[0].trace_id, "refusal must be trace-joined"

        # Re-arm recovery: service restores with the *right* identity.
        client.enable_auto_remount(ws.client, site.mount_service)
        assert client.read("/u/jis/secret.txt") == SECRET
        assert site.server.credmap.entries() == {
            (str(ws.host.address), JIS_UID): JIS_CRED
        }

    def test_no_wrong_bytes_across_sustained_churn(self):
        """A longer pounding: interleave reads with a crash and an
        expiry; every read either raises or returns the true content —
        tallied against the audit log at the end."""
        world = FleetWorld()
        ws, site, client = _mounted(world)
        outcomes = {"ok": 0, "refused": 0}
        for round_no in range(6):
            if round_no == 2:
                world.net.crash_host(site.name, downtime=5.0)
            if round_no == 4:
                world.net.runtime.run_for(TICKET_LIFE + 60.0)
                ws.client.kinit("jis", "jis-pw")
            try:
                assert client.read("/u/jis/secret.txt") == SECRET
                outcomes["ok"] += 1
            except NfsClientError:
                outcomes["refused"] += 1
        # Auto-remount + retry absorbed every interruption.
        assert outcomes == {"ok": 6, "refused": 0}
        # Each fault's first attempt was refused *loudly* (the nobody
        # credential bounced off the 0700 home after the crash; the
        # stale mapping bounced after expiry) before recovery kicked in
        # — exactly two access errors, no silent serve.
        assert world.net.metrics.total(
            "nfs.access_errors_total", server=site.name
        ) == 2
