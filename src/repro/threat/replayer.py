"""A replay attacker (paper Section 2).

*"Replay occurs when a message is stolen off the network and resent
later."*  The replayer records datagrams and re-injects byte-identical
copies — with the original (forged) source address, since the wire does
not authenticate sources.  Section 4.3's defenses are what it runs into:
the timestamp window, and the server's cache of recently seen
authenticators.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim import Datagram
from repro.obs.wire import WireRecorder


class Replayer(WireRecorder):
    """Records traffic matching a filter; replays it on demand."""

    def replay(self, index: int = -1) -> Optional[bytes]:
        """Re-inject a captured datagram verbatim — same payload, same
        forged source address.  Returns the victim server's reply bytes
        (the attacker can read them; whether they are *useful* is another
        matter, since replies are sealed in keys the attacker lacks)."""
        if not self.records:
            raise ValueError("nothing captured to replay")
        original = self.records[index].datagram
        # Byte-identical on the wire — but the attacker cannot forge the
        # sim-side trace context, so the replay arrives context-less and
        # shows up as an orphan (empty trace_id) in the audit log.
        forged = Datagram(
            src=original.src,
            src_port=original.src_port,
            dst=original.dst,
            dst_port=original.dst_port,
            payload=original.payload,
        )
        return self.net.inject(forged)
