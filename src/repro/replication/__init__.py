"""Database propagation (paper Section 5.3, Figure 13).

*"The master database is dumped every hour.  The database is sent, in
its entirety, to the slave machines, which then update their own
databases.  A program on the master host, called kprop, sends the update
to a peer program, called kpropd, running on each of the slave machines.
First kprop sends a checksum of the new database it is about to send.
The checksum is encrypted in the Kerberos master database key ...  The
slave propagation server calculates a checksum of the data it has
received, and if it matches the checksum sent by the master, the new
information is used to update the slave's database."*
"""

from repro.replication.kprop import Kprop, PropagationResult
from repro.replication.kpropd import Kpropd
from repro.replication.messages import (
    DeltaBody,
    DeltaReply,
    DeltaStatus,
    DeltaTransfer,
    PropKind,
    PropReply,
    PropTransfer,
    decode_prop_message,
    encode_prop_message,
)
from repro.replication.receiver import RangeReceiver, TransferReceiver

__all__ = [
    "DeltaBody",
    "DeltaReply",
    "DeltaStatus",
    "DeltaTransfer",
    "Kprop",
    "Kpropd",
    "PropagationResult",
    "PropKind",
    "PropReply",
    "PropTransfer",
    "RangeReceiver",
    "TransferReceiver",
    "decode_prop_message",
    "encode_prop_message",
]
