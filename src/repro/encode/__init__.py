"""Binary wire encoding for Kerberos protocol messages.

The 1988 Kerberos implementation shipped raw C structs over UDP.  This
package provides the equivalent substrate for the reproduction: a small,
deterministic, length-prefixed binary codec with explicit integer widths
and network (big-endian) byte order.  Every protocol message, ticket,
database dump, srvtab and store log in the repository is declared once
as a :class:`WireStruct` row and serialized by the code its declaration
compiles to, so that "bytes on the wire" is a real, inspectable artifact
rather than an in-process Python object.  A format with a magic or type
prefix writes ``prefix + row.to_bytes()`` and reads the row with
:meth:`WireStruct.read_at` just past the prefix.

Design points:

* big-endian fixed-width integers (the 4.3BSD convention the paper's
  implementation used on VAX/RT hardware after byte-order fixes);
* byte strings carry a 32-bit length prefix, so messages are
  self-delimiting and concatenable;
* decoding is strict: short reads, trailing garbage, and out-of-range
  values raise :class:`DecodeError` instead of being silently accepted.
"""

from repro.encode.batch import BatchReader, BatchWriter, pack_frames
from repro.encode.structfmt import DecodeError, EncodeError, WireStruct, field

__all__ = [
    "BatchReader",
    "BatchWriter",
    "DecodeError",
    "EncodeError",
    "WireStruct",
    "field",
    "pack_frames",
]
