"""The Kerberos encryption library (paper Section 2.2), built from scratch.

The paper: *"Encryption in Kerberos is based on DES, the Data Encryption
Standard. The encryption library implements those routines. Several methods
of encryption are provided, with tradeoffs between speed and security. An
extension to the DES Cypher Block Chaining (CBC) mode, called the
Propagating CBC mode, is also provided."*

This package is that library:

* :mod:`repro.crypto.des` — the full 16-round DES block cipher (FIPS 46),
  implemented from the published tables and verified against standard test
  vectors;
* :mod:`repro.crypto.modes` — ECB, CBC, and the paper's PCBC mode, plus a
  ``seal``/``unseal`` message layer whose tamper evidence *depends on*
  PCBC's whole-message error propagation (the property the paper cites);
* :mod:`repro.crypto.string2key` — the one-way function turning a user's
  password into a DES key ("the private key is the result of a one-way
  function applied to the user's password");
* :mod:`repro.crypto.checksum` — DES-CBC message authentication (used by
  database propagation, Figure 13) and the fast quadratic checksum used
  for safe messages;
* :mod:`repro.crypto.keygen` — session-key generation ("Kerberos also
  generates temporary private keys, called session keys");
* :mod:`repro.crypto.keycache` — process-wide key-schedule cache behind
  ``DesKey.from_bytes`` and ``string_to_key`` (metrics:
  ``crypto.keyschedule_total{result}``).

As the paper notes, the encryption library is "an independent module, and
may be replaced" — nothing above this package touches DES internals; all
callers use :class:`DesKey`, ``seal``/``unseal`` and the checksums.  What
a replacement is checked against is outside the package: the loop-form
oracle in ``tests/crypto/reference_des.py``.
"""

from repro.crypto.des import (
    BLOCK_SIZE,
    DesKey,
    KeyError_ as DesKeyError,
    check_parity,
    fix_parity,
    is_weak_key,
)
from repro.crypto.modes import (
    SEAL_START,
    Mode,
    IntegrityError,
    cbc_decrypt,
    cbc_encrypt,
    ecb_decrypt,
    ecb_encrypt,
    pcbc_decrypt,
    pcbc_decrypt_many,
    pcbc_encrypt,
    pcbc_encrypt_many,
    seal,
    seal_many,
    seal_nested_many,
    seal_resume_many,
    sealed_length,
    sealed_prefix_state,
    unseal,
    unseal_many,
)
from repro.crypto.string2key import string_to_key
from repro.crypto.checksum import cbc_mac, quad_cksum, verify_cbc_mac
from repro.crypto.keygen import KeyGenerator
from repro.crypto import keycache

__all__ = [
    "BLOCK_SIZE",
    "DesKey",
    "DesKeyError",
    "IntegrityError",
    "KeyGenerator",
    "Mode",
    "SEAL_START",
    "cbc_decrypt",
    "cbc_encrypt",
    "cbc_mac",
    "check_parity",
    "ecb_decrypt",
    "ecb_encrypt",
    "fix_parity",
    "is_weak_key",
    "keycache",
    "pcbc_decrypt",
    "pcbc_decrypt_many",
    "pcbc_encrypt",
    "pcbc_encrypt_many",
    "quad_cksum",
    "seal",
    "seal_many",
    "seal_nested_many",
    "seal_resume_many",
    "sealed_length",
    "sealed_prefix_state",
    "string_to_key",
    "unseal",
    "unseal_many",
]
