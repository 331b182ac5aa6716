"""Kerberos principal names (paper Section 3, Figure 2).

*"A name consists of a primary name, an instance, and a realm, expressed
as name.instance@realm."*  The figure's examples::

    bcn
    treese.root
    jis@LCS.MIT.EDU
    rlogin.priam@ATHENA.MIT.EDU

The primary name identifies the user or service; the instance
distinguishes variations (privileged user instances like ``root`` and
``admin``, or the host a service runs on — "rlogin.priam is the rlogin
server on the host named priam"); the realm names the administrative
entity whose database vouches for the principal.

Conventions implemented here, all from the paper:

* the NULL (empty) instance is the default for users;
* administrators act through a separate ``admin`` instance
  (Section 5.1), giving administration its own password;
* the ticket-granting service is itself a principal; for cross-realm
  operation (Section 7.2) its instance carries the *realm the tickets
  are good for*, so the TGT for a remote realm is a ticket for
  ``krbtgt.REMOTE@LOCAL``.
"""

from __future__ import annotations

from repro.encode import WireStruct, field

#: Primary name of the ticket-granting service.
TGS_NAME = "krbtgt"
#: Primary name / instance of the administration (KDBM) service, which the
#: ticket-granting service refuses to issue tickets for (Section 5.1).
KDBM_NAME = "changepw"
KDBM_INSTANCE = "kerberos"
#: Instance marking an administrator (Section 5.1's convention).
ADMIN_INSTANCE = "admin"
#: Maximum length of each component, as in the historical headers.
MAX_COMPONENT = 40
#: Distinct wire forms the decoder keeps interned (LRU): the names a KDC
#: meets over and over — its services, the TGS, the clients with live
#: sessions.  At Athena scale (5,000 users) the rest cycle through.
INTERN_SIZE = 512


_bind = object.__setattr__


class PrincipalError(ValueError):
    """Raised for malformed principal names."""


def _check_component(value: str, what: str, allow_dot: bool = False) -> str:
    if not isinstance(value, str):
        raise PrincipalError(f"{what} must be str, got {type(value).__name__}")
    if len(value) > MAX_COMPONENT:
        raise PrincipalError(f"{what} {value!r} exceeds {MAX_COMPONENT} chars")
    if "@" in value:
        raise PrincipalError(f"{what} {value!r} may not contain '@'")
    if not allow_dot and "." in value:
        raise PrincipalError(f"{what} {value!r} may not contain '.'")
    return value


class Principal(WireStruct):
    """A named Kerberos entity — user or server, the paper treats them alike.

    An immutable value: assigning a field raises, and the same three
    names may be one shared instance (``INTERN``; see
    :mod:`repro.encode.structfmt`).  A changed name is a new principal
    (:meth:`with_realm`, :meth:`replace`).
    """

    FIELDS = (
        field("name", "string"),
        field("instance", "string"),
        field("realm", "string"),
    )
    INTERN = INTERN_SIZE

    def __init__(self, name: str, instance: str = "", realm: str = "") -> None:
        _check_component(name, "primary name")
        if not name:
            raise PrincipalError("primary name must not be empty")
        # Instances may contain dots: the cross-realm TGS principal uses
        # the remote realm as its instance (krbtgt.LCS.MIT.EDU).  Parsing
        # stays unambiguous because the primary name may not contain '.'
        # and the split is on the first dot.
        _check_component(instance, "instance", allow_dot=True)
        _check_component(realm, "realm", allow_dot=True)
        # Bound once, here, past the refusing __setattr__ of a value.
        _bind(self, "name", name)
        _bind(self, "instance", instance)
        _bind(self, "realm", realm)

    # -- parsing / formatting ---------------------------------------------

    @classmethod
    def parse(cls, text: str, default_realm: str = "") -> "Principal":
        """Parse ``name[.instance][@realm]`` (Figure 2's syntax)."""
        if not isinstance(text, str) or not text:
            raise PrincipalError(f"cannot parse principal from {text!r}")
        if text.count("@") > 1:
            raise PrincipalError(f"multiple '@' in {text!r}")
        if "@" in text:
            local, realm = text.split("@", 1)
            if not realm:
                raise PrincipalError(f"empty realm in {text!r}")
        else:
            local, realm = text, default_realm
        if "." in local:
            name, instance = local.split(".", 1)
            if not instance:
                raise PrincipalError(f"empty instance in {text!r}")
        else:
            name, instance = local, ""
        return cls(name, instance, realm)

    def __str__(self) -> str:
        out = self.name
        if self.instance:
            out += f".{self.instance}"
        if self.realm:
            out += f"@{self.realm}"
        return out

    def __repr__(self) -> str:
        return f"Principal({str(self)!r})"

    # -- derived forms ------------------------------------------------------

    def with_realm(self, realm: str) -> "Principal":
        if realm == self.realm:
            return self
        return Principal(self.name, self.instance, realm)

    def admin_principal(self) -> "Principal":
        """The Section 5.1 admin variant: same name, ``admin`` instance."""
        return Principal(self.name, ADMIN_INSTANCE, self.realm)

    @property
    def is_admin(self) -> bool:
        return self.instance == ADMIN_INSTANCE

    @property
    def is_tgs(self) -> bool:
        return self.name == TGS_NAME

    @property
    def is_kdbm(self) -> bool:
        return self.name == KDBM_NAME and self.instance == KDBM_INSTANCE

    def db_key(self) -> str:
        """Realm-local lookup key: the database is per-realm, so records
        are keyed by name.instance only."""
        return f"{self.name}.{self.instance}" if self.instance else self.name

    def same_entity(self, other: "Principal") -> bool:
        """True if both names refer to the same principal (all components)."""
        return other is self or (
            self.name == other.name
            and self.instance == other.instance
            and self.realm == other.realm
        )


def tgs_principal(issuing_realm: str, for_realm: str = "") -> Principal:
    """The ticket-granting service principal.

    ``tgs_principal("ATHENA.MIT.EDU")`` is the local TGS.  For
    cross-realm (Section 7.2), ``tgs_principal("ATHENA.MIT.EDU",
    "LCS.MIT.EDU")`` names the *remote* realm's TGS as registered in the
    local database — the principal whose key is the inter-realm key.
    """
    if not issuing_realm:
        raise PrincipalError("issuing realm must not be empty")
    target = for_realm or issuing_realm
    return Principal(TGS_NAME, target, issuing_realm)


def kdbm_principal(realm: str) -> Principal:
    """The administration server's principal (Section 5)."""
    return Principal(KDBM_NAME, KDBM_INSTANCE, realm)
