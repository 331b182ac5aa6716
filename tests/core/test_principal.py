"""Principal naming tests (paper Section 3, Figure 2) — experiment F2."""

import pytest
from hypothesis import given, strategies as st

from repro.encode import DecodeError
from repro.principal import (
    ADMIN_INSTANCE,
    INTERN_SIZE,
    Principal,
    PrincipalError,
    kdbm_principal,
    tgs_principal,
)

# The four example names printed in Figure 2 of the paper.
FIGURE_2_EXAMPLES = [
    ("bcn", ("bcn", "", "")),
    ("treese.root", ("treese", "root", "")),
    ("jis@LCS.MIT.EDU", ("jis", "", "LCS.MIT.EDU")),
    ("rlogin.priam@ATHENA.MIT.EDU", ("rlogin", "priam", "ATHENA.MIT.EDU")),
]


class TestFigure2:
    @pytest.mark.parametrize("text,parts", FIGURE_2_EXAMPLES)
    def test_paper_examples_parse(self, text, parts):
        p = Principal.parse(text)
        assert (p.name, p.instance, p.realm) == parts

    @pytest.mark.parametrize("text,parts", FIGURE_2_EXAMPLES)
    def test_paper_examples_round_trip(self, text, parts):
        assert str(Principal.parse(text)) == text


class TestParsing:
    def test_default_realm(self):
        p = Principal.parse("bcn", default_realm="ATHENA.MIT.EDU")
        assert p.realm == "ATHENA.MIT.EDU"

    def test_explicit_realm_wins_over_default(self):
        p = Principal.parse("jis@LCS.MIT.EDU", default_realm="ATHENA.MIT.EDU")
        assert p.realm == "LCS.MIT.EDU"

    def test_instance_may_contain_dots(self):
        p = Principal.parse("krbtgt.LCS.MIT.EDU@ATHENA.MIT.EDU")
        assert p.name == "krbtgt"
        assert p.instance == "LCS.MIT.EDU"

    @pytest.mark.parametrize(
        "bad", ["", "@REALM", "name@", "a@b@c", "name.", ".instance"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(PrincipalError):
            Principal.parse(bad)

    def test_none_rejected(self):
        with pytest.raises(PrincipalError):
            Principal.parse(None)

    def test_component_length_limit(self):
        with pytest.raises(PrincipalError):
            Principal("x" * 41)

    def test_name_may_not_contain_separators(self):
        with pytest.raises(PrincipalError):
            Principal("has@at")
        with pytest.raises(PrincipalError):
            Principal("", "inst")

    @given(
        st.text(
            alphabet=st.characters(blacklist_characters=".@", min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=20,
        ),
        st.text(
            alphabet=st.characters(blacklist_characters="@", min_codepoint=33, max_codepoint=126),
            max_size=20,
        ).filter(lambda s: not s.startswith(".")),
    )
    def test_parse_format_round_trip(self, name, instance):
        if instance.startswith(".") or (instance and instance[0] == "."):
            return
        p = Principal(name, instance, "ATHENA.MIT.EDU")
        assert Principal.parse(str(p)).same_entity(p)


class TestDerivedForms:
    def test_with_realm(self):
        p = Principal("bcn").with_realm("CS.WASHINGTON.EDU")
        assert str(p) == "bcn@CS.WASHINGTON.EDU"

    def test_admin_principal(self):
        admin = Principal("jis", "", "ATHENA.MIT.EDU").admin_principal()
        assert admin.instance == ADMIN_INSTANCE
        assert admin.is_admin

    def test_db_key_local_form(self):
        assert Principal("rlogin", "priam", "ATHENA.MIT.EDU").db_key() == "rlogin.priam"
        assert Principal("bcn", "", "X").db_key() == "bcn"

    def test_same_entity(self):
        a = Principal("jis", "", "ATHENA.MIT.EDU")
        assert a.same_entity(Principal("jis", "", "ATHENA.MIT.EDU"))
        assert not a.same_entity(Principal("jis", "", "LCS.MIT.EDU"))

    def test_wire_round_trip(self):
        p = Principal("rlogin", "priam", "ATHENA.MIT.EDU")
        assert Principal.from_bytes(p.to_bytes()) == p

    def test_repr(self):
        assert "treese.root" in repr(Principal("treese", "root"))


class TestWellKnownPrincipals:
    def test_local_tgs(self):
        tgs = tgs_principal("ATHENA.MIT.EDU")
        assert tgs.is_tgs
        assert str(tgs) == "krbtgt.ATHENA.MIT.EDU@ATHENA.MIT.EDU"

    def test_cross_realm_tgs(self):
        """Section 7.2: the remote TGS as registered locally."""
        remote = tgs_principal("ATHENA.MIT.EDU", "LCS.MIT.EDU")
        assert remote.is_tgs
        assert remote.instance == "LCS.MIT.EDU"
        assert remote.realm == "ATHENA.MIT.EDU"

    def test_tgs_requires_realm(self):
        with pytest.raises(PrincipalError):
            tgs_principal("")

    def test_kdbm(self):
        kdbm = kdbm_principal("ATHENA.MIT.EDU")
        assert kdbm.is_kdbm
        assert str(kdbm) == "changepw.kerberos@ATHENA.MIT.EDU"

    def test_user_is_not_tgs_or_kdbm(self):
        p = Principal("jis", "", "ATHENA.MIT.EDU")
        assert not p.is_tgs
        assert not p.is_kdbm
        assert not p.is_admin


def wire(*components: bytes) -> bytes:
    """Three length-prefixed components, built by hand."""
    return b"".join(len(c).to_bytes(4, "big") + c for c in components)


class TestImmutableValue:
    """A principal is a value: it cannot change, so one decoded instance
    may stand for every occurrence of its bytes (``Principal.INTERN``)."""

    @pytest.mark.parametrize("name", ["name", "instance", "realm", "_wire"])
    def test_field_assignment_raises(self, name):
        p = Principal("jis", "", "ATHENA.MIT.EDU")
        with pytest.raises(AttributeError, match="immutable"):
            setattr(p, name, "x")
        with pytest.raises(AttributeError, match="immutable"):
            delattr(p, name)
        assert (p.name, p.instance, p.realm) == ("jis", "", "ATHENA.MIT.EDU")

    def test_the_same_bytes_decode_to_one_instance(self):
        raw = Principal("rlogin", "priam", "ATHENA.MIT.EDU").to_bytes()
        first = Principal.from_bytes(raw)
        assert Principal.from_bytes(memoryview(raw)) is first
        # ... whose wire form is the bytes it came from.
        assert first._wire == raw
        assert first.with_realm("ATHENA.MIT.EDU") is first

    @pytest.mark.parametrize("good,bad,refusal", [
        ((b"abc", b"", b"R"), (b"a@c", b"", b"R"), PrincipalError),
        ((b"x" * 20, b"y" * 21, b""), (b"x" * 41, b"", b""), PrincipalError),
        ((b"abc", b"", b"R"), (b"ab\xff", b"", b"R"), DecodeError),
    ], ids=["at-sign", "over-long", "bad-utf8"])
    def test_malformed_bytes_are_refused_beside_interned_ones(
        self, good, bad, refusal
    ):
        assert len(wire(*good)) == len(wire(*bad))
        interned = Principal.from_bytes(wire(*good))
        assert Principal.from_bytes(wire(*good)) is interned
        for _ in range(2):
            with pytest.raises(refusal):
                Principal.from_bytes(wire(*bad))

    def test_the_intern_table_stays_at_its_bound(self):
        for i in range(5000):
            Principal.from_bytes(wire(f"u{i:04d}".encode(), b"", b"R"))
        assert len(Principal._interned) == INTERN_SIZE
        # The most recent ones are the ones kept.
        last = wire(b"u4999", b"", b"R")
        assert Principal.from_bytes(last) is Principal._interned[last]
