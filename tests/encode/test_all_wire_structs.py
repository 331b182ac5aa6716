"""Every WireStruct in the repository round-trips under fuzzing — and
its compiled codec agrees with the field walker it replaced.

Hypothesis builds random instances of every registered wire message
class, driven by the declared field kinds, and checks byte-exact
round-trips — one property covering the entire wire surface, including
structs added later (the registry is discovered by walking the modules).

Since PR 15 each class's encoder and decoder are generated code.  The
walker they replaced lives on in ``reference_codec.py`` as an
independent oracle: for every discovered class and every drawn instance
the compiled bytes must equal the walker's, and the compiled decode of
them the walker's decode.  The repository's classes only declare the
field sequences its protocols happen to need, so hypothesis also builds
*ad hoc* classes over drawn kind sequences — fixed-width runs of one to
six fields split by every variable-length kind — to put the run-fusing
boundaries where no message has them, and checks those on every
truncation and on bit flips too, error text included.
"""

import importlib
import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.encode import WireStruct, field
from repro.principal import Principal

from tests.encode import reference_codec as reference

MODULES = [
    "repro.core.messages",
    "repro.core.ticket",
    "repro.core.authenticator",
    "repro.core.safe_priv",
    "repro.kdbm.messages",
    "repro.replication.messages",
    "repro.apps.kerberized",
    "repro.apps.hesiod",
    "repro.apps.sms",
    "repro.apps.rlogin",
    "repro.apps.zephyr",
    "repro.apps.register",
    "repro.apps.nfs.protocol",
    "repro.database.schema",
    "repro.database.journal",
    "repro.database.db",
    "repro.database.store",
    "repro.database.admin_tools",
    "repro.principal",
]


def all_wire_structs():
    found = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (
                issubclass(cls, WireStruct)
                and cls is not WireStruct
                and cls.FIELDS
            ):
                found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return found


STRUCTS = all_wire_structs()

_principals = st.builds(
    Principal,
    st.text(alphabet="abcdefgh", min_size=1, max_size=8),
    st.text(alphabet="ijklmnop", max_size=8),
    st.text(alphabet="QRSTUVWX.", max_size=12).filter(
        lambda s: not s.startswith(".")
    ),
)

_SCALARS = {
    "u8": st.integers(0, 2**8 - 1),
    "u16": st.integers(0, 2**16 - 1),
    "u32": st.integers(0, 2**32 - 1),
    "u64": st.integers(0, 2**64 - 1),
    "i32": st.integers(-(2**31), 2**31 - 1),
    "i64": st.integers(-(2**63), 2**63 - 1),
    "f64": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "bytes": st.binary(max_size=40),
    "string": st.text(max_size=20),
}


def strategy_for(kind):
    if isinstance(kind, tuple) and len(kind) == 2 and kind[0] == "list":
        return st.lists(strategy_for(kind[1]), max_size=4)
    if isinstance(kind, str):
        if kind.startswith("list:"):
            return st.lists(strategy_for(kind[5:]), max_size=4)
        return _SCALARS[kind]
    if kind is Principal:
        return _principals
    if isinstance(kind, type) and issubclass(kind, WireStruct):
        return instance_of(kind)
    raise AssertionError(f"unhandled kind {kind!r}")


def instance_of(cls):
    return st.builds(
        lambda kw: cls(**kw),
        st.fixed_dictionaries(
            {f.name: strategy_for(f.kind) for f in cls.FIELDS}
        ),
    )


def check_against_reference(cls, instance):
    """Compiled and reference codecs agree on ``instance``, both ways."""
    wire = instance.to_bytes()
    assert wire == reference.to_bytes(instance)
    decoded = cls.from_bytes(wire)
    assert reference.plain(decoded) == reference.plain(instance)
    assert reference.plain(decoded) == reference.plain(
        reference.from_bytes(cls, wire)
    )
    # Mid-stream and over a view, as the batch plane decodes: same
    # value, position just past the record.
    mid, end = cls.read_at(memoryview(b"\xaa" + wire + b"\xbb"), 1)
    assert reference.plain(mid) == reference.plain(instance)
    assert end == 1 + len(wire)
    # Value semantics come from the same compiled plan.
    assert decoded == instance and hash(decoded) == hash(instance)
    assert instance.replace() == instance
    assert repr(decoded) == repr(instance)
    return wire


@pytest.mark.parametrize("name", sorted(STRUCTS), ids=lambda n: n.split(".")[-1])
def test_round_trip_fuzz(name):
    cls = STRUCTS[name]

    @given(_principals if cls is Principal else instance_of(cls))
    @settings(max_examples=25, deadline=None)
    def check(instance):
        assert cls.from_bytes(instance.to_bytes()) == instance
        check_against_reference(cls, instance)

    check()


def test_registry_is_substantial():
    """The walk actually found the protocol surface."""
    assert len(STRUCTS) >= 20, sorted(STRUCTS)


# -- ad hoc classes: run-fusing boundaries no message declares ---------------


class Pair(WireStruct):
    FIELDS = (field("x", "i32"), field("flag", "bool"))


class Label(WireStruct):
    FIELDS = (field("text", "string"),)


_FIXED_KINDS = ("u8", "u16", "u32", "u64", "i32", "i64", "f64", "bool")

#: What may split two fixed-width runs: every variable-length kind.
_SPLITTERS = (
    "bytes", "string", Pair, Label, Principal,
    "list:u16", "list:bool", "list:string", "list:list:u8",
    ("list", "f64"), ("list", Pair), ("list", Label), ("list", "bytes"),
)

_fixed_runs = st.lists(st.sampled_from(_FIXED_KINDS), min_size=1, max_size=6)


@st.composite
def _kind_sequences(draw):
    """run, splitter, run, splitter, … — a splitter may also lead or
    trail, and two may touch (an empty run between them)."""
    kinds = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            kinds.extend(draw(_fixed_runs))
        kinds.extend(
            draw(st.lists(st.sampled_from(_SPLITTERS), max_size=2))
        )
    if not kinds:
        kinds.extend(draw(_fixed_runs))
    return kinds


def ad_hoc_class(kinds):
    return type(
        "AdHoc", (WireStruct,),
        {"FIELDS": tuple(field(f"f{i}", k) for i, k in enumerate(kinds))},
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ad_hoc_classes_match_reference(data):
    cls = ad_hoc_class(data.draw(_kind_sequences()))
    wire = check_against_reference(cls, data.draw(instance_of(cls)))
    # Damage: every proper prefix, and a flipped bit at drawn places.
    # The two codecs must agree on the value or on the refusal — type
    # and text — whatever the bytes.
    damaged = [wire[:cut] for cut in range(len(wire))]
    for _ in range(min(8, len(wire))):
        flipped = reference.flip_bit(
            wire, data.draw(st.integers(0, len(wire) * 8 - 1))
        )
        # ... and both at once: the first fault in field order wins.
        damaged.extend(flipped[:cut] for cut in range(len(wire) + 1))
    for bad in damaged:
        assert reference.outcome(cls.from_bytes, bad) == reference.outcome(
            reference.from_bytes, cls, bad
        ), (cls.FIELDS, bad.hex())
