"""Declarative wire structs, compiled from their field declarations.

Protocol messages in this repository are flat, fixed-field-order records
(that is what the 1988 implementation's C structs were).  Rather than hand
writing an ``encode``/``decode`` pair per message, a message class declares
its fields once::

    class Authenticator(WireStruct):
        FIELDS = (
            field("client", Principal),
            field("address", "u32"),
            field("timestamp", "f64"),
            field("checksum", "u32"),
        )

and gets byte-exact ``to_bytes`` / ``from_bytes``, a keyword
constructor, equality, and repr.  Supported field kinds:

==========  ==========================================
kind        Python type
==========  ==========================================
``u8`` ..   int (width-checked)
``i32`` ..  int (signed)
``f64``     float
``bool``    bool
``bytes``   bytes (length-prefixed)
``string``  str (UTF-8, length-prefixed)
a class     nested :class:`WireStruct` subclass
``list:K``  list of scalar kind ``K`` (u32 count prefix)
(list, K)   list of any kind ``K`` — including a
            :class:`WireStruct` subclass (u32 count prefix)
==========  ==========================================

The compile step
----------------

Nothing walks ``FIELDS`` when a message is encoded or decoded.  The
``class`` statement itself (``__init_subclass__`` → :func:`_compile`)
turns the declaration into source text for ``__init__``,
``encode_into``, ``decode_from``, ``_astuple`` and ``__hash__`` and
``exec``\\ s it once — the ``dataclasses``/``namedtuple`` idiom.  In the
generated text the field order is straight-line code; every run of
adjacent fixed-width fields — together with the u32 length or count
prefix of the variable-length field that ends it — is *one*
precompiled ``struct.Struct`` call behind one bounds check;
length-prefixed fields are sliced straight out of the buffer; a nested
struct is a call to that class's own compiled method; and the decoder's
cursor is a local until it is handed back.  An unknown kind is refused
by the ``class`` statement, not at first use.  The declaration above
compiles to (``python -c "import linecache; from repro.core.authenticator
import Authenticator as A; print(''.join(linecache.getlines(
A.encode_into.__code__.co_filename)))"`` prints all five)::

    def encode_into(self, enc):
        write = enc._buf.write
        _v0 = self.client
        if not isinstance(_v0, _c0): _refuse('Principal', _v0)
        _v0.encode_into(enc)
        _v1 = self.address
        if _v1.__class__ is not int or not 0 <= _v1 <= 4294967295: _require_int(_v1, 0, 4294967295)
        _v2 = self.timestamp
        if _v2.__class__ is not float: _v2 = _as_float(_v2)
        _v3 = self.checksum
        if _v3.__class__ is not int or not 0 <= _v3 <= 4294967295: _require_int(_v3, 0, 4294967295)
        write(_c1.pack(_v1, _v2, _v3))

    def decode_from(cls, dec):
        data = dec._data
        pos = dec._pos
        end = len(data)
        dec._pos = pos
        _v0 = _c0.decode_from(dec)
        pos = dec._pos
        if pos + 16 > end: _short_read(data, pos, end, ((4, False), (8, False), (4, False)))
        _v1, _v2, _v3, = _c1.unpack_from(data, pos)
        pos += 16
        dec._pos = pos
        obj = _new(cls)
        obj.client = _v0
        obj.address = _v1
        obj.timestamp = _v2
        obj.checksum = _v3
        return obj

(``_c0`` is ``Principal``, ``_c1`` is ``struct.Struct(">IdI")``; the
tuple lists the run's field widths, and which are booleans, so that a
short read is reported as reading field by field would have.)  Every check
the per-field primitives of :mod:`repro.encode.buffer` make is kept, in
field order and with the same message: an encode failure is always
:class:`EncodeError`, a decode failure always :class:`DecodeError` —
never a leaked ``struct.error`` or ``IndexError``.

The generated code is compiled under a file name inside this package
(``…/repro/encode/structfmt.py:<codec Authenticator>``) and registered
with :mod:`linecache`, so tracebacks show the generated line and
profilers charge the codec's time to ``repro.encode``.

A class that writes its own ``__init__`` (``Principal`` is the only one
in the repository) keeps it, and its decoder constructs through it.
"""

from __future__ import annotations

import functools
import keyword
import linecache
import struct as _struct
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from repro.encode.buffer import (
    MAX_FIELD_LENGTH,
    DecodeError,
    Decoder,
    EncodeError,
    Encoder,
)


class field(NamedTuple):
    """One field declaration: a name plus a wire kind."""

    name: str
    kind: Any


# -- what the generated code calls at run time -------------------------------
#
# Only the slow paths: the straight-line code tests the exact type
# inline and comes here when that fails, to accept what the exact test
# was too strict for (an IntEnum, an int for a float, a bytearray) or to
# raise the typed error.

_MISSING = object()


def _refuse(expected: str, value: Any) -> None:
    raise EncodeError(f"expected {expected}, got {type(value).__name__}")


def _require_int(value: Any, lo: int, hi: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        _refuse("int", value)
    if not lo <= value <= hi:
        raise EncodeError(f"value {value} out of range [{lo}, {hi}]")


def _as_float(value: Any) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _refuse("float", value)
    return float(value)


def _as_bytes(value: Any) -> bytes:
    if not isinstance(value, (bytes, bytearray, memoryview)):
        _refuse("bytes", value)
    return bytes(value)


def _too_long(length: int) -> None:
    raise EncodeError(f"field of {length} bytes exceeds maximum")


def _bad_length(length: int) -> None:
    raise DecodeError(f"length prefix {length} exceeds maximum")


def _bad_count(count: int) -> None:
    raise DecodeError(f"list count {count} exceeds remaining bytes")


def _bad_boolean(byte: int) -> None:
    raise DecodeError(f"invalid boolean byte {byte!r}")


def _short_read(data, pos: int, end: int, run: Tuple[Tuple[int, bool], ...]):
    """Raise what reading a fused run field by field would have raised:
    the short read names the first field that does not fit, unless a
    boolean before it already holds an invalid byte."""
    for size, is_bool in run:
        if pos + size > end:
            raise DecodeError(
                f"short read: wanted {size} bytes, {end - pos} remain"
            )
        if is_bool and data[pos] > 1:
            _bad_boolean(data[pos])
        pos += size


def _field_error(obj: "WireStruct", values: tuple, unknown: dict) -> TypeError:
    missing = sorted(
        name for name, value in zip(obj._NAMES, values) if value is _MISSING
    )
    if missing:
        return TypeError(f"{type(obj).__name__} missing fields: {missing}")
    return TypeError(
        f"{type(obj).__name__} got unknown fields: {sorted(unknown)}"
    )


#: Everything generated code may call.
_RUNTIME = (
    _refuse, _require_int, _as_float, _as_bytes, _too_long, _bad_length,
    _bad_count, _bad_boolean, _short_read, _field_error,
)


# -- the compile step --------------------------------------------------------

#: Fixed-width kinds: struct code, width, and for integers the range.
_INTS = {
    "u8": ("B", 1, 0, 0xFF),
    "u16": ("H", 2, 0, 0xFFFF),
    "u32": ("I", 4, 0, 0xFFFFFFFF),
    "u64": ("Q", 8, 0, 0xFFFFFFFFFFFFFFFF),
    "i32": ("i", 4, -(2**31), 2**31 - 1),
    "i64": ("q", 8, -(2**63), 2**63 - 1),
}


@functools.lru_cache(maxsize=None)
def _struct_for(codes: str) -> _struct.Struct:
    """One shared big-endian ``Struct`` per distinct run shape."""
    return _struct.Struct(">" + codes)


def _list_item(kind: Any) -> Any:
    """The item kind when ``kind`` declares a list, else None."""
    if isinstance(kind, tuple) and len(kind) == 2 and kind[0] == "list":
        return kind[1]
    if isinstance(kind, str) and kind.startswith("list:"):
        return kind[len("list:"):]
    return None


def _check_kind(kind: Any) -> None:
    """Refuse a kind the code generators have no case for."""
    item = _list_item(kind)
    if item is not None:
        _check_kind(item)
    elif isinstance(kind, str):
        if kind not in _INTS and kind not in ("f64", "bool", "bytes", "string"):
            raise EncodeError(f"unknown wire kind {kind!r}")
    elif not (isinstance(kind, type) and issubclass(kind, WireStruct)):
        raise EncodeError(f"unsupported wire kind {kind!r}")


class _Source:
    """Source text being generated, plus the constants it refers to."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.namespace: Dict[str, Any] = {
            "DecodeError": DecodeError,
            "_MISSING": _MISSING,
            "_new": object.__new__,
            **{helper.__name__: helper for helper in _RUNTIME},
        }
        self._consts: List[Any] = []
        self._depth = 0
        self._temps = 0

    def line(self, text: str = "") -> None:
        self.lines.append("    " * self._depth + text if text else "")

    @contextmanager
    def indented(self) -> Iterator[None]:
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1

    def temp(self) -> str:
        self._temps += 1
        return f"_v{self._temps - 1}"

    def new_function(self) -> None:
        self._temps = 0

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def const(self, value: Any) -> str:
        """A global name bound to ``value`` (one name per object)."""
        for index, bound in enumerate(self._consts):
            if bound is value:
                return f"_c{index}"
        self._consts.append(value)
        name = f"_c{len(self._consts) - 1}"
        self.namespace[name] = value
        return name


def _emit_encode(src: _Source, items: Sequence[Tuple[str, Any]]) -> None:
    """Code that writes each ``(value expression, kind)`` in order."""
    run: List[Tuple[str, str]] = []  # (struct code, value) not yet written

    def flush() -> None:
        if run:
            packer = src.const(_struct_for("".join(c for c, _ in run)))
            values = ", ".join(v for _, v in run)
            src.line(f"write({packer}.pack({values}))")
            run.clear()

    for expr, kind in items:
        v = src.temp()
        src.line(f"{v} = {expr}")
        item = _list_item(kind)
        if item is not None:
            n = src.temp()
            src.line(f"if not isinstance({v}, (list, tuple)): _refuse('list', {v})")
            src.line(f"{n} = len({v})")
            src.line(f"if {n} > 4294967295: _require_int({n}, 0, 4294967295)")
            run.append(("I", n))
            flush()
            each = src.temp()
            src.line(f"for {each} in {v}:")
            with src.indented():
                _emit_encode(src, [(each, item)])
        elif kind in _INTS:
            code, _size, lo, hi = _INTS[kind]
            src.line(
                f"if {v}.__class__ is not int or not {lo} <= {v} <= {hi}: "
                f"_require_int({v}, {lo}, {hi})"
            )
            run.append((code, v))
        elif kind == "f64":
            src.line(f"if {v}.__class__ is not float: {v} = _as_float({v})")
            run.append(("d", v))
        elif kind == "bool":
            src.line(f"if {v}.__class__ is not bool: _refuse('bool', {v})")
            run.append(("B", v))
        elif kind in ("bytes", "string"):
            if kind == "string":
                src.line(f"if not isinstance({v}, str): _refuse('str', {v})")
                src.line(f"{v} = {v}.encode('utf-8')")
            else:
                src.line(f"if {v}.__class__ is not bytes: {v} = _as_bytes({v})")
            n = src.temp()
            src.line(f"{n} = len({v})")
            src.line(f"if {n} > {MAX_FIELD_LENGTH}: _too_long({n})")
            run.append(("I", n))
            flush()
            src.line(f"write({v})")
        else:  # a nested struct (_check_kind admitted nothing else)
            flush()
            src.line(
                f"if not isinstance({v}, {src.const(kind)}): "
                f"_refuse({kind.__name__!r}, {v})"
            )
            src.line(f"{v}.encode_into(enc)")
    flush()


def _emit_decode(src: _Source, kinds: Sequence[Any]) -> List[str]:
    """Code that reads one value per kind, in order, advancing ``pos``;
    returns the expression holding each value."""
    values: List[str] = []
    run: List[Tuple[str, int, bool, str]] = []  # code, width, is bool, target

    def flush() -> None:
        if not run:
            return
        size = sum(width for _, width, _, _ in run)
        unpacker = src.const(_struct_for("".join(code for code, *_ in run)))
        widths = tuple((width, is_bool) for _, width, is_bool, _ in run)
        targets = "".join(f"{target}, " for *_, target in run)
        src.line(
            f"if pos + {size} > end: _short_read(data, pos, end, {widths})"
        )
        src.line(f"{targets}= {unpacker}.unpack_from(data, pos)")
        src.line(f"pos += {size}")
        for _, _, is_bool, target in run:
            if is_bool:
                src.line(f"if {target} > 1: _bad_boolean({target})")
                src.line(f"{target} = {target} == 1")
        run.clear()

    for kind in kinds:
        v = src.temp()
        values.append(v)
        item = _list_item(kind)
        if item is not None:
            n = src.temp()
            run.append(("I", 4, False, n))
            flush()
            src.line(f"if {n} > end - pos: _bad_count({n})")
            src.line(f"{v} = []")
            src.line(f"for _ in range({n}):")
            with src.indented():
                (each,) = _emit_decode(src, [item])
                src.line(f"{v}.append({each})")
        elif kind in _INTS:
            code, size, _lo, _hi = _INTS[kind]
            run.append((code, size, False, v))
        elif kind == "f64":
            run.append(("d", 8, False, v))
        elif kind == "bool":
            run.append(("B", 1, True, v))
        elif kind in ("bytes", "string"):
            n = src.temp()
            run.append(("I", 4, False, n))
            flush()
            src.line(f"if {n} > {MAX_FIELD_LENGTH}: _bad_length({n})")
            src.line(
                f"if pos + {n} > end: "
                f"_short_read(data, pos, end, (({n}, False),))"
            )
            if kind == "bytes":
                src.line(f"{v} = data[pos:pos + {n}]")
                src.line(f"if {v}.__class__ is not bytes: {v} = bytes({v})")
            else:
                src.line("try:")
                src.line(f"    {v} = str(data[pos:pos + {n}], 'utf-8')")
                src.line("except UnicodeDecodeError as exc:")
                src.line(
                    "    raise DecodeError("
                    "f'invalid UTF-8 string: {exc}') from exc"
                )
            src.line(f"pos += {n}")
        else:  # a nested struct
            flush()
            src.line("dec._pos = pos")
            src.line(f"{v} = {src.const(kind)}.decode_from(dec)")
            src.line("pos = dec._pos")
    flush()
    return values


def _hashable(expr: str, kind: Any, depth: int = 0) -> str:
    """``expr`` with lists spelled as tuples — which fields hold lists,
    and how deep, is known from the kind."""
    item = _list_item(kind)
    if item is None:
        return expr
    if _list_item(item) is None:
        return f"tuple({expr})"
    each = f"_i{depth}"
    return f"tuple({_hashable(each, item, depth + 1)} for {each} in {expr})"


def _generate(class_name: str, fields: Sequence[field], own_init: bool) -> _Source:
    """The source of one class's codec and value-semantics methods (a
    pure function of the declaration, so it can be produced again)."""
    names = tuple(f.name for f in fields)
    src = _Source()

    if not own_init:
        src.new_function()
        params = "".join(f"{name}=_MISSING, " for name in names)
        star = "*, " if names else ""
        src.line(f"def __init__(_self, {star}{params}**_unknown):")
        with src.indented():
            absent = "".join(f" or {name} is _MISSING" for name in names)
            src.line(f"if _unknown{absent}:")
            given = "".join(f"{name}, " for name in names)
            src.line(f"    raise _field_error(_self, ({given}), _unknown)")
            for name in names:
                src.line(f"_self.{name} = {name}")
        src.line()

    src.new_function()
    src.line("def encode_into(self, enc):")
    with src.indented():
        if fields:
            src.line("write = enc._buf.write")
            _emit_encode(src, [(f"self.{f.name}", f.kind) for f in fields])
        else:
            src.line("pass")
    src.line()

    src.new_function()
    src.line("def decode_from(cls, dec):")
    with src.indented():
        src.line("data = dec._data")
        src.line("pos = dec._pos")
        src.line("end = len(data)")
        values = _emit_decode(src, [f.kind for f in fields])
        src.line("dec._pos = pos")
        if own_init:
            # The hand-written constructor's checks apply to the wire too.
            args = ", ".join(f"{n}={v}" for n, v in zip(names, values))
            src.line(f"return cls({args})")
        else:
            src.line("obj = _new(cls)")
            for name, v in zip(names, values):
                src.line(f"obj.{name} = {v}")
            src.line("return obj")
    src.line()

    src.line("def _astuple(self):")
    src.line("    return (" + "".join(f"self.{n}, " for n in names) + ")")
    src.line()

    hashed = "".join(f"{_hashable(f'self.{f.name}', f.kind)}, " for f in fields)
    src.line("def __hash__(self):")
    src.line(f"    return hash(({class_name!r}, ({hashed})))")
    return src


def _compile(cls: type) -> None:
    """Generate and install ``cls``'s methods from its ``FIELDS``."""
    fields = tuple(cls.FIELDS)
    names = tuple(f.name for f in fields)
    for f in fields:
        name = f.name
        if (
            not isinstance(name, str)
            or not name.isidentifier()
            or keyword.iskeyword(name)
            or name.startswith("_")
            or names.count(name) > 1
        ):
            raise EncodeError(
                f"{cls.__name__}: field name {name!r} is not a unique "
                "public identifier"
            )
        _check_kind(f.kind)
    class_name = cls.__name__
    own_init = "__init__" in cls.__dict__
    src = _generate(class_name, fields, own_init)

    # A file name inside this package keeps the codec's time on the
    # ``encode`` layer in profiles.  The linecache entry lets tracebacks
    # show the generated line; it is the lazy form (a 1-tuple holding a
    # source getter), so no text is kept for a line nobody asks for.
    filename = f"{__file__}:<codec {cls.__qualname__}>"
    linecache.cache[filename] = (
        lambda: _generate(class_name, fields, own_init).text(),
    )
    exec(compile(src.text(), filename, "exec"), src.namespace)

    cls._NAMES = names
    for name in ("__init__", "encode_into", "decode_from", "_astuple", "__hash__"):
        if name == "__init__" and own_init:
            continue
        function = src.namespace.pop(name)
        function.__qualname__ = f"{cls.__qualname__}.{name}"
        function.__module__ = cls.__module__
        function.__doc__ = getattr(WireStruct, name).__doc__
        setattr(
            cls, name,
            classmethod(function) if name == "decode_from" else function,
        )


class WireStruct:
    """Base class for declaratively-defined wire records.

    A subclass that declares ``FIELDS`` is compiled by its ``class``
    statement; ``__init__``, ``encode_into``, ``decode_from``,
    ``_astuple`` and ``__hash__`` below are the documented signatures
    the generated methods replace.
    """

    FIELDS: tuple = ()
    _NAMES: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "FIELDS" in cls.__dict__:
            _compile(cls)

    def __init__(self, **kwargs: Any) -> None:
        """Bind every declared field by keyword; a missing or unknown
        name is a ``TypeError`` naming it.  (This generic form is what a
        hand-written ``__init__`` reaches through ``super()``.)"""
        values = tuple(kwargs.pop(name, _MISSING) for name in self._NAMES)
        if kwargs or any(value is _MISSING for value in values):
            raise _field_error(self, values, kwargs)
        for name, value in zip(self._NAMES, values):
            setattr(self, name, value)

    # -- serialization ----------------------------------------------------

    def encode_into(self, enc: Encoder) -> None:
        """Append this record's fields, in declaration order, to ``enc``."""

    @classmethod
    def decode_from(cls, dec: Decoder) -> "WireStruct":
        """Read one record from ``dec``, leaving its cursor after it."""
        return cls()

    def to_bytes(self) -> bytes:
        enc = Encoder()
        self.encode_into(enc)
        return enc.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "WireStruct":
        dec = Decoder(data)
        obj = cls.decode_from(dec)
        dec.expect_eof()
        return obj

    # -- value semantics ----------------------------------------------------

    def _astuple(self) -> tuple:
        """The field values, in declaration order."""
        return ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        """Hash by type name and field values (lists as tuples)."""
        return hash((type(self).__name__, ()))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._NAMES, self._astuple())
        )
        return f"{type(self).__name__}({parts})"

    def replace(self, **changes: Any) -> "WireStruct":
        """Return a copy with the given fields replaced."""
        values = dict(zip(self._NAMES, self._astuple()))
        values.update(changes)
        return type(self)(**values)
