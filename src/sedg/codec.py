"""The one JSON codec for wire messages and the event log.

Values are encoded from their type annotations, dataclasses from their field
definitions, so the format is written down once. An encoder builds data
(dicts, lists, strings, ints, None and bytes), and `dumps`, the one text
writer, turns it into JSON: bytes in data, lowercase hex in text.

- bytes stay bytes; `dumps` writes them as lowercase hex, and a bytes
  decoder takes bytes as they are or that hex (what parsed text holds),
  rejecting any other spelling; a string stays a string;
- ints are JSON integers, and a bool or a float is rejected;
- an enum travels by its value, and a `PartyId` by its id bytes;
- a `GroupElement` or `Scalar` is `{"group": name, "value": int}`; decoding
  looks the name up with `group_by_name` and builds the value through its
  checking constructor, so a peer never picks the group, and an element
  outside it raises `DomainError` (a `ValueError`) at decode;
- a dataclass is an object keyed by field name; a field equal to its
  default is left out;
- a union of dataclasses carries one `"type"` key naming the member (its
  `wire_tag`, or its class name in snake case); the candidates are the
  annotation's members, so a decoder builds only a type the field allows;
- a tuple is a list, and `X | None` is null or an `X`.

Decoding raises `ValueError` on any other input, unknown keys included.
Each type's encoder and decoder are built once, on first use.
"""
from __future__ import annotations

import binascii
import dataclasses
import enum
import functools
import json
import re
import types
import typing
from typing import Any, Callable

from . import crypto
from .cert import PartyId
from .crypto import GroupElement, Scalar

Encoder = Callable[[Any], Any]
Decoder = Callable[[Any], Any]

TYPE_KEY = "type"

# The one JSON text writer: compact, bytes as lowercase hex (`bytes.hex`
# raises TypeError on any other type JSON lacks), and one encoder object
# instead of a new one per `json.dumps` call with non-default separators.
dumps = json.JSONEncoder(separators=(",", ":"), default=bytes.hex).encode


def encoder(tp: object) -> Encoder:
    """Turns a value of type `tp` into data for `dumps`; trusts the value."""
    return _codec(tp)[0]


def decoder(tp: object) -> Decoder:
    """Checks data, or its parsed JSON text, and builds a value of type `tp`."""
    return _codec(tp)[1]


def _tag(cls: type) -> str:
    """The `"type"` a union member travels under."""
    return getattr(cls, "wire_tag", None) or re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()


def _a(cls: type) -> str:
    """The class name after its article: "a Certificate", "an Offer"."""
    return ("an " if cls.__name__[0] in "AEIOU" else "a ") + cls.__name__


def _same(value: Any) -> Any:
    return value


def _plain(kind: type) -> Decoder:
    def decode(obj: Any) -> Any:
        if type(obj) is not kind:  # not isinstance: a bool is no int here
            raise ValueError(f"expected {kind.__name__}, got {obj!r:.60}")
        return obj

    return decode


_PLAIN = {kind: _plain(kind) for kind in (int, str, dict)}


def _decode_bytes(obj: Any) -> bytes:
    """Bytes as they are, or lowercase hex only, so each byte string has one
    encoding in text."""
    if type(obj) is bytes:
        return obj
    if type(obj) is not str:
        raise ValueError(f"expected bytes or a hex string, got {obj!r:.60}")
    if any(digit in obj for digit in "ABCDEF"):
        raise ValueError(f"hex must be lowercase, got {obj!r:.60}")
    return binascii.unhexlify(obj)


def _encode_group_value(value: GroupElement | Scalar) -> dict:
    return {"group": crypto.group_name(value.params), "value": value.value}


def _group_value_decoder(cls: type) -> Decoder:
    def decode(obj: Any) -> Any:
        if type(obj) is not dict or obj.keys() != {"group", "value"}:
            raise ValueError(f"{_a(cls)} is an object with just a group and a value")
        return cls(_PLAIN[int](obj["value"]), crypto.group_by_name(obj["group"]))

    return decode


def _enum_decoder(cls: type) -> Decoder:
    # Keyed by type too, so a bytes value is never compared with a str one.
    by_value = {(type(member.value), member.value): member for member in cls}

    def decode(obj: Any) -> Any:
        try:
            return by_value[type(obj), obj]
        except (KeyError, TypeError):
            raise ValueError(f"{obj!r:.60} is not {_a(cls)}") from None

    return decode


def _tuple_decoder(item: Decoder) -> Decoder:
    def decode(obj: Any) -> tuple:
        if type(obj) is not list:
            raise ValueError(f"expected a list, got {obj!r:.60}")
        return tuple(item(v) for v in obj)

    return decode


@functools.cache
def _codec(tp: object) -> tuple[Encoder, Decoder]:
    if tp in _PLAIN:
        return _same, _PLAIN[tp]
    if tp is bytes:
        return _same, _decode_bytes
    if tp is PartyId:
        return (lambda party: party.id), (lambda obj: PartyId(_decode_bytes(obj)))
    if tp in (GroupElement, Scalar):
        return _encode_group_value, _group_value_decoder(tp)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return (lambda member: member.value), _enum_decoder(tp)
    if dataclasses.is_dataclass(tp):
        return _dataclass_codec(tp, None)
    if typing.get_origin(tp) is tuple:
        encode_item, decode_item = _codec(typing.get_args(tp)[0])
        return (lambda values: [encode_item(v) for v in values]), _tuple_decoder(decode_item)
    if typing.get_origin(tp) not in (typing.Union, types.UnionType):
        raise TypeError(f"no JSON form for {tp!r}")

    members = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    if len(members) == 1:
        encode, decode = _codec(members[0])
    else:
        codecs = {cls: _dataclass_codec(cls, _tag(cls)) for cls in members}
        by_tag = {_tag(cls): pair[1] for cls, pair in codecs.items()}

        def encode(value: Any) -> dict:
            return codecs[type(value)][0](value)

        def decode(obj: Any) -> Any:
            tag = obj.get(TYPE_KEY) if type(obj) is dict else None
            if type(tag) is not str or tag not in by_tag:
                raise ValueError(f"expected an object whose type is one of {sorted(by_tag)}")
            return by_tag[tag](obj)

    if len(members) == len(typing.get_args(tp)):
        return encode, decode
    return (lambda value: None if value is None else encode(value)), (
        lambda obj: None if obj is None else decode(obj)
    )


@functools.cache
def _dataclass_codec(cls: type, tag: str | None) -> tuple[Encoder, Decoder]:
    hints = typing.get_type_hints(cls)
    fields = [(f.name, *_codec(hints[f.name]), f.default) for f in dataclasses.fields(cls)]
    # Dataclasses put fields without a default first, so encoding the
    # required ones and then the rest keeps the field order.
    required = [f for f in fields if f[3] is dataclasses.MISSING]
    optional = [f for f in fields if f[3] is not dataclasses.MISSING]
    known = {f[0] for f in fields} | ({TYPE_KEY} if tag else set())

    def encode(value: Any) -> dict:
        obj = {TYPE_KEY: tag} if tag else {}
        for name, encode_field, _, _ in required:
            obj[name] = encode_field(getattr(value, name))
        for name, encode_field, _, default in optional:
            field = getattr(value, name)
            if field is not default and field != default:
                obj[name] = encode_field(field)
        return obj

    def decode(obj: Any) -> Any:
        if type(obj) is not dict:
            raise ValueError(f"expected an object for {_a(cls)}, got {obj!r:.60}")
        kwargs = {}
        for name, _, decode_field, default in fields:
            if name in obj:
                try:
                    kwargs[name] = decode_field(obj[name])
                except ValueError as exc:  # keeps its type: a DomainError stays one
                    exc.args = (f"{name}: {exc}",)
                    raise
            elif default is dataclasses.MISSING:
                raise ValueError(f"{_a(cls)} needs {name!r}")
        if len(kwargs) + bool(tag) != len(obj):
            unknown = sorted(str(key) for key in obj if key not in known)
            raise ValueError(f"unknown keys for {_a(cls)}: {unknown}")
        return cls(**kwargs)

    return encode, decode
