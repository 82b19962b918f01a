"""Message delivery between parties.

The in-process net parks every sent envelope in a pending set and lets a
scheduler choose delivery order; the network adversary reorders and delays
but never forges, drops, or duplicates.

Every send is framed as it would be on a stream: a 4-byte big-endian
unsigned length, then that many bytes of UTF-8 JSON encoding the envelope
in the format `codec` derives from `Envelope`. Framing bounds what one
message can carry, so a send above `MAX_FRAME` fails here as it would on a
real link.

The frame holds exactly the bytes `codec.dumps` writes: bytes in data,
lowercase hex in text. A long bytes value (a ciphertext's body) is hexed
straight into its own chunk of the frame, since its hex needs no escaping;
everything else is written by `codec.dumps`.
"""
from __future__ import annotations

import binascii
import struct
from dataclasses import dataclass

from . import codec

MAX_FRAME = 16 * 1024 * 1024


class TransportError(Exception):
    pass


class FrameTooLarge(TransportError):
    pass


@dataclass(frozen=True)
class Envelope:
    """One routed message; the body is an encoded protocol message."""

    sender: bytes
    recipient: bytes
    body: dict


_encode_envelope = codec.encoder(Envelope)


# Bytes this long are worth hexing into a chunk of their own; shorter ones,
# and every frame without one, cost less through `codec.dumps` alone.
SPLICE_MIN = 4096


def frame_encode(envelope: Envelope) -> bytes:
    obj = _encode_envelope(envelope)
    chunks = _write_dict(obj, []) if _has_long_bytes(obj) else [_json(obj)]
    size = sum(map(len, chunks))
    if size > MAX_FRAME:
        raise FrameTooLarge(f"payload of {size} bytes exceeds {MAX_FRAME}")
    return b"".join([struct.pack(">I", size), *chunks])


def _json(value: object) -> bytes:
    return codec.dumps(value).encode("utf-8")


def _has_long_bytes(obj: dict) -> bool:
    """Whether a bytes value of at least `SPLICE_MIN` bytes sits in `obj`'s dicts."""
    for value in obj.values():
        if type(value) is bytes:
            if len(value) >= SPLICE_MIN:
                return True
        elif type(value) is dict and _has_long_bytes(value):
            return True
    return False


def _write_dict(obj: dict, out: list[bytes]) -> list[bytes]:
    """Appends the bytes of `codec.dumps(obj)` to `out`, the hex of each long
    bytes value as its own chunk; returns `out`."""
    if not obj or any(type(key) is not str for key in obj):  # keys JSON converts
        out.append(_json(obj))
        return out
    separator = b"{"
    for key, value in obj.items():
        out += (separator, _json(key), b":")
        separator = b","
        if type(value) is dict:
            _write_dict(value, out)
        elif type(value) is bytes and len(value) >= SPLICE_MIN:
            out += (b'"', binascii.hexlify(value), b'"')
        else:
            out.append(_json(value))
    out.append(b"}")
    return out


class InProcessNet:
    """Mailbox network with scheduler-controlled delivery order.

    Sends append to the shared pending set; `deliver(i)` moves one envelope
    into the recipient's inbox. Every envelope is delivered exactly once no
    matter the order chosen.
    """

    def __init__(self) -> None:
        self.pending: list[Envelope] = []
        self._inboxes: dict[bytes, list[Envelope]] = {}
        self._endpoints: dict[bytes, MailboxEndpoint] = {}

    def endpoint(self, party: bytes) -> "MailboxEndpoint":
        if party not in self._endpoints:
            self._inboxes.setdefault(party, [])
            self._endpoints[party] = MailboxEndpoint(self, party)
        return self._endpoints[party]

    def deliver(self, index: int) -> Envelope:
        envelope = self.pending.pop(index)
        self._inboxes.setdefault(envelope.recipient, []).append(envelope)
        return envelope

    def checkpoint(self) -> tuple:
        """Capture pending envelopes and inboxes for a later `restore`."""
        return (
            list(self.pending),
            {party: list(inbox) for party, inbox in self._inboxes.items()},
        )

    def restore(self, saved: tuple) -> None:
        pending, inboxes = saved
        self.pending = list(pending)
        self._inboxes = {party: list(inbox) for party, inbox in inboxes.items()}


class MailboxEndpoint:
    """One party's handle on the in-process net."""

    def __init__(self, net: InProcessNet, party: bytes) -> None:
        self._net = net
        self.party = party

    def send(self, to: bytes, body: dict) -> Envelope:
        envelope = Envelope(sender=self.party, recipient=to, body=body)
        frame_encode(envelope)  # enforces the frame size limit
        self._net.pending.append(envelope)
        return envelope

    def recv(self) -> Envelope | None:
        inbox = self._net._inboxes.get(self.party)
        return inbox.pop(0) if inbox else None
