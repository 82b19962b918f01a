"""Message delivery between parties.

The in-process net parks every sent envelope in a pending set and lets a
scheduler choose delivery order; the network adversary reorders and delays
but never forges, drops, or duplicates.

Every send is framed as it would be on a stream, so a send above
`MAX_FRAME` fails here as it would on a real link. A frame is a 4-byte
big-endian unsigned length, then that many bytes of parts, each a 4-byte
big-endian length and its bytes. The first part is the UTF-8 JSON of the
envelope in the format `codec` derives from `Envelope`, with each bytes
value in it replaced by its index among the attachments. The attachments
are the other parts: those bytes values, raw, in the order the JSON writer
met them. A ciphertext's body is thus copied once into its frame, never
hexed; a reader tells an index from an int by the type the codec expects
there, as it tells hex from a string in text.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from . import codec

MAX_FRAME = 16 * 1024 * 1024


class FrameTooLarge(Exception):
    pass


@dataclass(frozen=True)
class Envelope:
    """One routed message; the body is an encoded protocol message."""

    sender: bytes
    recipient: bytes
    body: dict


_encode_envelope = codec.encoder(Envelope)


def frame_encode(envelope: Envelope) -> bytes:
    attachments: list[bytes] = []

    def attach(value: object) -> int:
        # Any type JSON lacks but bytes is a TypeError, as in `codec.dumps`.
        if type(value) is not bytes:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        attachments.append(value)
        return len(attachments) - 1

    text = json.JSONEncoder(separators=(",", ":"), default=attach).encode(
        _encode_envelope(envelope)
    )
    parts = [text.encode("utf-8"), *attachments]
    size = 4 * len(parts) + sum(map(len, parts))
    if size > MAX_FRAME:
        raise FrameTooLarge(f"payload of {size} bytes exceeds {MAX_FRAME}")
    chunks = [struct.pack(">I", size)]
    for part in parts:
        chunks += (struct.pack(">I", len(part)), part)
    return b"".join(chunks)


class InProcessNet:
    """Mailbox network with scheduler-controlled delivery order.

    Sends append to the shared pending set; `deliver(i)` moves one envelope
    into the recipient's inbox. Every envelope is delivered exactly once no
    matter the order chosen.
    """

    def __init__(self) -> None:
        self.pending: list[Envelope] = []
        self._inboxes: dict[bytes, list[Envelope]] = {}

    def endpoint(self, party: bytes) -> "MailboxEndpoint":
        return MailboxEndpoint(self, party)

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
