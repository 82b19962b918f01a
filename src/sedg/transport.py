"""Message delivery between parties.

The in-process net parks every sent envelope in a pending set and lets a
scheduler choose delivery order; the network adversary reorders and delays
but never forges, drops, or duplicates.

Every send is framed as it would be on a stream: a 4-byte big-endian
unsigned length, then that many bytes of UTF-8 JSON encoding the envelope
in the format `codec` derives from `Envelope`. Framing bounds what one
message can carry, so a send above `MAX_FRAME` fails here as it would on a
real link.
"""
from __future__ import annotations

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


def frame_encode(envelope: Envelope) -> bytes:
    payload = codec.dumps(_encode_envelope(envelope)).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise FrameTooLarge(f"payload of {len(payload)} bytes exceeds {MAX_FRAME}")
    return struct.pack(">I", len(payload)) + payload


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
