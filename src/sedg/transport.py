"""Message delivery between parties.

Two modes share one envelope and frame format. The in-process net parks
every sent envelope in a pending set and lets a scheduler choose delivery
order; the network adversary reorders and delays but never forges, drops,
or duplicates. The socket endpoint speaks the same frames over a stream for
multi-process runs.

Wire format, byte for byte: a 4-byte big-endian unsigned length, then that
many bytes of UTF-8 JSON encoding the envelope as
{"from": hex, "to": hex, "nonce": int, "body": {...}}.
"""
from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass

MAX_FRAME = 16 * 1024 * 1024


class TransportError(Exception):
    pass


class Closed(TransportError):
    pass


class FrameTooLarge(TransportError):
    pass


class MalformedFrame(TransportError):
    pass


@dataclass(frozen=True)
class Envelope:
    """One routed message; the nonce increases per (sender, recipient) pair."""

    sender: bytes
    recipient: bytes
    nonce: int
    body: dict


def envelope_to_obj(envelope: Envelope) -> dict:
    return {
        "from": envelope.sender.hex(),
        "to": envelope.recipient.hex(),
        "nonce": envelope.nonce,
        "body": envelope.body,
    }


def envelope_from_obj(obj: dict) -> Envelope:
    return Envelope(
        sender=bytes.fromhex(obj["from"]),
        recipient=bytes.fromhex(obj["to"]),
        nonce=int(obj["nonce"]),
        body=obj["body"],
    )


def frame_encode(envelope: Envelope) -> bytes:
    payload = json.dumps(envelope_to_obj(envelope), separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise FrameTooLarge(f"payload of {len(payload)} bytes exceeds {MAX_FRAME}")
    return struct.pack(">I", len(payload)) + payload


def frame_decode(data: bytes) -> tuple[Envelope, bytes]:
    """Decode one frame from the front of a buffer; returns the remainder.

    Raises MalformedFrame if the buffer does not hold a complete, valid frame.
    """
    if len(data) < 4:
        raise MalformedFrame("buffer shorter than the length prefix")
    (length,) = struct.unpack(">I", data[:4])
    if length > MAX_FRAME:
        raise FrameTooLarge(f"frame of {length} bytes exceeds {MAX_FRAME}")
    if len(data) < 4 + length:
        raise MalformedFrame(f"frame claims {length} bytes, {len(data) - 4} available")
    try:
        obj = json.loads(data[4 : 4 + length].decode("utf-8"))
        envelope = envelope_from_obj(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedFrame(f"undecodable frame payload: {exc}") from exc
    return envelope, data[4 + length :]


# ---------------------------------------------------------------------------
# In-process transport
# ---------------------------------------------------------------------------

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
        """Capture pending envelopes, inboxes and nonces for a later `restore`."""
        return (
            list(self.pending),
            {party: list(inbox) for party, inbox in self._inboxes.items()},
            {party: dict(ep._nonces) for party, ep in self._endpoints.items()},
        )

    def restore(self, saved: tuple) -> None:
        pending, inboxes, nonces = saved
        self.pending = list(pending)
        self._inboxes = {party: list(inbox) for party, inbox in inboxes.items()}
        for party, endpoint in self._endpoints.items():
            endpoint._nonces = dict(nonces[party])

    def _enqueue(self, envelope: Envelope) -> None:
        self.pending.append(envelope)

    def _take(self, party: bytes) -> Envelope | None:
        inbox = self._inboxes.setdefault(party, [])
        if not inbox:
            return None
        return inbox.pop(0)


class MailboxEndpoint:
    """One party's handle on the in-process net."""

    def __init__(self, net: InProcessNet, party: bytes) -> None:
        self._net = net
        self.party = party
        self._nonces: dict[bytes, int] = {}
        self._closed = False

    def send(self, to: bytes, body: dict) -> Envelope:
        if self._closed:
            raise Closed("endpoint closed")
        nonce = self._nonces.get(to, 0) + 1
        self._nonces[to] = nonce
        envelope = Envelope(sender=self.party, recipient=to, nonce=nonce, body=body)
        # Round-trip through the frame codec so in-process runs exercise the
        # same encoding limits as socket runs.
        frame_encode(envelope)
        self._net._enqueue(envelope)
        return envelope

    def recv(self) -> Envelope | None:
        if self._closed:
            raise Closed("endpoint closed")
        return self._net._take(self.party)

    def close(self) -> None:
        self._closed = True


# ---------------------------------------------------------------------------
# Socket transport
# ---------------------------------------------------------------------------

class SocketEndpoint:
    """Framed endpoint over a connected stream socket.

    Simulation-grade: frames are plaintext, so a deployment would have to
    wrap the stream in an encrypted channel.
    """

    def __init__(self, sock: socket.socket, party: bytes) -> None:
        self._sock = sock
        self.party = party
        self._nonces: dict[bytes, int] = {}
        self._buffer = b""
        self._closed = False

    def send(self, to: bytes, body: dict) -> Envelope:
        if self._closed:
            raise Closed("endpoint closed")
        nonce = self._nonces.get(to, 0) + 1
        self._nonces[to] = nonce
        envelope = Envelope(sender=self.party, recipient=to, nonce=nonce, body=body)
        data = frame_encode(envelope)
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise Closed(f"send failed: {exc}") from exc
        return envelope

    def recv(self) -> Envelope:
        header = self._read_exact(4, at_boundary=True)
        (length,) = struct.unpack(">I", header)
        if length > MAX_FRAME:
            self.close()
            raise FrameTooLarge(f"incoming frame of {length} bytes exceeds {MAX_FRAME}")
        payload = self._read_exact(length, at_boundary=False)
        try:
            envelope = envelope_from_obj(json.loads(payload.decode("utf-8")))
        except (ValueError, KeyError, TypeError) as exc:
            self.close()
            raise MalformedFrame(f"undecodable frame payload: {exc}") from exc
        return envelope

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def _read_exact(self, n: int, at_boundary: bool) -> bytes:
        """Read exactly n bytes; EOF mid-frame is malformed, at a boundary it is closure."""
        if self._closed:
            raise Closed("endpoint closed")
        while len(self._buffer) < n:
            try:
                chunk = self._sock.recv(65536)
            except OSError as exc:
                self.close()
                raise Closed(f"recv failed: {exc}") from exc
            if not chunk:
                got = len(self._buffer)
                self.close()
                if at_boundary and got == 0:
                    raise Closed("peer closed the connection")
                raise MalformedFrame(f"truncated frame: expected {n} bytes, got {got}")
            self._buffer += chunk
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out
