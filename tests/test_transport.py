from __future__ import annotations

import json
import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import signing_keys
from sedg import codec
from sedg.harness import make_request
from sedg.transport import (
    MAX_FRAME,
    Envelope,
    FrameTooLarge,
    InProcessNet,
    frame_encode,
)

A, B = b"alice", b"bob"


def _envelope(body=None):
    return Envelope(sender=A, recipient=B, body=body or {"type": "ping"})


def _prefixed(part: bytes) -> bytes:
    return len(part).to_bytes(4, "big") + part


def _parts(data: bytes) -> tuple[object, list[bytes]]:
    """The parsed JSON and the attachments of one whole frame."""
    assert int.from_bytes(data[:4], "big") == len(data) - 4
    parts, at = [], 4
    while at < len(data):
        length = int.from_bytes(data[at : at + 4], "big")
        parts.append(data[at + 4 : at + 4 + length])
        at += 4 + length
    assert at == len(data)
    return json.loads(parts[0].decode("utf-8")), parts[1:]


def _unframe(data: bytes) -> Envelope:
    """The envelope in one whole frame whose body holds no bytes, decoded
    with the codec: only its sender and recipient are attachments."""
    obj, attachments = _parts(data)
    sender, recipient = (attachments[obj[key]] for key in ("sender", "recipient"))
    return codec.decoder(Envelope)({**obj, "sender": sender, "recipient": recipient})


def _oracle_frame(envelope: Envelope) -> bytes:
    """The frame written by hand: walk the encoder's data, swap each bytes
    value for its index among the attachments, and length-prefix the JSON
    and the attachments."""
    attachments: list[bytes] = []

    def swap(value):
        if type(value) is bytes:
            attachments.append(value)
            return len(attachments) - 1
        if type(value) is dict:
            return {key: swap(item) for key, item in value.items()}
        if type(value) in (list, tuple):
            return [swap(item) for item in value]
        return value

    data = swap(codec.encoder(Envelope)(envelope))
    parts = [json.dumps(data, separators=(",", ":")).encode("utf-8"), *attachments]
    body = b"".join(map(_prefixed, parts))
    return len(body).to_bytes(4, "big") + body


# ---------------------------------------------------------------------------
# Frame format
# ---------------------------------------------------------------------------

def test_frame_round_trip():
    env = _envelope({"type": "offer", "price": 60})
    assert _unframe(frame_encode(env)) == env


def test_empty_body_envelope_is_minimal():
    env = Envelope(sender=A, recipient=B, body={})
    data = frame_encode(env)
    parts = [b'{"sender":0,"recipient":1,"body":{}}', A, B]
    assert data[4:] == b"".join(map(_prefixed, parts))
    assert _unframe(data) == env


def test_frame_prefix_is_big_endian_length():
    data = frame_encode(_envelope())
    length = int.from_bytes(data[:4], "big")
    assert length == len(data) - 4


def _long_string(seed: int, length: int, alphabet: str) -> str:
    return "".join(random.Random(seed).choices(alphabet, k=length))


# Long values, a few KiB, as a ciphertext body is.
LONG_LENGTHS = st.integers(1, 8192)
LONG_ALNUM = st.builds(
    _long_string,
    st.integers(0, 2**32),
    LONG_LENGTHS,
    st.sampled_from(["0123456789abcdef", string.ascii_letters + string.digits]),
)
# One character that JSON escapes (past ASCII, as \uXXXX) or that is no
# letter or digit, in an otherwise plain string.
NEEDS_ESCAPE = st.sampled_from(
    ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "-", " ", "\xe9", "\u2028", "\U0001f600"]
)
LONG_ESCAPED = st.builds(
    lambda text, char, at: text[:at] + char + text[at:],
    LONG_ALNUM,
    NEEDS_ESCAPE,
    st.integers(0, 8192),
)
# Strings a writer might confuse with its own structure: JSON punctuation,
# an attachment's index, a length prefix.
MARKER_LIKE = st.sampled_from(
    ['"', "", "{}", ":", ",", '","', "\\u0000", "\x00", "0", "1", "\x00\x00\x00\x04", "0" * 8]
)
STRINGS = st.text(max_size=8) | MARKER_LIKE | LONG_ALNUM | LONG_ESCAPED
# JSON turns these keys into strings.
KEYS = st.text(max_size=8) | MARKER_LIKE | LONG_ALNUM | st.integers() | st.booleans() | st.none()
PLAIN_DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=8) | MARKER_LIKE, PLAIN_DATA, max_size=4))
@example({"ciphertext": {"nonce": "00" * 12, "body": "ab" * 4096}})
@example({"a": "ab" * 4096, "b": {"c": "cd" * 4096, "d": {}}, "e": [1, {"f": "x"}]})
@example({"a": "ab" * 4096 + '"'})
@example({"a": {1: "ab" * 4096, "1": "cd" * 4096}})
def test_frame_matches_the_oracle(body):
    env = _envelope(body)
    assert frame_encode(env) == _oracle_frame(env)


def _long_bytes(seed: int, length: int) -> bytes:
    return random.Random(seed).randbytes(length)


# Bytes as `message_to_obj` leaves them, short and long, anywhere in the data.
BYTES = st.binary(max_size=8) | st.builds(_long_bytes, st.integers(0, 2**32), LONG_LENGTHS)
BYTES_DATA = st.recursive(
    st.none() | st.integers() | STRINGS | BYTES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=8) | MARKER_LIKE, BYTES_DATA, max_size=4))
@example({"ciphertext": {"nonce": bytes(12), "body": b"\xab" * 4096}})
@example({"a": b"\x01" * 4096, "b": {"c": [b"\x02" * 4096], "d": {}}, "e": b""})
@example({"a": {1: b"\xab" * 4096, "1": b"\xcd" * 4096}})
@example({"a": 0, "b": b"\x00\x00\x00\x04", "c": [2, b"", 3]})
def test_frame_with_bytes_matches_the_oracle(body):
    env = _envelope(body)
    assert frame_encode(env) == _oracle_frame(env)


def _assert_limit_is_exact(sized) -> None:
    at_limit = sized(MAX_FRAME)
    frame = frame_encode(at_limit)
    assert len(frame) == MAX_FRAME + 4
    assert frame == _oracle_frame(at_limit)
    del frame, at_limit
    with pytest.raises(FrameTooLarge):
        frame_encode(sized(MAX_FRAME + 1))


def test_frame_size_limit_is_exact():
    # Through the JSON part alone.
    base = len(frame_encode(_envelope({"data": [""]}))) - 4

    def sized(size: int) -> Envelope:
        return _envelope({"data": ["a" * (size - base)]})

    _assert_limit_is_exact(sized)


def test_frame_size_limit_is_exact_with_spliced_bytes():
    # Through a bytes value spliced in as an attachment (the ciphertext's
    # case), beside a string in the JSON part.
    base = len(frame_encode(_envelope({"pad": "", "data": b""}))) - 4

    def sized(size: int) -> Envelope:
        pad = (size - base) % 2
        return _envelope({"pad": "x" * pad, "data": bytes(size - base - pad)})

    _assert_limit_is_exact(sized)


def test_oversized_frame_rejected():
    big = Envelope(sender=A, recipient=B, body={"data": "x" * (MAX_FRAME + 1)})
    with pytest.raises(FrameTooLarge):
        frame_encode(big)


def test_frame_rejects_a_bytearray():
    # Only bytes are attachments; any other type JSON lacks is a TypeError,
    # as in `codec.dumps`.
    for body in ({"data": bytearray(b"x")}, {"data": [{"nested": bytearray()}]}):
        with pytest.raises(TypeError):
            frame_encode(_envelope(body))
        with pytest.raises(TypeError):
            codec.dumps(body)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(), st.text(max_size=16), st.booleans()),
        max_size=4,
    )
)
def test_frame_round_trip_property(body):
    env = Envelope(sender=A, recipient=B, body=body)
    assert _unframe(frame_encode(env)) == env


# ---------------------------------------------------------------------------
# In-process net
# ---------------------------------------------------------------------------

def test_send_then_deliver_then_recv_round_trips():
    net = InProcessNet()
    alice, bob = net.endpoint(A), net.endpoint(B)
    sent = alice.send(B, {"type": "offer"})
    assert net.pending == [sent]
    assert bob.recv() is None  # nothing delivered yet
    delivered = net.deliver(0)
    assert delivered == sent
    assert bob.recv() == sent
    assert bob.recv() is None


def test_exactly_once_under_arbitrary_delivery_orders():
    rng = random.Random(5)
    for trial in range(30):
        net = InProcessNet()
        alice, bob = net.endpoint(A), net.endpoint(B)
        sent = [alice.send(B, {"type": "m", "i": i}) for i in range(6)]
        sent += [bob.send(A, {"type": "m", "i": i}) for i in range(6, 9)]
        received = []
        while net.pending:
            net.deliver(rng.randrange(len(net.pending)))
        for endpoint in (alice, bob):
            while True:
                envelope = endpoint.recv()
                if envelope is None:
                    break
                received.append(envelope)
        # no loss, no duplication, regardless of order
        assert sorted(received, key=lambda e: e.body["i"]) == sent


def test_oversized_send_rejected_in_process():
    net = InProcessNet()
    alice = net.endpoint(A)
    with pytest.raises(FrameTooLarge):
        alice.send(B, {"data": "x" * (MAX_FRAME + 1)})
    assert net.pending == []


def test_full_dlog_exchange_over_the_in_process_net():
    # The complete off-chain conversation of a blinded exchange, with every
    # message encoded, framed and delivered by the net; no harness involved.
    from sedg.cert import Variant, notarize
    from sedg.crypto import TEST_GROUP, draw_scalar
    from sedg.ledger import Ledger
    from sedg.protocol import (
        BuyerPolicy,
        BuyerSession,
        SellerPolicy,
        SellerSession,
        Terms,
        message_from_obj,
        message_to_obj,
    )

    notary_keys = signing_keys(50)
    notary_id = b"n"
    seller_id = b"s"
    payload = b"socket-delivered goods"
    package = notarize(
        notary_keys,
        notary_id,
        payload,
        seller_id,
        Variant.V3,
        random.Random(51),
        group=TEST_GROUP,
    )
    chain = Ledger()
    buyer_id = b"b"
    chain.fund(buyer_id, 100)
    terms = Terms(Variant.V3, price=60, notary_fee=0, deadline_offset=100, group=TEST_GROUP)
    seller = SellerSession(package, terms, SellerPolicy.HONEST)
    buyer = BuyerSession(
        terms,
        buyer_id,
        seller_id,
        {b"n": notary_keys.public},
        BuyerPolicy.HONEST,
        draw_scalar(random.Random(53), TEST_GROUP),
    )

    net = InProcessNet()
    seller_ep, buyer_ep = net.endpoint(b"s"), net.endpoint(b"b")
    seller_ep.send(b"b", message_to_obj(seller.start()))
    net.deliver(0)
    offer = message_from_obj(buyer_ep.recv().body)
    (publish,) = buyer.on_offer(offer, chain.current_tick)
    (reply,) = buyer.on_answer(make_request(chain, publish))
    buyer_ep.send(b"s", message_to_obj(reply))

    net.deliver(0)
    ref = message_from_obj(seller_ep.recv().body)
    assert ref.r == buyer.blind
    (claim,) = seller.on_contract(ref, chain.find_contract(ref.contract_id), chain.current_tick)
    event = make_request(chain, claim)
    assert seller.on_answer(event) == []

    assert buyer.on_claim(event) == payload
    assert chain.get_balance(seller_id) == 60
