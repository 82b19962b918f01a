from __future__ import annotations

import json
import random
import string
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import signing_keys
from sedg import codec
from sedg.transport import (
    MAX_FRAME,
    SPLICE_MIN,
    Envelope,
    FrameTooLarge,
    InProcessNet,
    frame_encode,
)

A, B = b"alice", b"bob"


def _envelope(body=None):
    return Envelope(sender=A, recipient=B, body=body or {"type": "ping"})


def _unframe(data: bytes) -> Envelope:
    """The envelope in one whole frame, decoded with the codec."""
    assert int.from_bytes(data[:4], "big") == len(data) - 4
    return codec.decoder(Envelope)(json.loads(data[4:].decode("utf-8")))


# ---------------------------------------------------------------------------
# Frame format
# ---------------------------------------------------------------------------

def test_frame_round_trip():
    env = _envelope({"type": "offer", "price": 60})
    assert _unframe(frame_encode(env)) == env


def test_empty_body_envelope_is_minimal():
    env = Envelope(sender=A, recipient=B, body={})
    data = frame_encode(env)
    assert data[4:] == b'{"sender":"616c696365","recipient":"626f62","body":{}}'
    assert _unframe(data) == env


def test_frame_prefix_is_big_endian_length():
    data = frame_encode(_envelope())
    length = int.from_bytes(data[:4], "big")
    assert length == len(data) - 4


def _old_frame_encode(envelope: Envelope) -> bytes:
    """The frame as written before long strings were spliced in: the oracle."""
    payload = codec.dumps(codec.encoder(Envelope)(envelope)).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


def _long_string(seed: int, length: int, alphabet: str) -> str:
    return "".join(random.Random(seed).choices(alphabet, k=length))


LONG_LENGTHS = st.sampled_from([SPLICE_MIN - 1, SPLICE_MIN, SPLICE_MIN + 1]) | st.integers(
    SPLICE_MIN, 2 * SPLICE_MIN
)
LONG_ALNUM = st.builds(
    _long_string,
    st.integers(0, 2**32),
    LONG_LENGTHS,
    st.sampled_from(["0123456789abcdef", string.ascii_letters + string.digits]),
)
# One character that JSON escapes (past ASCII, as \uXXXX) or that is no
# letter or digit, in an otherwise spliceable string.
NEEDS_ESCAPE = st.sampled_from(
    ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "-", " ", "\xe9", "\u2028", "\U0001f600"]
)
LONG_ESCAPED = st.builds(
    lambda text, char, at: text[:at] + char + text[at:],
    LONG_ALNUM,
    NEEDS_ESCAPE,
    st.integers(0, 2 * SPLICE_MIN),
)
# Strings an encoder might use as internal markers or splice points.
MARKER_LIKE = st.sampled_from(
    ['"', "", "{}", ":", ",", '","', "\\u0000", "\x00", "__splice__", "0" * 8]
)
STRINGS = st.text(max_size=8) | MARKER_LIKE | LONG_ALNUM | LONG_ESCAPED
# JSON turns these keys into strings, so a dict holding one is written whole.
KEYS = st.text(max_size=8) | MARKER_LIKE | LONG_ALNUM | st.integers() | st.booleans() | st.none()
PLAIN_DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=8) | MARKER_LIKE, PLAIN_DATA, max_size=4))
@example({"ciphertext": {"nonce": "00" * 12, "body": "ab" * SPLICE_MIN}})
@example({"a": "ab" * SPLICE_MIN, "b": {"c": "cd" * SPLICE_MIN, "d": {}}, "e": [1, {"f": "x"}]})
@example({"a": "ab" * SPLICE_MIN + '"'})
@example({"a": {1: "ab" * SPLICE_MIN, "1": "cd" * SPLICE_MIN}})
def test_frame_is_byte_identical_to_the_plain_json_frame(body):
    env = _envelope(body)
    assert frame_encode(env) == _old_frame_encode(env)


def _sized_envelope(size: int, spliced: bool) -> Envelope:
    """An envelope whose frame payload is `size` bytes. A long string in a
    dict is spliced; one inside a list is written by `codec.dumps`."""

    def body(length: int) -> dict:
        text = "a" * length
        return {"data": text} if spliced else {"data": [text]}

    overhead = len(frame_encode(_envelope(body(SPLICE_MIN)))) - 4 - SPLICE_MIN
    return _envelope(body(size - overhead))


@pytest.mark.parametrize("spliced", [True, False], ids=["spliced", "plain"])
def test_frame_size_limit_is_exact(spliced):
    at_limit = _sized_envelope(MAX_FRAME, spliced)
    frame = frame_encode(at_limit)
    assert len(frame) == MAX_FRAME + 4
    assert frame == _old_frame_encode(at_limit)
    del frame
    with pytest.raises(FrameTooLarge):
        frame_encode(_sized_envelope(MAX_FRAME + 1, spliced))


def _long_bytes(seed: int, length: int) -> bytes:
    return random.Random(seed).randbytes(length)


# Bytes as `message_to_obj` leaves them: short ones go through `codec.dumps`,
# and long ones in a dict are hexed into a chunk of their own.
BYTES = st.binary(max_size=8) | st.builds(_long_bytes, st.integers(0, 2**32), LONG_LENGTHS)
BYTES_DATA = st.recursive(
    st.none() | st.integers() | STRINGS | BYTES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=8) | MARKER_LIKE, BYTES_DATA, max_size=4))
@example({"ciphertext": {"nonce": bytes(12), "body": b"\xab" * SPLICE_MIN}})
@example({"a": b"\x01" * SPLICE_MIN, "b": {"c": [b"\x02" * SPLICE_MIN], "d": {}}, "e": b""})
@example({"a": {1: b"\xab" * SPLICE_MIN, "1": b"\xcd" * SPLICE_MIN}})
def test_frame_with_bytes_is_byte_identical_to_the_plain_json_frame(body):
    env = _envelope(body)
    assert frame_encode(env) == _old_frame_encode(env)


def test_frame_size_limit_is_exact_with_spliced_bytes():
    base = len(frame_encode(_envelope({"pad": "", "data": b""}))) - 4

    def sized(size: int) -> Envelope:
        length, pad = divmod(size - base, 2)
        return _envelope({"pad": "x" * pad, "data": bytes(length)})

    at_limit = sized(MAX_FRAME)
    frame = frame_encode(at_limit)
    assert len(frame) == MAX_FRAME + 4
    assert frame == _old_frame_encode(at_limit)
    del frame
    with pytest.raises(FrameTooLarge):
        frame_encode(sized(MAX_FRAME + 1))


def test_oversized_frame_rejected():
    big = Envelope(sender=A, recipient=B, body={"data": "x" * (MAX_FRAME + 1)})
    with pytest.raises(FrameTooLarge):
        frame_encode(big)


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
    from sedg.cert import PartyId, Variant, notarize
    from sedg.crypto import TEST_GROUP
    from sedg.ledger import Ledger, address_for
    from sedg.protocol import (
        BuyerConfig,
        BuyerPolicy,
        BuyerSession,
        SellerPolicy,
        SellerSession,
        message_from_obj,
        message_to_obj,
    )

    notary_keys = signing_keys(50)
    notary_id = PartyId(b"n")
    seller_id = PartyId(b"s")
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
    seller_addr, buyer_addr = address_for(b"s"), address_for(b"b")
    chain.fund(buyer_addr, 100)
    seller = SellerSession(
        package, seller_addr, 60, 0, SellerPolicy.HONEST, lambda: random.Random(52)
    )
    buyer = BuyerSession(
        BuyerConfig(
            address=buyer_addr,
            seller=seller_id,
            price=60,
            deadline_offset=100,
            trusted_notaries={b"n": notary_keys.public},
            variant=Variant.V3,
            group=TEST_GROUP,
        ),
        BuyerPolicy.HONEST,
        lambda: random.Random(53),
    )

    net = InProcessNet()
    seller_ep, buyer_ep = net.endpoint(b"s"), net.endpoint(b"b")
    seller_ep.send(b"b", message_to_obj(seller.start()))
    net.deliver(0)
    offer = message_from_obj(buyer_ep.recv().body)
    for reply in buyer.on_offer(offer, chain):
        buyer_ep.send(b"s", message_to_obj(reply))

    net.deliver(0)
    net.deliver(0)
    blind_msg = message_from_obj(seller_ep.recv().body)
    seller.on_blind(blind_msg.r, chain)
    ref_msg = message_from_obj(seller_ep.recv().body)
    seller.on_contract(ref_msg.contract_id, chain)
    event = chain.read_events(0)[-1]

    assert buyer.on_claim(event) == payload
    assert chain.get_balance(seller_addr) == 60
