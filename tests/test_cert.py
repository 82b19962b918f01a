from __future__ import annotations

import dataclasses
import json
import random

import pytest

from helpers import ScriptedRng, signing_keys
from sedg import codec, crypto
from sedg.cert import (
    AbortReason,
    Certificate,
    GroupPower,
    HashOfKey,
    HashOfKeyAndNotary,
    PartyId,
    Variant,
    notarize,
    verify_certificate,
)
from sedg.crypto import TEST_GROUP, Ciphertext
from sedg.ledger import (
    DlogLock,
    Exponent,
    HashLock,
    NotaryHashLock,
    Preimage,
    PreimageWithNotary,
    evaluate_condition,
)


@pytest.fixture
def notary():
    keys = signing_keys(100)
    return keys, PartyId(b"notary-1")


@pytest.fixture
def seller():
    return PartyId(b"seller-1")


def _notarize(notary, seller, variant, rng=None, payload=b"hello", group=None):
    keys, notary_id = notary
    if variant is Variant.V3 and group is None:
        group = TEST_GROUP
    return notarize(
        keys, notary_id, payload, seller, variant, rng or random.Random(0), group=group
    )


def test_notarize_v1_postconditions(notary, seller):
    package = _notarize(notary, seller, Variant.V1)
    cert = package.certificate
    assert crypto.sha256(package.ciphertext.encoded()) == cert.h1
    assert isinstance(cert.h2, HashOfKey)
    assert cert.h2.digest == crypto.sha256(package.key)
    assert crypto.decrypt(package.key, package.ciphertext) == b"hello"


def test_notarize_v2_commitment_binds_notary_identity(notary, seller):
    # Same key stream for both variants, so the commitments differ only in
    # construction: hashing the key alone vs. key-plus-notary-id.
    v1 = _notarize(notary, seller, Variant.V1, rng=random.Random(7))
    v2 = _notarize(notary, seller, Variant.V2, rng=random.Random(7))
    assert v1.key == v2.key
    expected = crypto.sha256(crypto.canonical_encode([v2.key, b"notary-1"]))
    assert v2.certificate.h2.digest == expected
    assert v2.certificate.h2.digest != v1.certificate.h2.digest


def test_v2_commitments_separate_across_notaries(seller):
    # Fixed key, ten notary identities: every commitment must differ.
    key = random.Random(8).randbytes(32)
    nonce = random.Random(8).randbytes(12)
    digests = set()
    for i in range(10):
        keys = signing_keys(200 + i)
        notary_id = PartyId(b"notary-%d" % i)
        package = notarize(
            keys,
            notary_id,
            b"hello",
            seller,
            Variant.V2,
            ScriptedRng([key, nonce]),
        )
        digests.add(package.certificate.h2.digest)
    assert len(digests) == 10


def test_notarize_v3_forced_scalar(notary, seller):
    # Forcing k = 3 via the rng: h2 must be g^3 = 8 in the test group.
    forced = ScriptedRng([(3).to_bytes(32, "big"), bytes(12)])
    package = _notarize(notary, seller, Variant.V3, rng=forced)
    cert = package.certificate
    assert isinstance(cert.h2, GroupPower)
    assert cert.h2.element.value == 8
    assert cert.group == TEST_GROUP
    assert TEST_GROUP.contains(cert.h2.element.value)
    assert crypto.sha256(package.ciphertext.encoded()) == cert.h1
    exponent = crypto.scalar_from_key(package.key, TEST_GROUP)
    assert evaluate_condition(DlogLock(cert.h2.element), Exponent(exponent))


def test_notarize_v3_resamples_zero_scalar(notary, seller):
    # First key reduces to 0 mod 11 and must be discarded.
    zero_key = (22).to_bytes(32, "big")
    good_key = (3).to_bytes(32, "big")
    forced = ScriptedRng([zero_key, good_key, bytes(12)])
    package = _notarize(notary, seller, Variant.V3, rng=forced)
    assert package.key == good_key


def test_notarize_v3_encrypts_under_derived_key(notary, seller):
    package = _notarize(notary, seller, Variant.V3, rng=random.Random(9))
    exponent = crypto.scalar_from_key(package.key, TEST_GROUP)
    derived = crypto.symmetric_key_for_scalar(exponent)
    assert crypto.decrypt(derived, package.ciphertext) == b"hello"
    with pytest.raises(crypto.AuthenticationFailure):
        crypto.decrypt(package.key, package.ciphertext)


def test_commitment_opens(notary, seller):
    v1 = _notarize(notary, seller, Variant.V1)
    v2 = _notarize(notary, seller, Variant.V2)
    v3 = _notarize(notary, seller, Variant.V3)
    # Each key opens its commitment by the ledger's claim predicate, applied
    # to the lock a buyer would publish without blinding.
    v1_lock = HashLock(v1.certificate.h2.digest)
    assert evaluate_condition(v1_lock, Preimage(v1.key))
    assert not evaluate_condition(v1_lock, Preimage(bytes(32)))
    v2_lock = NotaryHashLock(v2.certificate.h2.digest, fee=0)
    assert evaluate_condition(v2_lock, PreimageWithNotary(v2.key, b"notary-1"))
    assert not evaluate_condition(v2_lock, PreimageWithNotary(v2.key, b"notary-2"))
    v3_lock = DlogLock(v3.certificate.h2.element)
    assert evaluate_condition(v3_lock, Exponent(crypto.scalar_from_key(v3.key, TEST_GROUP)))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def _registry(notary):
    keys, notary_id = notary
    return {notary_id.id: keys.public}


@pytest.mark.parametrize("variant", list(Variant))
def test_verify_round_trip_random_payloads(notary, seller, variant):
    rng = random.Random(300)
    registry = _registry(notary)
    for _ in range(100):
        payload = rng.randbytes(rng.randrange(1, 200))
        package = _notarize(notary, seller, variant, rng=rng, payload=payload)
        assert (
            verify_certificate(package.certificate, registry, seller, package.ciphertext)
            is None
        )


def test_verify_flipped_ciphertext_bit(notary, seller):
    package = _notarize(notary, seller, Variant.V1)
    body = bytearray(package.ciphertext.body)
    body[0] ^= 0x01
    mutated = Ciphertext(nonce=package.ciphertext.nonce, body=bytes(body))
    verdict = verify_certificate(package.certificate, _registry(notary), seller, mutated)
    assert verdict is AbortReason.CIPHERTEXT_MISMATCH


def test_verify_unknown_notary(notary, seller):
    # Same certificate re-signed by a key absent from the registry.
    rogue = signing_keys(400)
    rogue_id = PartyId(b"rogue")
    package = notarize(rogue, rogue_id, b"hello", seller, Variant.V1, random.Random(0))
    verdict = verify_certificate(
        package.certificate, _registry(notary), seller, package.ciphertext
    )
    assert verdict is AbortReason.UNKNOWN_NOTARY


def test_verify_seller_mismatch(notary, seller):
    package = _notarize(notary, seller, Variant.V1)
    verdict = verify_certificate(
        package.certificate, _registry(notary), PartyId(b"someone-else"), package.ciphertext
    )
    assert verdict is AbortReason.SELLER_MISMATCH


@pytest.mark.parametrize("variant", list(Variant))
def test_binding_each_field_mutation_fails(notary, seller, variant):
    registry = _registry(notary)
    package = _notarize(notary, seller, variant)
    cert = package.certificate

    # ciphertext
    body = bytearray(package.ciphertext.body)
    body[-1] ^= 0x10
    assert (
        verify_certificate(
            cert, registry, seller, Ciphertext(package.ciphertext.nonce, bytes(body))
        )
        is AbortReason.CIPHERTEXT_MISMATCH
    )
    # h1
    h1 = bytearray(cert.h1)
    h1[0] ^= 0x01
    assert (
        verify_certificate(
            dataclasses.replace(cert, h1=bytes(h1)), registry, seller, package.ciphertext
        )
        is AbortReason.BAD_SIGNATURE
    )
    # h2
    if variant is Variant.V3:
        wrong = crypto.power_of_g(crypto.Scalar(9, TEST_GROUP))
        if wrong == cert.h2.element:
            wrong = crypto.power_of_g(crypto.Scalar(10, TEST_GROUP))
        mutated_h2 = GroupPower(wrong)
    else:
        digest = bytearray(cert.h2.digest)
        digest[0] ^= 0x01
        mutated_h2 = type(cert.h2)(bytes(digest))
    assert (
        verify_certificate(
            dataclasses.replace(cert, h2=mutated_h2), registry, seller, package.ciphertext
        )
        is AbortReason.BAD_SIGNATURE
    )
    # seller id
    assert (
        verify_certificate(
            dataclasses.replace(cert, seller_id=PartyId(b"mallory")),
            registry,
            seller,
            package.ciphertext,
        )
        is AbortReason.BAD_SIGNATURE
    )


def test_variant_tag_prevents_cross_protocol_replay(notary, seller):
    # A v1 certificate re-labelled as v2 must fail signature verification.
    package = _notarize(notary, seller, Variant.V1, rng=random.Random(17))
    cert = package.certificate
    relabelled = dataclasses.replace(cert, h2=HashOfKeyAndNotary(cert.h2.digest))
    verdict = verify_certificate(relabelled, _registry(notary), seller, package.ciphertext)
    assert verdict is AbortReason.BAD_SIGNATURE


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", list(Variant))
def test_certificate_json_round_trip(notary, seller, variant):
    package = _notarize(notary, seller, variant)
    cert = package.certificate
    text = codec.dumps(codec.encoder(Certificate)(cert))
    recovered = codec.decoder(Certificate)(json.loads(text))
    assert recovered == cert
    assert recovered.h1 == cert.h1
    assert recovered.h2 == cert.h2
    assert recovered.sigma == cert.sigma
    assert recovered.seller_id.id == cert.seller_id.id
    assert recovered.notary_id.id == cert.notary_id.id
    assert recovered.group == cert.group
    # round-tripped certificates still verify
    assert verify_certificate(recovered, _registry(notary), seller, package.ciphertext) is None


def test_party_id_invariants():
    with pytest.raises(ValueError):
        PartyId(b"")
    with pytest.raises(ValueError):
        PartyId(b"x" * 65)
