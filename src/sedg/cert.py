"""Notary setup phase and certificate verification.

The notary validates seller data, encrypts it under a fresh key, commits to
ciphertext and key, signs the commitments together with the seller identity,
and hands the whole package to the seller. Buyers later verify such
certificates against a static registry of trusted notary keys.

A certificate carries nothing that can be derived: its variant and, for the
dlog variant, its group both follow from the commitment `h2`. The seller
forwards it whole inside an offer, encoded by `codec`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Union

from . import crypto
from .crypto import Ciphertext, GroupElement, GroupParams, SigningKeyPair


class Variant(Enum):
    """The three exchange flavours: hash lock, notary-split lock, dlog lock."""

    V1 = "v1"
    V2 = "v2"
    V3 = "v3"


class ValidationRejected(Exception):
    """The notary's data validation predicate refused the payload."""


@dataclass(frozen=True)
class PartyId:
    """Opaque identity handle; the public key is set for parties that sign."""

    id: bytes
    public_key: bytes | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("party id must be nonempty")
        if len(self.id) > 64:
            raise ValueError("party id longer than 64 bytes")


@dataclass(frozen=True)
class SellerData:
    """Raw payload offered for sale, plus the seller identity.

    An empty payload is representable so the validation predicate can reject it.
    """

    payload: bytes
    seller: PartyId


# ---------------------------------------------------------------------------
# Key commitments (the three h2 constructions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HashOfKey:
    """Digest of the key alone (hash-lock variant)."""

    digest: bytes


@dataclass(frozen=True)
class HashOfKeyAndNotary:
    """Digest binding key and notary identity, enabling the atomic fee split."""

    digest: bytes


@dataclass(frozen=True)
class GroupPower:
    """Subgroup element g^k, blindable by the buyer."""

    element: GroupElement


Commitment2 = Union[HashOfKey, HashOfKeyAndNotary, GroupPower]

_COMMITMENT_VARIANT = {
    HashOfKey: Variant.V1,
    HashOfKeyAndNotary: Variant.V2,
    GroupPower: Variant.V3,
}


def commitment_variant(h2: Commitment2) -> Variant:
    return _COMMITMENT_VARIANT[type(h2)]


def encode_commitment(h2: Commitment2) -> bytes:
    """Canonical byte form of a commitment, as included in the signed string."""
    if isinstance(h2, GroupPower):
        return h2.element.encoded()
    return h2.digest


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """The notary's signed commitments over one seller payload."""

    h1: bytes
    h2: Commitment2
    seller_id: PartyId
    notary_id: PartyId
    sigma: bytes

    @property
    def variant(self) -> Variant:
        return commitment_variant(self.h2)

    @property
    def group(self) -> GroupParams | None:
        """The dlog variant's group, which its commitment names; else None."""
        return self.h2.element.params if isinstance(self.h2, GroupPower) else None


@dataclass(frozen=True)
class CertificatePackage:
    """What the notary hands the seller: secret key, ciphertext, certificate."""

    key: bytes
    ciphertext: Ciphertext
    certificate: Certificate


def signing_payload(variant: Variant, h1: bytes, h2: Commitment2, seller_id: PartyId) -> bytes:
    """The exact byte string the notary signs.

    The variant tag keeps a certificate issued for one flavour from being
    replayed under another.
    """
    return crypto.canonical_encode(
        [variant.value.encode("ascii"), h1, encode_commitment(h2), seller_id.id]
    )


# ---------------------------------------------------------------------------
# Setup-phase operations
# ---------------------------------------------------------------------------

DataPredicate = Callable[[SellerData], bool]


def validate_data(data: SellerData, predicate: DataPredicate | None = None) -> bool:
    """Pluggable data validation; the default stub accepts nonempty payloads."""
    if predicate is not None:
        return bool(predicate(data))
    return len(data.payload) > 0


def notarize(
    notary_keys: SigningKeyPair,
    notary_id: PartyId,
    data: SellerData,
    variant: Variant,
    rng: random.Random,
    *,
    group: GroupParams | None = None,
    predicate: DataPredicate | None = None,
) -> CertificatePackage:
    """Full setup phase: validate, encrypt under a fresh key, commit, sign.

    For the dlog variant the key is resampled until its derived exponent is
    nonzero, and the payload is encrypted under a key derived from that
    exponent (the buyer only ever learns the exponent).
    """
    if notary_id.public_key != notary_keys.public:
        raise ValueError("notary_id must carry the notary's verification key")
    if not validate_data(data, predicate):
        raise ValidationRejected("seller data failed validation")

    h2: Commitment2
    if variant is Variant.V3:
        if group is None:
            raise ValueError("the dlog variant requires group parameters")
        while True:
            key = rng.randbytes(crypto.KEY_LEN)
            exponent = crypto.scalar_from_key(key, group)
            if exponent is not None:
                break
        enc_key = crypto.symmetric_key_for_scalar(exponent)
        h2 = GroupPower(crypto.group_exp(group, group.g, exponent))
    else:
        key = rng.randbytes(crypto.KEY_LEN)
        enc_key = key
        if variant is Variant.V1:
            h2 = HashOfKey(crypto.sha256(key))
        else:
            h2 = HashOfKeyAndNotary(
                crypto.sha256(crypto.canonical_encode([key, notary_id.id]))
            )

    nonce = rng.randbytes(crypto.NONCE_LEN)
    ciphertext = crypto.encrypt(enc_key, data.payload, nonce)
    h1 = ciphertext.digest()
    sigma = crypto.sign(notary_keys, signing_payload(variant, h1, h2, data.seller))
    certificate = Certificate(
        h1=h1,
        h2=h2,
        seller_id=data.seller,
        notary_id=notary_id,
        sigma=sigma,
    )
    return CertificatePackage(key=key, ciphertext=ciphertext, certificate=certificate)


# ---------------------------------------------------------------------------
# Buyer-side verification
# ---------------------------------------------------------------------------

class RejectReason(Enum):
    UNKNOWN_NOTARY = "unknown_notary"
    BAD_SIGNATURE = "bad_signature"
    CIPHERTEXT_MISMATCH = "ciphertext_mismatch"
    SELLER_MISMATCH = "seller_mismatch"


def verify_certificate(
    cert: Certificate,
    trusted_notaries: Mapping[bytes, bytes],
    claimed_seller: PartyId,
    ciphertext: Ciphertext,
) -> RejectReason | None:
    """Check notary trust, signature, ciphertext binding, and seller identity.

    Never raises; returns None for a valid certificate, else the first
    failure's reason in that order.
    """
    public = trusted_notaries.get(cert.notary_id.id)
    if public is None:
        return RejectReason.UNKNOWN_NOTARY
    payload = signing_payload(cert.variant, cert.h1, cert.h2, cert.seller_id)
    if not crypto.verify(public, payload, cert.sigma):
        return RejectReason.BAD_SIGNATURE
    if ciphertext.digest() != cert.h1:
        return RejectReason.CIPHERTEXT_MISMATCH
    if cert.seller_id.id != claimed_seller.id:
        return RejectReason.SELLER_MISMATCH
    return None
