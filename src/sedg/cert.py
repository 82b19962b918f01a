"""Notary setup phase and certificate verification.

The scenario config bounds the seller's payload. The notary encrypts it
under a fresh key, commits to ciphertext and key, signs the commitments
together with the seller identity, and hands the whole package to the
seller. Buyers later verify such certificates against a static registry of
trusted notary keys, looked up by the notary's id. A party is its id, bytes
that carry no key; a certificate holds both ids it carries to 1 to 64 bytes
(`MAX_ID_LEN`). One enum names every reason a buyer refuses an offer, the
certificate's among them.

A certificate carries nothing that can be derived: its variant and, for the
dlog variant, its group both follow from the commitment `h2`. The seller
forwards it whole inside an offer, encoded by `codec`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Mapping, Union

from . import crypto
from .crypto import Ciphertext, GroupElement, GroupParams, SigningKeyPair

MAX_ID_LEN = 64


class Variant(Enum):
    """The three exchange flavours: hash lock, notary-split lock, dlog lock."""

    V1 = "v1"
    V2 = "v2"
    V3 = "v3"


# ---------------------------------------------------------------------------
# Key commitments (the three h2 constructions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HashOfKey:
    """Digest of the key alone (hash-lock variant)."""

    variant: ClassVar[Variant] = Variant.V1
    digest: bytes


@dataclass(frozen=True)
class HashOfKeyAndNotary:
    """Digest binding key and notary identity, enabling the atomic fee split."""

    variant: ClassVar[Variant] = Variant.V2
    digest: bytes


@dataclass(frozen=True)
class GroupPower:
    """Subgroup element g^k, blindable by the buyer."""

    variant: ClassVar[Variant] = Variant.V3
    element: GroupElement


Commitment2 = Union[HashOfKey, HashOfKeyAndNotary, GroupPower]


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
    seller_id: bytes
    notary_id: bytes
    sigma: bytes

    def __post_init__(self) -> None:
        for name in ("seller_id", "notary_id"):
            if not 1 <= len(getattr(self, name)) <= MAX_ID_LEN:
                raise ValueError(f"{name} must hold 1 to {MAX_ID_LEN} bytes")

    @property
    def variant(self) -> Variant:
        return self.h2.variant

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


def signing_payload(h1: bytes, h2: Commitment2, seller_id: bytes) -> bytes:
    """The exact byte string the notary signs.

    The variant tag, which `h2`'s type names, keeps a certificate issued for
    one flavour from being replayed under another.
    """
    return crypto.canonical_encode(
        [h2.variant.value.encode("ascii"), h1, encode_commitment(h2), seller_id]
    )


# ---------------------------------------------------------------------------
# Setup-phase operations
# ---------------------------------------------------------------------------

def notarize(
    notary_keys: SigningKeyPair,
    notary_id: bytes,
    payload: bytes,
    seller: bytes,
    variant: Variant,
    rng: random.Random,
    *,
    group: GroupParams | None = None,
) -> CertificatePackage:
    """Full setup phase: encrypt the payload under a fresh key, commit, sign.

    The caller bounds the payload (`harness.make_config` does). For the
    dlog variant the payload is encrypted under a key derived from the
    exponent k = `scalar_from_key(key)`, which is all the buyer ever learns.
    """
    h2: Commitment2
    key = rng.randbytes(crypto.KEY_LEN)
    if variant is Variant.V3:
        if group is None:
            raise ValueError("the dlog variant requires group parameters")
        exponent = crypto.scalar_from_key(key, group)
        enc_key = crypto.symmetric_key_for_scalar(exponent)
        h2 = GroupPower(crypto.power_of_g(exponent))
    else:
        enc_key = key
        if variant is Variant.V1:
            h2 = HashOfKey(crypto.sha256(key))
        else:
            h2 = HashOfKeyAndNotary(
                crypto.sha256(crypto.canonical_encode([key, notary_id]))
            )

    nonce = rng.randbytes(crypto.NONCE_LEN)
    ciphertext = crypto.encrypt(enc_key, payload, nonce)
    h1 = ciphertext.digest()
    sigma = crypto.sign(notary_keys, signing_payload(h1, h2, seller))
    certificate = Certificate(
        h1=h1,
        h2=h2,
        seller_id=seller,
        notary_id=notary_id,
        sigma=sigma,
    )
    return CertificatePackage(key=key, ciphertext=ciphertext, certificate=certificate)


# ---------------------------------------------------------------------------
# Buyer-side verification
# ---------------------------------------------------------------------------

class AbortReason(Enum):
    """Why a buyer refuses an offer; `verify_certificate` returns the first four."""

    UNKNOWN_NOTARY = "unknown_notary"
    BAD_SIGNATURE = "bad_signature"
    CIPHERTEXT_MISMATCH = "ciphertext_mismatch"
    SELLER_MISMATCH = "seller_mismatch"
    PRICE_MISMATCH = "price_mismatch"
    VARIANT_MISMATCH = "variant_mismatch"
    GROUP_MISMATCH = "group_mismatch"
    INSUFFICIENT_FUNDS = "insufficient_funds"


def verify_certificate(
    cert: Certificate,
    trusted_notaries: Mapping[bytes, bytes],
    claimed_seller: bytes,
    ciphertext: Ciphertext,
) -> AbortReason | None:
    """Check notary trust, signature, ciphertext binding, and seller identity.

    Never raises; returns None for a valid certificate, else the first
    failure's reason in that order.
    """
    public = trusted_notaries.get(cert.notary_id)
    if public is None:
        return AbortReason.UNKNOWN_NOTARY
    payload = signing_payload(cert.h1, cert.h2, cert.seller_id)
    if not crypto.verify(public, payload, cert.sigma):
        return AbortReason.BAD_SIGNATURE
    if ciphertext.digest() != cert.h1:
        return AbortReason.CIPHERTEXT_MISMATCH
    if cert.seller_id != claimed_seller:
        return AbortReason.SELLER_MISMATCH
    return None
