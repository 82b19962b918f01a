"""Shared cryptographic primitives for the exchange protocols.

Hashing, authenticated symmetric encryption, signatures, prime-order
subgroup arithmetic, and the canonical byte encoding used everywhere a
multi-part value is hashed or signed. Everything here is pure: values are
immutable and callers thread their own randomness.
"""
from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

KEY_LEN = 32
NONCE_LEN = 12
TAG_LEN = 16
SEED_LEN = 32

_KDF_LABEL = b"sedg3-kdf"


class AuthenticationFailure(Exception):
    """Decryption rejected: wrong key, wrong nonce, or tampered ciphertext."""


class DomainError(ValueError):
    """A group operand is outside the prime-order subgroup.

    A `ValueError`, so a decoder that rejects bad input with `ValueError`
    keeps that contract when the bad input is an element.
    """


# ---------------------------------------------------------------------------
# Hashing and canonical encoding
# ---------------------------------------------------------------------------

def sha256(data: bytes) -> bytes:
    """32-byte SHA-256 digest."""
    return hashlib.sha256(data).digest()


def canonical_encode(parts: Sequence[bytes]) -> bytes:
    """Length-prefixed concatenation: a 4-byte big-endian size before each part.

    Injective over lists of byte strings, unlike raw concatenation, so the
    same encoding is safe to hash and to sign.
    """
    out = bytearray()
    for part in parts:
        if len(part) >= 1 << 32:
            raise ValueError("part too long for a 4-byte length prefix")
        out += struct.pack(">I", len(part))
        out += part
    return bytes(out)


# ---------------------------------------------------------------------------
# Authenticated encryption
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ciphertext:
    """AEAD output: 12-byte nonce plus body (payload and a 16-byte tag).

    The nonce travels with the body so a single hash over ``encoded()``
    commits to everything a holder of the key needs to decrypt.
    """

    nonce: bytes
    body: bytes

    def __post_init__(self) -> None:
        if len(self.nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes")
        if len(self.body) < TAG_LEN:
            raise ValueError("ciphertext body shorter than the authentication tag")

    def encoded(self) -> bytes:
        return self.nonce + self.body

    def digest(self) -> bytes:
        """`sha256(self.encoded())`, hashed in place: the nonce, then the body."""
        h = hashlib.sha256(self.nonce)
        h.update(self.body)
        return h.digest()


def encrypt(key: bytes, plaintext: bytes, nonce: bytes) -> Ciphertext:
    """Authenticated encryption (ChaCha20-Poly1305) under a 32-byte key."""
    _check_key(key)
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    body = ChaCha20Poly1305(key).encrypt(nonce, plaintext, None)
    return Ciphertext(nonce=nonce, body=body)


def decrypt(key: bytes, ciphertext: Ciphertext) -> bytes:
    """Recover the plaintext; raises AuthenticationFailure on any mismatch."""
    _check_key(key)
    try:
        return ChaCha20Poly1305(key).decrypt(ciphertext.nonce, ciphertext.body, None)
    except InvalidTag as exc:
        raise AuthenticationFailure("ciphertext rejected") from exc


def _check_key(key: bytes) -> None:
    if len(key) != KEY_LEN:
        raise ValueError(f"key must be {KEY_LEN} bytes")


# ---------------------------------------------------------------------------
# Signatures (Ed25519)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigningKeyPair:
    """Ed25519 key pair: the key loaded from a 32-byte secret seed, and its
    32-byte verification key.

    Signing derives nothing from the seed, and the pair keeps no copy of it,
    so its repr shows only the public key.
    """

    public: bytes
    private: Ed25519PrivateKey = field(repr=False, compare=False)

    @classmethod
    def from_seed(cls, seed: bytes) -> "SigningKeyPair":
        if len(seed) != SEED_LEN:
            raise ValueError(f"seed must be {SEED_LEN} bytes")
        private = Ed25519PrivateKey.from_private_bytes(seed)
        return cls(public=private.public_key().public_bytes_raw(), private=private)


def sign(keys: SigningKeyPair, message: bytes) -> bytes:
    """Deterministic 64-byte signature over the exact message bytes."""
    return keys.private.sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature was produced by the paired seed over this message.

    Malformed keys or signatures simply verify false.
    """
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except Exception:
        return False
    return True


# ---------------------------------------------------------------------------
# Prime-order subgroup arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupParams:
    """The order-q subgroup of Z_p* for a safe prime p = 2q+1, generated by g.

    That subgroup is exactly the quadratic residues mod p, so membership is a
    Legendre-symbol test and needs no exponentiation. p and q are taken to be
    prime, as they are in every registered group (the tests check them);
    only p = 2q+1 and the generator are checked here. Powers of g come from
    OpenSSL for a modulus size it accepts (512 to 10000 bits), else from
    builtin `pow`.
    """

    p: int
    q: int
    g: int

    def __post_init__(self) -> None:
        if self.q <= 1:
            raise ValueError("subgroup order must exceed trivial sizes")
        if self.p != 2 * self.q + 1:
            raise ValueError("p must be the safe prime 2q+1")
        if self.g == 1 or not self.contains(self.g):
            raise ValueError("generator is not a quadratic residue other than 1")

    def element_len(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def scalar_len(self) -> int:
        return (self.q.bit_length() + 7) // 8

    def contains(self, value: int) -> bool:
        """Membership in the order-q subgroup: the Legendre symbol (value/p) is 1."""
        return 1 <= value < self.p and _jacobi(value, self.p) == 1

    @cached_property
    def _dh_key_head(self) -> bytes | None:
        """A PKCS#8 X9.42 DH private key in this group, in DER, up to its private value.

        None for a modulus size OpenSSL refuses. Built from the group alone.
        """
        if self.p.bit_length() not in _OPENSSL_DH_BITS:
            return None
        params = _der_int(self.p) + _der_int(self.g) + _der_int(self.q)
        return _der_int(0) + _der(0x30, _DHX_OID + _der(0x30, params))

    def _generator_power(self, exponent: int) -> int:
        """g^exponent mod p, which OpenSSL derives when it loads a DH private key.

        Loading skips the parameter check (about 400 ms) that building a key
        from numbers runs, and checks no range, so the exponent is reduced here.
        """
        exponent %= self.q
        head = self._dh_key_head
        if head is None or not exponent:
            return pow(self.g, exponent, self.p)
        # Imported on first use: the import takes about 29 ms that a run on a
        # small group would pay for nothing.
        from cryptography.hazmat.primitives.serialization import load_der_private_key

        key = load_der_private_key(_der(0x30, head + _der(0x04, _der_int(exponent))), None)
        return key.public_key().public_numbers().y


# The modulus sizes in bits OpenSSL's Diffie-Hellman accepts
# (DH_MIN_MODULUS_BITS to OPENSSL_DH_MAX_MODULUS_BITS).
_OPENSSL_DH_BITS = range(512, 10001)
_DHX_OID = bytes.fromhex("06072a8648ce3e0201")  # dhpublicnumber, 1.2.840.10046.2.1


def _der(tag: int, body: bytes) -> bytes:
    """One DER value: the tag, the length in short or long form, the body."""
    size = len(body)
    if size < 0x80:
        return bytes((tag, size)) + body
    length = size.to_bytes((size.bit_length() + 7) // 8, "big")
    return bytes((tag, 0x80 | len(length))) + length + body


def _der_int(value: int) -> bytes:
    """A DER INTEGER for value >= 0; the byte count leaves the sign bit clear."""
    return _der(0x02, value.to_bytes(value.bit_length() // 8 + 1, "big"))


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by reciprocity: no exponentiation.

    For a prime n it is the Legendre symbol, 1 exactly for the nonzero
    quadratic residues mod n.
    """
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):  # (2/n) = -1 for n = 3, 5 mod 8
            sign = -sign
        if a & n & 2:  # a = n = 3 mod 4: swapping them flips the sign
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


@dataclass(frozen=True)
class GroupElement:
    """A validated member of the order-q subgroup."""

    value: int
    params: GroupParams

    def __post_init__(self) -> None:
        if not self.params.contains(self.value):
            raise DomainError(f"{self.value} is not in the order-{self.params.q} subgroup")

    def encoded(self) -> bytes:
        return self.value.to_bytes(self.params.element_len(), "big")


def _in_group(value: int, params: GroupParams) -> GroupElement:
    """Build an element without the membership check.

    Only for values known to lie in the subgroup, such as powers of a member.
    """
    element = object.__new__(GroupElement)
    object.__setattr__(element, "value", value)
    object.__setattr__(element, "params", params)
    return element


@dataclass(frozen=True)
class Scalar:
    """An exponent in [1, q-1]."""

    value: int
    params: GroupParams

    def __post_init__(self) -> None:
        if not 0 < self.value < self.params.q:
            raise ValueError("scalar out of range [1, q-1]")

    def encoded(self) -> bytes:
        return self.value.to_bytes(self.params.scalar_len(), "big")


def group_exp(
    params: GroupParams,
    base: Union[GroupElement, int],
    exponent: Union[Scalar, int],
) -> GroupElement:
    """Modular exponentiation inside the subgroup.

    The base may be a validated element or a raw integer; raw integers other
    than the generator, which the group checked when it was built, are
    membership-checked first. A power of a member stays in the subgroup, so
    the result is not checked again. Powers of the generator come from
    OpenSSL where the group allows (see `GroupParams`), every other base from
    builtin `pow`. Integer exponents are accepted so tests can exercise the
    identity exponent q.
    """
    if isinstance(base, GroupElement):
        if base.params != params:
            raise DomainError("base belongs to a different group")
        base_value = base.value
    else:
        base_value = int(base)
        if base_value != params.g and not params.contains(base_value):
            raise DomainError(f"base {base_value} is not in the subgroup")
    exp_value = exponent.value if isinstance(exponent, Scalar) else int(exponent)
    if exp_value < 1:
        raise ValueError("exponent must be positive")
    if base_value == params.g:
        return _in_group(params._generator_power(exp_value), params)
    return _in_group(pow(base_value, exp_value, params.p), params)


def scalar_mul(a: Scalar, b: Scalar) -> Scalar:
    _same_group(a, b)
    return Scalar(value=(a.value * b.value) % a.params.q, params=a.params)


def scalar_inv(a: Scalar) -> Scalar:
    return Scalar(value=pow(a.value, -1, a.params.q), params=a.params)


def _same_group(a: Scalar, b: Scalar) -> None:
    if a.params != b.params:
        raise ValueError("scalars belong to different groups")


def scalar_from_key(key: bytes, params: GroupParams) -> Scalar | None:
    """The key's 32 bytes as a big-endian integer reduced mod q.

    Returns None when the reduction lands on zero; the caller resamples.
    """
    _check_key(key)
    value = int.from_bytes(key, "big") % params.q
    if value == 0:
        return None
    return Scalar(value=value, params=params)


def symmetric_key_for_scalar(exponent: Scalar) -> bytes:
    """Symmetric encryption key bound to a discrete-log exponent.

    One secret serves both as exponent and encryption key; this KDF keeps
    the two roles separated.
    """
    return sha256(canonical_encode([_KDF_LABEL, exponent.encoded()]))


def scalar_draw_len(params: GroupParams) -> int:
    # 16 extra bytes keep the modular bias of draw_scalar negligible.
    return params.scalar_len() + 16


def draw_scalar(rng: random.Random, params: GroupParams) -> Scalar:
    """Near-uniform scalar in [1, q-1] from the supplied randomness source."""
    raw = int.from_bytes(rng.randbytes(scalar_draw_len(params)), "big")
    return Scalar(value=raw % (params.q - 1) + 1, params=params)


# Tiny group for exhaustive tests: every exponent pair can be enumerated.
TEST_GROUP = GroupParams(p=23, q=11, g=2)

# 2048-bit MODP group (RFC 3526 group 14). p is a safe prime, so squaring
# the standard generator 2 yields a generator of the prime-order subgroup
# of order q = (p-1)/2, the quadratic residues.
_MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
MODP_2048 = GroupParams(p=_MODP_2048_P, q=(_MODP_2048_P - 1) // 2, g=4)

GROUPS: dict[str, GroupParams] = {
    "test": TEST_GROUP,
    "modp2048": MODP_2048,
}


def group_name(params: GroupParams) -> str:
    """The name a group travels under on the wire and in the event log."""
    for name, known in GROUPS.items():
        if known == params:
            return name
    raise ValueError("only groups named in GROUPS can be encoded")


def group_by_name(name: object) -> GroupParams:
    """Look up a group received from a peer; never builds one from peer data."""
    if not isinstance(name, str):
        raise ValueError(f"expected a group name, got {type(name).__name__}")
    if name not in GROUPS:
        raise ValueError(f"unknown group {name!r}; known: {sorted(GROUPS)}")
    return GROUPS[name]
