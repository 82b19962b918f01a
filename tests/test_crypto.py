from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ScriptedRng, brute_force_inverse, signed, signing_keys, slow_pow
from sedg import crypto
from sedg.crypto import (
    GROUPS,
    MODP_2048,
    TEST_GROUP,
    AuthenticationFailure,
    Ciphertext,
    DomainError,
    GroupElement,
    GroupParams,
    Scalar,
    SigningKeyPair,
    canonical_encode,
    decrypt,
    draw_scalar,
    element_mul,
    element_pow,
    encrypt,
    power_of_g,
    scalar_draw_len,
    scalar_from_int,
    scalar_from_key,
    scalar_inv,
    scalar_mul,
    sha256,
    sign,
    symmetric_key_for_scalar,
    verify,
)

# Published SHA-256 vectors, confirmed against hashlib independently of this
# package before being frozen here.
EMPTY_DIGEST = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)
ZERO_BYTE_DIGEST = bytes.fromhex(
    "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"
)
ONE_BYTE_DIGEST = bytes.fromhex(
    "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"
)

# FIPS 180-2 appendix B: one block, two blocks, and one million "a".
MULTI_BLOCK_VECTORS = [
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
    (b"a" * 1_000_000, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
]


def test_sha256_empty_input_matches_published_vector():
    assert sha256(b"") == EMPTY_DIGEST
    assert len(sha256(b"")) == 32


def test_sha256_deterministic():
    message = b"same input, same digest"
    assert sha256(message) == sha256(message)


def test_sha256_distinguishes_single_byte_inputs():
    assert sha256(b"\x00") == ZERO_BYTE_DIGEST
    assert sha256(b"\x01") == ONE_BYTE_DIGEST
    assert ZERO_BYTE_DIGEST != ONE_BYTE_DIGEST


@pytest.mark.parametrize("message, digest", MULTI_BLOCK_VECTORS, ids=["abc", "448-bit", "million-a"])
def test_sha256_multi_block_inputs_match_published_vectors(message, digest):
    assert sha256(message) == bytes.fromhex(digest)


# ---------------------------------------------------------------------------
# AEAD
# ---------------------------------------------------------------------------

def _kmn(seed=0):
    rng = random.Random(seed)
    return rng.randbytes(32), rng.randbytes(40), rng.randbytes(12)


def test_encrypt_decrypt_round_trip():
    key, message, nonce = _kmn()
    ciphertext = encrypt(key, message, nonce)
    assert ciphertext.body != message
    assert len(ciphertext.body) == len(message) + 16
    assert decrypt(key, ciphertext) == message


def test_encrypt_empty_plaintext_is_tag_only():
    key, _, nonce = _kmn(1)
    ciphertext = encrypt(key, b"", nonce)
    assert len(ciphertext.body) == 16
    assert decrypt(key, ciphertext) == b""


def test_decrypt_with_flipped_key_bit_fails():
    key, message, nonce = _kmn(2)
    ciphertext = encrypt(key, message, nonce)
    wrong = bytes([key[0] ^ 0x01]) + key[1:]
    with pytest.raises(AuthenticationFailure):
        decrypt(wrong, ciphertext)


def test_decrypt_with_flipped_body_bit_fails():
    key, message, nonce = _kmn(3)
    ciphertext = encrypt(key, message, nonce)
    body = bytearray(ciphertext.body)
    body[5] ^= 0x40
    with pytest.raises(AuthenticationFailure):
        decrypt(key, Ciphertext(nonce=ciphertext.nonce, body=bytes(body)))


def test_decrypt_with_flipped_nonce_bit_fails():
    key, message, nonce = _kmn(4)
    ciphertext = encrypt(key, message, nonce)
    mutated = bytes([nonce[0] ^ 0x80]) + nonce[1:]
    with pytest.raises(AuthenticationFailure):
        decrypt(key, Ciphertext(nonce=mutated, body=ciphertext.body))


def test_round_trip_one_mebibyte():
    key, _, nonce = _kmn(5)
    message = random.Random(5).randbytes(1 << 20)
    assert decrypt(key, encrypt(key, message, nonce)) == message


def test_keystream_is_chacha20_from_block_zero():
    # RFC 8439, appendix A.1, test vector 1: zero key, zero nonce, block 0.
    assert crypto.keystream(bytes(32), 64).hex() == (
        "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
        "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
    )
    key = random.Random(9).randbytes(32)
    # One call over a whole zero buffer is the reference for the blockwise one.
    size = 3 * (1 << 16) + 5
    reference = Cipher(algorithms.ChaCha20(key, bytes(16)), mode=None).encryptor()
    assert crypto.keystream(key, size) == reference.update(bytes(size))
    assert crypto.keystream(key, size)[:77] == crypto.keystream(key, 77)
    assert crypto.keystream(key, 0) == b""
    with pytest.raises(ValueError):
        crypto.keystream(bytes(31), 8)


def test_tamper_rejection_sampled_bit_positions():
    key, _, nonce = _kmn(6)
    message = random.Random(6).randbytes(256)
    ciphertext = encrypt(key, message, nonce)
    rng = random.Random(7)
    encoded = ciphertext.nonce + ciphertext.body
    for _ in range(120):
        bit = rng.randrange(len(encoded) * 8)
        mutated = bytearray(encoded)
        mutated[bit // 8] ^= 1 << (bit % 8)
        tampered = Ciphertext(nonce=bytes(mutated[:12]), body=bytes(mutated[12:]))
        with pytest.raises(AuthenticationFailure):
            decrypt(key, tampered)


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=12, max_size=12), st.binary(min_size=16, max_size=2048))
def test_ciphertext_digest_is_the_hash_of_its_encoding(nonce, body):
    ciphertext = Ciphertext(nonce=nonce, body=body)
    assert ciphertext.digest() == crypto.sha256(ciphertext.nonce + ciphertext.body)


def test_ciphertext_digest_streams_a_bulk_body():
    body = random.Random(9).randbytes((1 << 16) + 1000)
    ciphertext = Ciphertext(nonce=bytes(range(12)), body=body)
    assert ciphertext.digest() == crypto.sha256(ciphertext.nonce + ciphertext.body)


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=2048))
def test_round_trip_property(message):
    key, _, nonce = _kmn(8)
    assert decrypt(key, encrypt(key, message, nonce)) == message


def test_ciphertext_shape_validation():
    with pytest.raises(ValueError):
        Ciphertext(nonce=bytes(11), body=bytes(16))
    with pytest.raises(ValueError):
        Ciphertext(nonce=bytes(12), body=bytes(15))
    key, message, _ = _kmn(9)
    with pytest.raises(ValueError, match="nonce must be 12 bytes"):
        encrypt(key, message, bytes(11))


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

def test_sign_verify_round_trip():
    pair = signing_keys(10)
    message = b"statement to certify"
    signature = sign(pair, message)
    assert len(signature) == 64
    assert verify(pair.public, message, signature)
    # deterministic
    assert sign(pair, message) == signature


def test_key_pair_repr_hides_the_seed():
    seed = bytes(range(32))
    pair = SigningKeyPair.from_seed(seed)
    assert repr(seed)[2:-1] not in repr(pair)  # the seed's bytes, as a repr prints them
    assert repr(pair) == f"SigningKeyPair(public={pair.public!r})"


def test_key_pair_seed_must_be_32_bytes():
    with pytest.raises(ValueError, match="seed must be 32 bytes"):
        SigningKeyPair.from_seed(bytes(31))


def test_verify_rejects_other_message_and_key():
    pair = signing_keys(11)
    other = signing_keys(12)
    signature = sign(pair, b"m")
    assert not verify(pair.public, b"m'", signature)
    assert not verify(other.public, b"m", signature)


def test_verify_rejects_sampled_single_bit_mutations():
    pair = signing_keys(13)
    message = random.Random(13).randbytes(64)
    signature = sign(pair, message)
    rng = random.Random(14)
    for _ in range(60):
        bit = rng.randrange(len(message) * 8)
        mutated = bytearray(message)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert not verify(pair.public, bytes(mutated), signature)
    for _ in range(60):
        bit = rng.randrange(len(signature) * 8)
        mutated = bytearray(signature)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert not verify(pair.public, message, bytes(mutated))


def test_verify_tolerates_malformed_inputs():
    assert not verify(b"short", b"m", bytes(64))
    assert not verify(bytes(32), b"m", b"not a signature")


# ---------------------------------------------------------------------------
# Group arithmetic
# ---------------------------------------------------------------------------

def test_group_exp_generator_cases():
    # 2^3 mod 23 = 8, confirmed by direct modular exponentiation.
    three = Scalar(3, TEST_GROUP)
    assert power_of_g(three) == GroupElement(8, TEST_GROUP)
    assert power_of_g(three).value == slow_pow(2, 3, 23)
    # the exponent q is outside [1, q-1], so only the raw power takes it: g^q = 1
    assert TEST_GROUP._generator_power(TEST_GROUP.q) == 1
    # 8^4 mod 23 = 2 = g^(12 mod 11)
    base = GroupElement(8, TEST_GROUP)
    assert element_pow(base, Scalar(4, TEST_GROUP)).value == slow_pow(8, 4, 23) == 2


def test_group_exp_rejects_non_subgroup_base():
    # An element is a signed residue in [1, 11]. 12 = -11 mod 23 is the
    # negation of the member 11, and the residue 18 is written 5, so no base
    # of either value can be built to raise to a power.
    for value in (12, 18):
        with pytest.raises(DomainError):
            GroupElement(value, TEST_GROUP)


def test_element_pow_rejects_operands_of_different_groups():
    base = power_of_g(Scalar(3, TEST_GROUP))
    with pytest.raises(DomainError):
        element_pow(base, Scalar(3, MODP_2048))
    with pytest.raises(DomainError):
        element_pow(GroupElement(MODP_2048.g, MODP_2048), Scalar(3, TEST_GROUP))


def test_element_mul_multiplies_members_of_one_group():
    members = [power_of_g(Scalar(e, TEST_GROUP)) for e in range(1, TEST_GROUP.q)]
    for a in members:
        for b in members:
            product = element_mul(a, b)
            assert product == GroupElement(signed(a.value * b.value, TEST_GROUP.p), TEST_GROUP)
    assert TEST_GROUP.generator == GroupElement(TEST_GROUP.g, TEST_GROUP)
    assert MODP_2048.generator == GroupElement(MODP_2048.g, MODP_2048)
    with pytest.raises(DomainError):
        element_mul(members[0], MODP_2048.generator)
    with pytest.raises(DomainError):
        element_mul(MODP_2048.generator, members[0])


def test_group_element_membership_enforced():
    for value in (0, 12, 22, 23):
        with pytest.raises(DomainError):
            GroupElement(value, TEST_GROUP)


def test_group_closure_property():
    rng = random.Random(20)
    for _ in range(50):
        exponent = Scalar(rng.randrange(1, TEST_GROUP.q), TEST_GROUP)
        out = power_of_g(exponent)
        assert TEST_GROUP.contains(out.value)
        # The q-th power of a signed residue is +-1: the identity, 1, once signed.
        assert signed(pow(out.value, TEST_GROUP.q, TEST_GROUP.p), TEST_GROUP.p) == 1


def test_scalar_mul_and_inverse_examples():
    a = Scalar(3, TEST_GROUP)
    b = Scalar(4, TEST_GROUP)
    assert scalar_mul(a, b).value == 1  # 12 mod 11
    assert scalar_mul(a, Scalar(1, TEST_GROUP)) == a
    assert scalar_inv(b).value == brute_force_inverse(4, 11) == 3


def test_scalar_mul_rejects_scalars_of_different_groups():
    # One rule refuses mixed operands; scalar_mul used to raise a bare ValueError.
    small, large = Scalar(3, TEST_GROUP), Scalar(3, MODP_2048)
    for a, b in ((small, large), (large, small)):
        with pytest.raises(DomainError, match="^operands belong to different groups$"):
            scalar_mul(a, b)


def test_scalar_inverse_property():
    rng = random.Random(21)
    for _ in range(30):
        a = Scalar(rng.randrange(1, TEST_GROUP.q), TEST_GROUP)
        assert scalar_mul(a, scalar_inv(a)).value == 1


def test_scalar_range_enforced():
    with pytest.raises(ValueError):
        Scalar(0, TEST_GROUP)
    with pytest.raises(ValueError):
        Scalar(11, TEST_GROUP)


def test_exponent_homomorphism_exhaustive():
    # g^(k*r mod q) == (g^k)^r for every pair in the tiny group, checked both
    # through the package ops and an independent slow oracle.
    g, p, q = TEST_GROUP.g, TEST_GROUP.p, TEST_GROUP.q
    for k in range(1, q):
        for r in range(1, q):
            product = scalar_mul(Scalar(k, TEST_GROUP), Scalar(r, TEST_GROUP))
            lhs = power_of_g(product)
            rhs = element_pow(power_of_g(Scalar(k, TEST_GROUP)), Scalar(r, TEST_GROUP))
            assert lhs == rhs
            assert lhs.value == signed(slow_pow(g, (k * r) % q, p), p)


def _probable_prime(n: int) -> bool:
    """Miller-Rabin with the first eight prime bases."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modp2048_group_invariants():
    assert MODP_2048.p.bit_length() == 2048
    # GroupParams checks p = 2q+1 but takes primality on trust; check it here.
    assert MODP_2048.p == 2 * MODP_2048.q + 1
    assert _probable_prime(MODP_2048.p) and _probable_prime(MODP_2048.q)
    assert not _probable_prime(MODP_2048.p + 2)
    assert (MODP_2048.p - 1) % MODP_2048.q == 0
    assert pow(MODP_2048.g, MODP_2048.q, MODP_2048.p) == 1
    assert MODP_2048.g != 1
    assert GROUPS["modp2048"] is MODP_2048
    assert GROUPS["test"] is TEST_GROUP


def test_group_params_validation():
    with pytest.raises(ValueError):
        GroupParams(p=23, q=7, g=2)  # 7 does not divide 22
    with pytest.raises(ValueError):
        GroupParams(p=23, q=11, g=18)  # a residue, but its signed form is 5
    # p must be the safe prime 2q+1 with p = 3 mod 4, and g in [2, q].
    big = MODP_2048
    for p, q, g in [
        (67, 11, 9),  # 9 has order 11 mod 67, but 67 != 2*11 + 1
        (big.p + 2, big.q, big.g),
        (9, 4, 2),  # 9 = 2*4 + 1, but 9 = 1 mod 4
        (23, 11, 1),
        (23, 11, 12),
        (23, 11, 22),
        (big.p, big.q, big.q + 1),
        (big.p, big.q, big.p - 1),
        (big.p, big.q, big.p - big.g),
    ]:
        with pytest.raises(ValueError):
            GroupParams(p=p, q=q, g=g)
    with pytest.raises(ValueError, match="subgroup order must exceed trivial sizes"):
        GroupParams(p=3, q=1, g=2)
    # Every signed residue other than 1 generates a group of prime order.
    for g in (5, 11):
        assert GroupParams(p=23, q=11, g=g).g == g


def test_signed_form_maps_the_test_group_residues_onto_one_to_q():
    p, q = TEST_GROUP.p, TEST_GROUP.q
    residues = {x * x % p for x in range(1, p)}
    assert len(residues) == q
    assert {signed(residue, p) for residue in residues} == set(range(1, q + 1))
    for value in range(-1, p + 2):
        assert TEST_GROUP.contains(value) == (1 <= value <= q), value


@pytest.mark.parametrize("group", [TEST_GROUP, MODP_2048], ids=["test", "modp2048"])
def test_signed_form_commutes_with_blinding(group):
    # |(|g^k|)^r| = |g^(k*r mod q)|: blinding a signed h2 = g^k by r lands on
    # the signed g^x, with builtin pow as the oracle.
    g, p, q = group.g, group.p, group.q
    if group is TEST_GROUP:
        pairs = [(k, r) for k in range(1, q) for r in range(1, q)]
    else:
        rng = random.Random(22)
        pairs = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(3)]
    for k, r in pairs:
        h2 = signed(pow(g, k, p), p)
        expected = signed(pow(g, k * r % q, p), p)
        assert signed(pow(h2, r, p), p) == expected, (k, r)
        blinded = element_pow(GroupElement(h2, group), Scalar(r, group))
        assert blinded == power_of_g(Scalar(k * r % q, group))
        assert blinded.value == expected, (k, r)


def _exponents(group: GroupParams) -> list[int]:
    rng = random.Random(group.p.bit_length())
    q = group.q
    return [1, 2, q - 1, q, q + 1, 2 * q + 3, rng.getrandbits(256), rng.randrange(1, q)]


@pytest.mark.parametrize("group", [TEST_GROUP, MODP_2048], ids=["test", "modp2048"])
def test_powers_of_g_match_builtin_pow(group):
    # q, q+1, 2q+3 and the full-size draw lie outside [1, q-1]: no Scalar holds
    # them, so they reach the raw power directly.
    for exponent in _exponents(group):
        expected = signed(pow(group.g, exponent % group.q, group.p), group.p)
        assert group._generator_power(exponent) == expected, exponent
        if 0 < exponent < group.q:
            x = Scalar(exponent, group)
            assert power_of_g(x).value == expected, exponent
            assert element_pow(GroupElement(group.g, group), x).value == expected, exponent


# Each oracle pow on modp2048 takes about 35 ms.
@settings(max_examples=6, deadline=None)
@given(st.integers(1, 2 * MODP_2048.p) | st.integers(1, 2**300))
def test_openssl_powers_of_g_match_builtin_pow(exponent):
    g, p, q = MODP_2048.g, MODP_2048.p, MODP_2048.q
    assert MODP_2048._generator_power(exponent) == signed(pow(g, exponent % q, p), p)


def test_der_length_takes_the_long_form_from_128_bytes():
    # X.690: a length below 128 is one byte; from 128 on, 0x80 | the count
    # of length bytes comes first.
    assert crypto._der(0x02, bytes(127)) == bytes((0x02, 127)) + bytes(127)
    assert crypto._der(0x02, bytes(128)) == bytes((0x02, 0x81, 0x80)) + bytes(128)


def _refuse_der(data, password):
    raise AssertionError("this group's powers of g must not reach OpenSSL")


def test_test_group_powers_of_g_use_builtin_pow(monkeypatch):
    monkeypatch.setattr(serialization, "load_der_private_key", _refuse_der)
    g, p, q = TEST_GROUP.g, TEST_GROUP.p, TEST_GROUP.q
    for exponent in range(1, 2 * q + 3):
        assert TEST_GROUP._generator_power(exponent) == signed(pow(g, exponent, p), p), exponent
    for exponent in range(1, q):
        assert power_of_g(Scalar(exponent, TEST_GROUP)).value == signed(pow(g, exponent, p), p)


def _group_of_bits(bits: int) -> GroupParams:
    """A group shaped like a safe-prime group, with a modulus of the given size.

    q is not prime, so the order of g = 4 need not be q; these tests only
    compare g^(e mod q), which is defined all the same.
    """
    q = (1 << (bits - 2)) + 1
    return GroupParams(p=2 * q + 1, q=q, g=4)


@pytest.mark.parametrize(
    "bits, by_openssl", [(511, False), (512, True), (10000, True), (10001, False)]
)
def test_powers_of_g_reach_openssl_for_the_modulus_sizes_it_accepts(
    monkeypatch, bits, by_openssl
):
    group = _group_of_bits(bits)
    assert group.p.bit_length() == bits
    loaded, load = [], serialization.load_der_private_key

    def counting_load(data, password):
        loaded.append(data)
        return load(data, password)

    monkeypatch.setattr(serialization, "load_der_private_key", counting_load)
    for exponent in (1, 2, 3**100, group.q, group.q + 5):
        out = group._generator_power(exponent)
        assert out == signed(pow(group.g, exponent % group.q, group.p), group.p), exponent
    assert len(loaded) == (4 if by_openssl else 0)  # the exponent q is 0 mod q


def test_serialization_is_imported_by_the_first_large_group_power():
    # Importing it takes tens of milliseconds that a small-group run never needs.
    code = "\n".join([
        "import sys",
        "import sedg",
        "from sedg import crypto, harness",
        "harness.run_scenario(harness.make_config('v3', group_name='test', seed=3))",
        "name = 'cryptography.hazmat.primitives.serialization'",
        "assert name not in sys.modules, 'imported by a test-group run'",
        "crypto.power_of_g(crypto.Scalar(3, crypto.MODP_2048))",
        "assert name in sys.modules, 'not imported by a modp2048 power'",
    ])
    _run_fresh(code)


def test_no_second_openssl_is_loaded():
    # Every primitive comes from cryptography's OpenSSL; hashlib's `_hashlib`
    # would map the system libcrypto into the process as well.
    code = "\n".join([
        "import json, sys",
        "before = set(sys.modules)",
        "import sedg, sedg.cli",
        "from sedg import harness",
        "harness.run_scenario(harness.make_config('v1', seed=3))",
        "harness.run_scenario(harness.make_config('v3', group_name='modp2048', seed=3))",
        "print(json.dumps({'before': sorted(before), 'added': sorted(set(sys.modules) - before)}))",
    ])
    modules = json.loads(_run_fresh(code))
    if "_hashlib" in modules["before"]:
        pytest.skip("_hashlib is imported at start-up, before sedg, so the check says nothing")
    assert "_hashlib" not in modules["added"]


def _run_fresh(code):
    """Run `code` in a new interpreter that imports sedg from this tree; return its stdout."""
    src = os.path.dirname(os.path.dirname(crypto.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


# ---------------------------------------------------------------------------
# Scalars from keys, KDF, scalar drawing
# ---------------------------------------------------------------------------

def test_scalar_from_int_on_the_test_group():
    # q = 11: every integer lands in [1, 10], and none of them on zero.
    for n in range(3 * TEST_GROUP.q + 1):
        assert scalar_from_int(n, TEST_GROUP) == Scalar(n % 10 + 1, TEST_GROUP)


def test_scalar_from_key_reduces_big_endian():
    key = (25).to_bytes(32, "big")  # 25 mod 10 + 1 = 6
    assert scalar_from_key(key, TEST_GROUP).value == 6


def test_scalar_from_key_maps_a_zero_residue_to_a_scalar():
    # 22 = 0 mod 11, yet the key maps onto [1, q-1] like any other.
    key = (22).to_bytes(32, "big")  # 22 mod 10 + 1 = 3
    assert scalar_from_key(key, TEST_GROUP) == Scalar(3, TEST_GROUP)


def test_scalar_from_key_on_modp2048_is_the_key_plus_one():
    # A 32-byte key is below 2^256 < q - 1, so the reduction leaves it alone.
    for key, value in ((0, 1), (1, 2), (2**256 - 1, 2**256)):
        assert scalar_from_key(key.to_bytes(32, "big"), MODP_2048).value == value


def test_scalar_from_key_takes_only_a_32_byte_key():
    # No OpenSSL call sees this key, so the length check is the function's own.
    with pytest.raises(ValueError, match="^key must be 32 bytes$"):
        scalar_from_key(bytes(31), TEST_GROUP)


def test_symmetric_key_for_scalar_separates_roles():
    a = symmetric_key_for_scalar(Scalar(3, TEST_GROUP))
    b = symmetric_key_for_scalar(Scalar(4, TEST_GROUP))
    assert len(a) == 32
    assert a != b
    assert a == symmetric_key_for_scalar(Scalar(3, TEST_GROUP))
    # the key is not the raw scalar bytes
    assert a != (3).to_bytes(32, "big")


def test_draw_scalar_range_and_scripted_forcing():
    rng = random.Random(30)
    for _ in range(200):
        s = draw_scalar(rng, TEST_GROUP)
        assert 1 <= s.value <= TEST_GROUP.q - 1
    forced = ScriptedRng([(3).to_bytes(scalar_draw_len(TEST_GROUP), "big")])
    assert draw_scalar(forced, TEST_GROUP).value == 4  # 3 mod 10 + 1


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

def test_canonical_encode_definition():
    assert canonical_encode([b"a", b"b"]) == bytes.fromhex("0000000161" "0000000162")
    assert canonical_encode([]) == b""


def test_canonical_encode_distinguishes_split_points():
    # A single two-byte part must not collide with two one-byte parts.
    assert canonical_encode([b"\x00\x00"]) != canonical_encode([b"\x00", b"\x00"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(max_size=16), max_size=5))
def test_canonical_encode_injective(parts):
    seen = test_canonical_encode_injective.seen
    encoded = canonical_encode(parts)
    key = tuple(parts)
    if encoded in seen:
        assert seen[encoded] == key
    seen[encoded] = key


test_canonical_encode_injective.seen = {}


def test_canonical_encode_round_trip_structure():
    parts = [b"", b"xy", b"\x00" * 5]
    encoded = canonical_encode(parts)
    assert len(encoded) == sum(4 + len(p) for p in parts)
