"""Shared test utilities."""
from __future__ import annotations

import random

from sedg.crypto import SEED_LEN, SigningKeyPair


class ScriptedRng(random.Random):
    """Randomness source that replays scripted byte strings first.

    Lets tests force specific keys, nonces, and scalars through code that
    takes an explicit rng, then falls back to seeded randomness.
    """

    def __new__(cls, scripted=(), fallback_seed: int = 0):
        # random.Random.__new__ seeds from its first argument; route the
        # fallback seed there instead of the scripted list.
        return super().__new__(cls, fallback_seed)

    def __init__(self, scripted=(), fallback_seed: int = 0) -> None:
        super().__init__(fallback_seed)
        self._queue = list(scripted)

    def randbytes(self, n: int) -> bytes:
        if self._queue:
            value = self._queue.pop(0)
            assert len(value) == n, f"scripted {len(value)} bytes but {n} requested"
            return value
        return super().randbytes(n)


def slow_pow(base: int, exponent: int, modulus: int) -> int:
    """Independent modular exponentiation oracle: repeated multiplication."""
    result = 1
    for _ in range(exponent):
        result = (result * base) % modulus
    return result


def brute_force_inverse(value: int, modulus: int) -> int:
    """Independent modular inverse oracle: exhaustive search."""
    for candidate in range(1, modulus):
        if (value * candidate) % modulus == 1:
            return candidate
    raise AssertionError(f"{value} has no inverse mod {modulus}")


def signing_keys(n: int) -> SigningKeyPair:
    """A deterministic Ed25519 key pair, one per integer `n`."""
    return SigningKeyPair.from_seed(random.Random(n).randbytes(SEED_LEN))
