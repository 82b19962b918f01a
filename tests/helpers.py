"""Shared test utilities."""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

from sedg.crypto import SEED_LEN, SigningKeyPair
from sedg.ledger import Ledger, NotaryHashLock


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


def signed(residue: int, modulus: int) -> int:
    """Independent |x| oracle: the smaller of residue mod modulus and its negation."""
    residue %= modulus
    return min(residue, modulus - residue)


def brute_force_inverse(value: int, modulus: int) -> int:
    """Independent modular inverse oracle: exhaustive search."""
    for candidate in range(1, modulus):
        if (value * candidate) % modulus == 1:
            return candidate
    raise AssertionError(f"{value} has no inverse mod {modulus}")


def signing_keys(n: int) -> SigningKeyPair:
    """A deterministic Ed25519 key pair, one per integer `n`."""
    return SigningKeyPair.from_seed(random.Random(n).randbytes(SEED_LEN))


class AcceptAnyWitnessLedger(Ledger):
    """Faulty chain that pays out on any witness."""

    def _condition_holds(self, condition, witness):
        return True


class DoubleSettleLedger(Ledger):
    """Faulty chain that refunds a contract already settled."""

    def _ensure_open(self, contract):
        pass


class FeeDroppingLedger(Ledger):
    """Faulty chain that settles a v2 claim as if its lock carried no notary fee.

    The seller's pre-claim check still sees the published lock, so an
    honest seller claims, and the whole price goes to the seller.
    """

    def claim(self, contract_id, witness):
        contract = self.get_contract(contract_id)
        if isinstance(contract.condition, NotaryHashLock):
            unpaid = replace(contract.condition, fee=0)
            self._contracts[contract_id] = replace(contract, condition=unpaid)
        return super().claim(contract_id, witness)


class CountingLedger(Ledger):
    """Honest chain that counts the claims and refunds asked of it."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: Counter[str] = Counter()

    def claim(self, contract_id, witness):
        self.calls["claim"] += 1
        return super().claim(contract_id, witness)

    def refund(self, contract_id, caller):
        self.calls["refund"] += 1
        return super().refund(contract_id, caller)


def transition(session, state, handler: str, *args):
    """One row of a session's table: put `session` in `state`, call `handler`
    with `args`, and return (the state after, the outputs)."""
    session.state = state
    outputs = getattr(session, handler)(*args)
    return session.state, outputs

