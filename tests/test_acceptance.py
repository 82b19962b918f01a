"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
from __future__ import annotations

import dataclasses
import itertools
import random
import time

import pytest
from hypothesis.stateful import run_state_machine_as_test

from helpers import ScriptedRng, brute_force_inverse, signed, signing_keys, slow_pow
from sedg import crypto
from sedg.cert import AbortReason, Variant, notarize, verify_certificate
from sedg.crypto import TEST_GROUP, Scalar
from sedg.harness import (
    World,
    demo,
    demo_config,
    drive,
    explore,
    make_config,
    run_scenario,
)
from sedg.ledger import (
    ContractState,
    Ledger,
    event_to_json,
    replay,
)
from sedg.protocol import (
    BuyerPolicy,
    BuyerSession,
    SellerPolicy,
    SellerSession,
    Settled,
    Terms,
)
from test_harness import parameter_boundaries, variants_explore_alike
from test_ledger import LEDGER_MACHINE_SETTINGS, LedgerMachine, run_random_ops


def _ok(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


# ---------------------------------------------------------------------------
# 1. Happy-path equivalence for all three variants
# ---------------------------------------------------------------------------

def test_acceptance_1_happy_paths():
    for variant in ("v1", "v2", "v3"):
        lines: list[str] = []
        started = time.monotonic()
        report = demo(variant, printer=lines.append)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"{variant} demo took {elapsed:.2f}s"
        assert report.buyer_has_plaintext and report.seller_paid

        config = demo_config(variant)
        world = World(config)
        drive(world)
        assert world.buyer.state == Settled(config.payload)

        if variant == "v2":
            assert report.balances["seller"] == config.price - config.notary_fee
            assert report.balances["notary"] == config.notary_fee
        else:
            assert report.balances["seller"] == config.price
        assert report.balances["buyer"] == config.buyer_balance - config.price
    _ok(1, "all three demos settle in <1s with exact payouts and matching plaintext")


# ---------------------------------------------------------------------------
# 2. Fairness exploration over the full policy grid
# ---------------------------------------------------------------------------

def test_acceptance_2_fairness_exploration():
    started = time.monotonic()
    schedules = 0
    for variant in ("v1", "v2", "v3"):
        for seller_policy, buyer_policy in itertools.product(SellerPolicy, BuyerPolicy):
            kwargs = dict(
                price=100,
                buyer_balance=150,
                seed=11,
                seller_policy=seller_policy,
                buyer_policy=buyer_policy,
            )
            if variant == "v2":
                kwargs["notary_fee"] = 10
            if variant == "v3":
                kwargs["group_name"] = "test"
            result = explore(make_config(variant, **kwargs), depth=12)
            schedules += result.schedules_explored
            assert result.violations == [], (
                f"{variant} {seller_policy.value} x {buyer_policy.value}: "
                f"{result.violations[:3]}"
            )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"exploration took {elapsed:.1f}s"
    _ok(
        2,
        f"zero violations over {schedules} schedules, "
        f"20 policy pairs x 3 variants, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Exhaustive discrete-log algebra on the tiny group
# ---------------------------------------------------------------------------

def test_acceptance_3_exhaustive_blinding_algebra():
    g, p, q = TEST_GROUP.g, TEST_GROUP.p, TEST_GROUP.q
    failures = 0
    for k in range(1, q):
        for r in range(1, q):
            ks, rs = Scalar(k, TEST_GROUP), Scalar(r, TEST_GROUP)
            x = crypto.scalar_mul(ks, rs)
            direct = crypto.power_of_g(x)
            chained = crypto.element_pow(crypto.power_of_g(ks), rs)
            if direct != chained or direct.value != signed(slow_pow(g, (k * r) % q, p), p):
                failures += 1
            recovered = crypto.scalar_mul(x, crypto.scalar_inv(rs))
            if recovered.value != k or recovered.value != (
                x.value * brute_force_inverse(r, q)
            ) % q:
                failures += 1
    assert failures == 0
    _ok(3, "g^(k·r) == (g^k)^r and (k·r)·r⁻¹ == k for all 100 pairs, zero failures")


# ---------------------------------------------------------------------------
# 4. Unlinkability surrogate: the on-chain view is certificate-independent
# ---------------------------------------------------------------------------

def _forced_dlog_exchange(k: int, r: int):
    """Full seller/buyer exchange on the tiny group with forced k and r.

    The notary's exponent is its key mod (q-1) + 1, so key k-1 forces k.
    """
    notary_keys = signing_keys(0)
    notary_id = b"n"
    seller_id = b"s"
    payload = b"forced exchange payload"
    package = notarize(
        notary_keys,
        notary_id,
        payload,
        seller_id,
        Variant.V3,
        ScriptedRng([(k - 1).to_bytes(32, "big"), bytes(12)]),
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
        Scalar(r, TEST_GROUP),
    )
    (ref,) = buyer.on_offer(seller.start(), chain)
    assert ref.r.value == r
    seller.on_contract(ref, chain)
    event = chain.read_events(0)[-1]
    assert buyer.on_claim(event) == payload
    return chain.get_contract(ref.contract_id).condition.c.value, event.witness.x.value


def test_acceptance_4_unlinkability_surrogate():
    q = TEST_GROUP.q
    for k in range(1, q):
        seen_x = set()
        for r in range(1, q):
            c, x = _forced_dlog_exchange(k, r)
            # every settled contract's on-chain pair is self-consistent:
            # c is recomputable from the public witness alone
            assert c == signed(slow_pow(TEST_GROUP.g, x, TEST_GROUP.p), TEST_GROUP.p)
            assert x == (k * r) % q
            seen_x.add(x)
        # for fixed k, the blinding makes x sweep the whole exponent range
        assert seen_x == set(range(1, q))
    _ok(
        4,
        "every settled dlog contract satisfies c = g^x, and r ↦ x is a "
        "bijection onto [1,10] for each k",
    )


# ---------------------------------------------------------------------------
# 5. Ledger conservation and single settlement at scale
# ---------------------------------------------------------------------------

def test_acceptance_5_ledger_property_tests():
    started = time.monotonic()
    for seed in range(1000):
        run_random_ops(seed, ops=20)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"property run took {elapsed:.1f}s"
    _ok(5, f"1000 random operation sequences, zero invariant violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Binding: mutated certificates and wrong witnesses are rejected
# ---------------------------------------------------------------------------

def test_acceptance_6_binding():
    notary_keys = signing_keys(60)
    notary_id = b"notary-1"
    seller_id = b"seller-1"
    registry = {notary_id: notary_keys.public}
    rng = random.Random(61)

    rejected = 0
    for variant in Variant:
        for i in range(100):
            payload = rng.randbytes(rng.randrange(1, 64))
            package = notarize(
                notary_keys,
                notary_id,
                payload,
                seller_id,
                variant,
                rng,
                group=TEST_GROUP if variant is Variant.V3 else None,
            )
            cert = package.certificate
            ciphertext = package.ciphertext
            mutation = i % 4
            if mutation == 0:
                body = bytearray(ciphertext.body)
                body[rng.randrange(len(body))] ^= 1 << rng.randrange(8)
                ciphertext = crypto.Ciphertext(ciphertext.nonce, bytes(body))
            elif mutation == 1:
                h1 = bytearray(cert.h1)
                h1[rng.randrange(32)] ^= 1 << rng.randrange(8)
                cert = dataclasses.replace(cert, h1=bytes(h1))
            elif mutation == 2:
                if variant is Variant.V3:
                    from sedg.cert import GroupPower

                    while True:
                        wrong = crypto.power_of_g(crypto.draw_scalar(rng, TEST_GROUP))
                        if wrong != cert.h2.element:
                            break
                    cert = dataclasses.replace(cert, h2=GroupPower(wrong))
                else:
                    digest = bytearray(cert.h2.digest)
                    digest[rng.randrange(32)] ^= 1 << rng.randrange(8)
                    cert = dataclasses.replace(cert, h2=type(cert.h2)(bytes(digest)))
            else:
                cert = dataclasses.replace(cert, seller_id=b"mallory")
            verdict = verify_certificate(cert, registry, seller_id, ciphertext)
            # Only the ciphertext is outside the signed string.
            expected = (
                AbortReason.CIPHERTEXT_MISMATCH if mutation == 0 else AbortReason.BAD_SIGNATURE
            )
            assert verdict is expected, f"mutation {mutation} on {variant}: {verdict}"
            rejected += 1
    assert rejected == 300

    # 100 wrong-witness claims, each leaving the chain bit-identical
    from sedg.ledger import HashLock, LedgerError, Preimage

    key = rng.randbytes(32)
    chain = Ledger()
    payer, payee = b"p", b"q"
    chain.fund(payer, 100)
    contract_id = chain.publish_contract(
        payer, payee, 60, HashLock(crypto.sha256(key)), deadline=1000
    )
    for _ in range(100):
        before = chain.snapshot()
        wrong = rng.randbytes(32)
        if wrong == key:
            continue
        with pytest.raises(LedgerError, match=r"^the witness does not satisfy the condition$"):
            chain.claim(contract_id, Preimage(wrong))
        assert chain.snapshot() == before
    assert chain.get_contract(contract_id).state is ContractState.OPEN
    _ok(6, "300 mutated certificates and 100 wrong-witness claims all rejected cleanly")


# ---------------------------------------------------------------------------
# 7. Wire determinism and replay fidelity
# ---------------------------------------------------------------------------

def test_acceptance_7_wire_determinism(tmp_path):
    config = make_config(
        "v2", price=100, buyer_balance=150, notary_fee=10,
        seller_policy="withhold_key", seed=777,
    )
    log_a, log_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_scenario(config, log_path=str(log_a))
    run_scenario(config, log_path=str(log_b))
    assert log_a.read_bytes() == log_b.read_bytes()

    # replay reconstructs the ledger exactly, including its own log bytes
    world = World(config)
    drive(world)
    lines = [event_to_json(e) for e in world.ledger.read_events(0)]
    assert "\n".join(lines) + "\n" == log_a.read_text()
    rebuilt = replay(lines)
    assert rebuilt.snapshot() == world.ledger.snapshot()
    assert [event_to_json(e) for e in rebuilt.read_events(0)] == lines

    # a second variant with a settled claim, for witness-bearing events
    config2 = make_config("v3", price=60, buyer_balance=100, group_name="test", seed=778)
    world2 = World(config2)
    drive(world2)
    lines2 = [event_to_json(e) for e in world2.ledger.read_events(0)]
    rebuilt2 = replay(lines2)
    assert rebuilt2.snapshot() == world2.ledger.snapshot()
    _ok(7, "equal seeds give byte-identical logs; replay rebuilds state bit-exactly")


# ---------------------------------------------------------------------------
# 8. The paper's claims beyond the 60-config grid
# ---------------------------------------------------------------------------

def test_acceptance_8_claims_beyond_the_grid(monkeypatch):
    started = time.monotonic()
    cells = variants_explore_alike(monkeypatch)
    explored, refused, nodes = parameter_boundaries()
    run_state_machine_as_test(LedgerMachine, settings=LEDGER_MACHINE_SETTINGS)
    elapsed = time.monotonic() - started
    _ok(
        8,
        f"v1, v2, v3 and v3 on modp2048 reach the same terminals in {cells} cells; "
        f"{explored} boundary configs ({nodes} nodes) without a violation and "
        f"{refused} refused as declared; the ledger alone keeps its invariants over "
        f"{LEDGER_MACHINE_SETTINGS.max_examples} runs of up to "
        f"{LEDGER_MACHINE_SETTINGS.stateful_step_count} calls, {elapsed:.1f}s",
    )
