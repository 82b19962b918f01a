from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
import typing
from collections import Counter
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    AcceptAnyWitnessLedger,
    CountingLedger,
    DoubleSettleLedger,
    FeeDroppingLedger,
)
import sedg
from sedg import cli, codec, crypto, harness, transport
from sedg.cert import Certificate, GroupPower, verify_certificate
from sedg.crypto import MODP_2048, TEST_GROUP, Scalar
from sedg.harness import (
    MAX_DEADLINE_OFFSET,
    MAX_PAYLOAD,
    ConfigError,
    ExplorationResult,
    ScenarioConfig,
    ScheduleError,
    Violation,
    World,
    config_from_dict,
    config_from_file,
    demo,
    drive,
    emit_report,
    explore,
    fairness_violations,
    make_config,
    run_scenario,
)
from sedg.ledger import (
    Claimed,
    ContractPublished,
    ContractState,
    Funded,
    HashLock,
    Ledger,
    LedgerEvent,
    event_from_json,
    event_to_json,
)
from sedg.protocol import (
    Aborted,
    AbortReason,
    BuyerPolicy,
    BuyerSession,
    ContractRef,
    Expired,
    Offer,
    Paid,
    ProtocolMessage,
    Published,
    Reimbursed,
    SellerPolicy,
    SellerSession,
    Settled,
    Terms,
    message_to_obj,
)


# ---------------------------------------------------------------------------
# Scenario runs
# ---------------------------------------------------------------------------

def test_v1_honest_happy_path():
    config = make_config("v1", price=60, buyer_balance=100, seed=42)
    report = run_scenario(config)
    assert report.buyer_has_plaintext
    assert report.seller_paid
    assert not report.buyer_refunded
    assert report.balances == {"buyer": 40, "seller": 60, "notary": 0}
    assert report.buyer_state == "settled"
    assert report.seller_state == "claimed"


def test_v1_withholding_seller_leaves_buyer_whole():
    config = make_config(
        "v1", price=60, buyer_balance=100, seller_policy="withhold_key", seed=42
    )
    report = run_scenario(config)
    assert report.buyer_refunded
    assert not report.seller_paid
    assert not report.buyer_has_plaintext
    assert report.balances["buyer"] == 100
    assert report.seller_state == "expired"


def test_v2_fee_split():
    config = make_config("v2", price=100, buyer_balance=150, notary_fee=10, seed=42)
    report = run_scenario(config)
    assert report.balances == {"buyer": 50, "seller": 90, "notary": 10}
    assert report.notary_paid and report.seller_paid


def test_each_account_on_the_chain_is_its_partys_id(tmp_path):
    # The chain names each party by the id the certificate and the witness
    # carry: a v2 log funds, escrows and pays those ids, and no hash of them.
    config = make_config("v2", price=100, buyer_balance=150, notary_fee=10, seed=7)
    log = tmp_path / "events.jsonl"
    run_scenario(config, log_path=str(log))
    funded, published, claimed = map(event_from_json, log.read_text().splitlines())
    assert type(funded) is Funded and funded.account == harness.BUYER_ID
    assert type(published) is ContractPublished
    assert (published.payer, published.payee) == (harness.BUYER_ID, harness.SELLER_ID)
    assert type(claimed) is Claimed and claimed.witness.notary_id == harness.NOTARY_ID
    assert [p.to for p in claimed.payouts] == [harness.SELLER_ID, claimed.witness.notary_id]


def test_v3_settles_on_both_groups():
    for group in ("test", "modp2048"):
        config = make_config("v3", price=60, buyer_balance=100, group_name=group, seed=3)
        world = World(config)
        drive(world)
        assert world.buyer.state == Settled(config.payload)


def test_plaintext_soundness():
    config = make_config("v1", price=60, buyer_balance=100, seed=9, payload=b"exact bytes")
    world = World(config)
    drive(world)
    assert world.report().buyer_has_plaintext
    assert world.buyer.state == Settled(b"exact bytes")


def test_corrupt_seller_aborts_before_any_payment():
    config = make_config(
        "v1", price=60, buyer_balance=100, seller_policy="send_corrupt_ciphertext", seed=5
    )
    world = World(config)
    drive(world)
    assert world.buyer.state == Aborted(AbortReason.CIPHERTEXT_MISMATCH)
    assert world.report().abort_reason == "ciphertext_mismatch"
    assert type(world.ledger.read_events(0)[-1]) is not ContractPublished
    assert world.report().balances["buyer"] == 100


def test_underfunded_buyer_aborts_without_losing_anything():
    config = make_config("v1", price=60, buyer_balance=10, seed=13)
    world = World(config)
    drive(world)
    assert world.buyer.state == Aborted(AbortReason.INSUFFICIENT_FUNDS)
    assert world.report().abort_reason == "insufficient_funds"
    assert world.report().balances["buyer"] == 10
    assert fairness_violations(world) == []


def _buyer_sending_blind(monkeypatch, r):
    """Make every buyer's contract reference carry `r` in place of its own blind."""
    on_answer = BuyerSession.on_answer

    def with_r(self, answer):
        return [dataclasses.replace(ref, r=r) for ref in on_answer(self, answer)]

    monkeypatch.setattr(BuyerSession, "on_answer", with_r)


@pytest.mark.parametrize(
    "r, reason",
    [
        (None, "the contract reference carries no blinding scalar"),
        (Scalar(4, MODP_2048), "blinding scalar from a different group"),
    ],
    ids=["no_blind", "modp2048_blind"],
)
def test_v3_seller_declines_a_reference_without_a_usable_blind(monkeypatch, r, reason):
    _buyer_sending_blind(monkeypatch, r)
    chain = CountingLedger()
    world = World(make_config("v3", price=60, buyer_balance=100, seed=42), chain)
    drive(world)
    assert world.trace == [
        "deliver:offer:seller->buyer",
        "deliver:contract_ref:buyer->seller",
        "expire",
        "timers",
    ]
    assert world.seller.state == Expired(f"declined: {reason}")
    assert world.seller.outcome == f"declined: {reason}"
    assert chain.calls == {"refund": 1}
    report = world.report()
    assert report.buyer_refunded and not report.seller_paid
    assert report.balances["buyer"] == 100
    assert fairness_violations(world) == []


@pytest.mark.parametrize("variant", ["v1", "v2"])
def test_a_blind_in_a_v1_or_v2_reference_is_ignored(monkeypatch, variant):
    _buyer_sending_blind(monkeypatch, Scalar(4, TEST_GROUP))
    config = make_config(variant, price=60, buyer_balance=100, seed=42)
    world = World(config)
    drive(world)
    assert world.seller.state == Paid()
    assert world.buyer.state == Settled(config.payload)
    assert fairness_violations(world) == []


def test_adversarial_schedule_expiry_before_claim():
    # Forcing expiry between contract publication and the seller's wake-up:
    # the seller declines the stale contract and the buyer reclaims escrow.
    config = make_config("v1", price=60, buyer_balance=100, seed=42)
    world = World(config)
    drive(world, [0, 1])
    assert world.buyer.state == Reimbursed()
    assert world.seller.state == Expired("declined: tick 101 past deadline 100")
    assert world.ledger.get_balance(harness.BUYER_ID) == 100
    assert fairness_violations(world) == []


def test_expire_stops_at_the_earliest_deadline_not_yet_passed():
    # A foreign contract with deadline 99 is open beside the buyer's, whose
    # deadline is 100: one expiry passes the first deadline, and the second
    # deadline, not yet passed, keeps expiry open for another.
    chain = Ledger()
    chain.fund(b"foreign", 5)
    chain.publish_contract(b"foreign", b"payee", 5, HashLock(bytes(32)), deadline=99)
    world = World(make_config("v1", price=60, buyer_balance=100, seed=42), chain)
    world.step(0)  # the offer: the buyer escrows the price
    assert world.ledger.get_contract(2).deadline == 100
    world.step(world.options().index("expire"))
    assert world.ledger.current_tick == 100
    assert "expire" in world.options()
    world.step(world.options().index("expire"))
    assert world.ledger.current_tick == 101
    assert "expire" not in world.options()


def test_claim_wake_hands_the_buyer_the_event_the_world_found(monkeypatch):
    # The world scans the chain once per step; the buyer does not re-read it.
    world = World(make_config("v1", price=60, buyer_balance=100, seed=42))
    world.step(0)  # the offer: the buyer escrows the price
    world.step(0)  # the contract reference: the seller claims
    claim = world.ledger.read_events(0)[-1]
    assert type(claim) is Claimed
    assert world.options() == ["notify:buyer"]
    assert len(world.pending_wakes) == 1
    assert world.pending_wakes[0] is claim

    reads = []
    read_events = Ledger.read_events

    def counting(self, from_seq=0):
        reads.append(from_seq)
        return read_events(self, from_seq)

    monkeypatch.setattr(Ledger, "read_events", counting)
    world.step(0)
    assert len(reads) == 1
    assert world.buyer.state == Settled(world.config.payload)
    assert world.options() == []


def test_worlds_of_any_seed_share_the_one_notary_key():
    # The notary is one registered party: a certificate notarized in one
    # world verifies against another world's buyer registry.
    first = World(make_config("v1", seed=1))
    second = World(make_config("v1", seed=2))
    registry = second.buyer.trusted_notaries
    assert first.buyer.trusted_notaries == registry
    assert first.seller.package.certificate.notary_id == second.seller.package.certificate.notary_id
    assert first.seller.package.certificate != second.seller.package.certificate
    package = first.seller.package
    rejection = verify_certificate(
        package.certificate, registry, harness.SELLER_ID, package.ciphertext
    )
    assert rejection is None


@pytest.mark.parametrize(
    "variant, group_name",
    [("v1", "test"), ("v2", "test"), ("v3", "test"), ("v3", "modp2048")],
)
def test_a_worlds_sessions_hold_only_values_their_party_knows(variant, group_name):
    # Sessions are handed values, not ways to draw them, and hold the agreed
    # terms, not the world's config with its seed, policies and payload.
    config = make_config(variant, price=100, group_name=group_name, seed=7)
    world = World(config)
    for session in (world.buyer, world.seller):
        for name, value in vars(session).items():
            assert not callable(value) and not isinstance(value, random.Random), name
        assert type(session.terms) is Terms
    blind = world.buyer.blind
    if variant == "v3":
        assert blind == crypto.draw_scalar(random.Random(f"{config.seed}/buyer"), config.group)
    else:
        assert blind is None


def test_building_a_world_loads_no_signing_key(monkeypatch):
    loads = []
    from_seed = vars(crypto.SigningKeyPair)["from_seed"].__func__

    def counting(cls, seed):
        loads.append(seed)
        return from_seed(cls, seed)

    monkeypatch.setattr(crypto.SigningKeyPair, "from_seed", classmethod(counting))
    for variant in ("v1", "v2", "v3"):
        report = run_scenario(make_config(variant, price=100, seed=5))
        assert report.seller_paid and report.buyer_has_plaintext
    assert loads == []


def test_run_scenario_is_deterministic(tmp_path):
    config = make_config("v2", price=100, buyer_balance=150, notary_fee=10, seed=77)
    log_a, log_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    report_a = run_scenario(config, log_path=str(log_a))
    report_b = run_scenario(config, log_path=str(log_b))
    assert log_a.read_bytes() == log_b.read_bytes()
    # identical up to the log path the caller chose
    normalize = lambda r: dataclasses.replace(r, event_log_path=None)
    assert emit_report(normalize(report_a)) == emit_report(normalize(report_b))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_report_json_round_trips():
    config = make_config("v1", price=60, buyer_balance=100, seed=1)
    report = run_scenario(config)
    parsed = json.loads(emit_report(report, "json"))
    assert parsed["buyer_has_plaintext"] is True
    assert parsed["balances"] == {"buyer": 40, "seller": 60, "notary": 0}
    assert parsed["variant"] == "v1"


def test_report_text_names_all_parties():
    config = make_config("v1", price=60, buyer_balance=100, seed=1)
    text = emit_report(run_scenario(config), "text").decode()
    assert "seller: claimed" in text
    assert "buyer:  settled" in text
    assert "notary: paid=False" in text


def test_report_text_warns_when_the_buyer_paid_but_could_not_decrypt():
    # A chain that accepts any witness pays a garbage claim, so the buyer
    # reads a key that does not open the ciphertext.
    config = make_config(
        "v1",
        price=60,
        buyer_balance=100,
        seller_policy=SellerPolicy.CLAIM_WRONG_WITNESS,
        seed=8,
    )
    world = World(config, AcceptAnyWitnessLedger())
    drive(world)
    report = world.report()
    assert report.buyer_decrypt_failed
    assert emit_report(report, "text").decode().splitlines() == [
        "scenario: v1  seed=8  price=60",
        "seller: claimed  paid=True",
        "buyer:  contract_published  plaintext=False  refunded=False",
        "notary: paid=False",
        "warning: buyer paid but could not decrypt",
        "balances: buyer=40  seller=60  notary=0",
        "events: 3",
    ]


def test_report_rejects_unknown_format():
    config = make_config("v1", seed=1)
    with pytest.raises(ValueError):
        emit_report(run_scenario(config), "yaml")


# ---------------------------------------------------------------------------
# The explorer core
# ---------------------------------------------------------------------------

def enumerate_schedules(make_sim, depth):
    """Yield every complete schedule exactly once (depth-first, deterministic).

    The stateless oracle for `explore`: it builds a fresh simulation (anything
    with `options()` and `step(index)`) per schedule and replays the prefix.
    Each yielded simulation has been run to quiescence along its schedule.
    Raises ScheduleError if any run needs more choices than the bound.
    """
    stack = [()]
    while stack:
        prefix = stack.pop()
        sim = make_sim()
        counts, schedule = [], []
        while True:
            opts = sim.options()
            if not opts:
                break
            if len(counts) >= depth:
                raise ScheduleError(f"a run exceeded the depth bound of {depth}")
            index = prefix[len(counts)] if len(counts) < len(prefix) else 0
            counts.append(len(opts))
            schedule.append(index)
            sim.step(index)
        for pos in range(len(prefix), len(counts)):
            for alt in range(1, counts[pos]):
                stack.append(tuple(schedule[:pos]) + (alt,))
        yield sim, tuple(schedule)


class ToyChannels:
    """FIFO channels; one scheduling option per nonempty channel.

    The number of complete schedules is the multinomial coefficient over the
    channel sizes, which pins down the enumerator before any fairness result
    is trusted.
    """

    def __init__(self, counts):
        self.queues = list(counts)

    def options(self):
        return [f"ch{i}" for i, n in enumerate(self.queues) if n > 0]

    def step(self, index):
        live = [i for i, n in enumerate(self.queues) if n > 0]
        self.queues[live[index]] -= 1


def _multinomial(counts):
    out = factorial(sum(counts))
    for c in counts:
        out //= factorial(c)
    return out


@pytest.mark.parametrize("counts", [(2, 1), (1, 1, 1), (2, 2), (3, 1), (4,), (2, 1, 1)])
def test_explorer_enumerates_exact_interleaving_count(counts):
    runs = list(enumerate_schedules(lambda: ToyChannels(counts), depth=20))
    assert len(runs) == _multinomial(counts)
    # every yielded schedule is distinct
    assert len({schedule for _, schedule in runs}) == len(runs)


def test_explorer_depth_bound_raises():
    with pytest.raises(ScheduleError):
        list(enumerate_schedules(lambda: ToyChannels((5,)), depth=3))


def test_explore_depth_exceeded_on_real_scenario():
    config = make_config("v1", price=60, buyer_balance=100, seed=1)
    with pytest.raises(ScheduleError):
        explore(config, depth=2)


def test_explore_depth_bound_allows_exactly_depth_choices():
    # `depth=N` means at most N choices: this tree's longest run takes 4.
    config = make_config("v2", price=100, buyer_balance=150, seed=7)
    assert explore(config, depth=4).max_depth == 4
    with pytest.raises(ScheduleError, match="^a run exceeded the depth bound of 3$"):
        explore(config, depth=3)


def test_explore_honest_pair_is_clean():
    config = make_config("v1", price=60, buyer_balance=100, seed=5)
    result = explore(config, depth=12)
    assert result.violations == []
    assert result.schedules_explored >= 3
    assert result.max_depth <= 12


def test_explore_each_seller_deviation_is_fair():
    for policy in SellerPolicy:
        config = make_config(
            "v1", price=60, buyer_balance=100, seller_policy=policy, seed=6
        )
        result = explore(config, depth=12)
        assert result.violations == [], f"unexpected violation under {policy}"


def test_explore_enumeration_order_is_deterministic():
    config = make_config("v3", price=60, buyer_balance=100, group_name="test", seed=4)
    runs = [
        [sched for _, sched in enumerate_schedules(lambda: World(config), depth=12)]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    first = explore(config, depth=12)
    second = explore(config, depth=12)
    assert (first.schedules_explored, first.max_depth) == (
        second.schedules_explored,
        second.max_depth,
    )


# ---------------------------------------------------------------------------
# Broken-chain fixtures: the detector must actually fire
# ---------------------------------------------------------------------------

def test_broken_condition_evaluation_is_detected():
    config = make_config(
        "v1",
        price=60,
        buyer_balance=100,
        seller_policy=SellerPolicy.CLAIM_WRONG_WITNESS,
        seed=8,
    )
    result = explore(config, depth=12, chain_factory=AcceptAnyWitnessLedger)
    props = {v.prop for v in result.violations}
    assert "atomicity" in props
    # every violation knows the schedule that produced it
    assert all(v.schedule for v in result.violations)


def test_double_settlement_ledger_fixture_allows_the_bug():
    # Demonstrate the fixture really does double-settle at the ledger level.
    from sedg import crypto
    from sedg.ledger import Preimage

    key = b"\x07" * 32
    chain = DoubleSettleLedger()
    payer, payee = b"p", b"q"
    chain.fund(payer, 100)
    cid = chain.publish_contract(payer, payee, 60, HashLock(crypto.sha256(key)), deadline=10)
    chain.claim(cid, Preimage(key))
    chain.advance_time(11)
    chain.refund(cid, payer)  # a correct ledger would refuse: "contract 1 is claimed"
    assert chain.get_balance(payer) == 100
    assert chain.get_balance(payee) == 60


def test_double_settlement_is_detected():
    config = make_config("v1", price=60, buyer_balance=100, seed=8)
    world = World(config)
    drive(world)
    # sabotage the settled contract and push a second settlement through
    chain = world.ledger
    chain._contracts[1] = dataclasses.replace(chain._contracts[1], state=ContractState.OPEN)
    chain.advance_time(500)
    chain.refund(1, harness.BUYER_ID)
    props = {p for p, _ in fairness_violations(world)}
    assert "single-settlement" in props
    assert "conservation" in props


def test_chain_that_drops_the_notary_fee_breaks_the_notary_split():
    config = make_config("v2", price=100, buyer_balance=150, notary_fee=10, seed=7)
    world = World(config, FeeDroppingLedger())
    drive(world)
    assert world.buyer.state == Settled(config.payload)
    assert world.ledger.get_balance(harness.SELLER_ID) == 100
    # The seller is overpaid, not harmed: the one violation is the split.
    violations = dict(fairness_violations(world))
    assert violations == {"notary-split": "notary_paid=False but seller_paid=True"}
    result = explore(config, depth=12, chain_factory=FeeDroppingLedger)
    assert {v.prop for v in result.violations} == {"notary-split"}


def test_buyer_aborted_after_publishing_breaks_abort_before_pay():
    world = World(make_config("v1", price=60, buyer_balance=100, seed=8))
    world.step(0)  # the offer: the buyer verifies it and escrows the price
    assert isinstance(world.buyer.state, Published)
    world.buyer.state = Aborted(AbortReason.PRICE_MISMATCH)
    drive(world)
    violations = dict(fairness_violations(world))
    assert violations["abort-before-pay"] == "aborted buyer published 1 contract(s)"


def test_fee_skimming_claim_is_an_honest_seller_loss():
    # A v2 contract at the full price with a fee of 99 to the notary: the
    # honest witness opens it, and the seller is credited 1 instead of 90.
    from sedg.ledger import NotaryHashLock, PreimageWithNotary

    config = make_config("v2", price=100, buyer_balance=150, notary_fee=10, seed=7)
    world = World(config)
    chain = world.ledger
    lock = NotaryHashLock(h2=world.seller.package.certificate.h2.digest, fee=99)
    cid = chain.publish_contract(
        harness.BUYER_ID, harness.SELLER_ID, 100, lock, deadline=100
    )
    chain.claim(cid, PreimageWithNotary(world.seller.package.key, harness.NOTARY_ID))
    assert chain.get_balance(harness.SELLER_ID) == 1
    assert chain.get_balance(harness.NOTARY_ID) == 99
    violations = dict(fairness_violations(world))
    assert violations["honest-seller-no-loss"] == (
        f"seller claimed contract {cid} crediting it 1 != 90"
    )


@pytest.mark.parametrize(
    "chain_factory", [None, AcceptAnyWitnessLedger], ids=["honest-chain", "accept-any-witness"]
)
def test_eager_refund_explores_as_the_honest_buyer(chain_factory):
    # The world wakes the buyer only after a claim or after expiry, so a
    # buyer who would refund early never gets the chance: its tree is the
    # honest buyer's, less the invariant only an honest buyer is owed.
    def outcome(config):
        result = explore(config, depth=12, chain_factory=chain_factory)
        violations = [
            (v.schedule, v.prop, v.detail, v.choices)
            for v in result.violations
            if v.prop != "honest-buyer-no-loss"
        ]
        return result.schedules_explored, result.max_depth, result.nodes_executed, violations

    for variant, seller_policy in itertools.product(("v1", "v2", "v3"), SellerPolicy):
        honest, eager = (
            make_config(
                variant,
                price=100,
                buyer_balance=150,
                notary_fee=10 if variant == "v2" else None,
                seed=7,
                seller_policy=seller_policy,
                buyer_policy=buyer_policy,
            )
            for buyer_policy in (BuyerPolicy.HONEST, BuyerPolicy.REFUND_EAGERLY)
        )
        assert outcome(eager) == outcome(honest), f"{variant} {seller_policy.value}"


# ---------------------------------------------------------------------------
# The checkpointing explorer against the enumerator oracle
# ---------------------------------------------------------------------------

def _grid_configs():
    """The acceptance-2 grid: 3 variants x 20 policy pairs on the test group."""
    for variant in ("v1", "v2", "v3"):
        for seller_policy, buyer_policy in itertools.product(SellerPolicy, BuyerPolicy):
            yield make_config(
                variant,
                price=100,
                buyer_balance=150,
                notary_fee=10 if variant == "v2" else None,
                seed=11,
                seller_policy=seller_policy,
                buyer_policy=buyer_policy,
            )


_SESSION_CONSTANTS = {
    BuyerSession: {"terms", "party_id", "seller", "trusted_notaries", "policy", "blind"},
    SellerSession: {"package", "terms", "party_id", "policy"},
}


def test_each_session_holds_its_constants_and_one_frozen_state(monkeypatch):
    # At every node of the grid's trees a session holds what it was built
    # with, unchanged, and one `state`: a frozen, hashable record.
    built = {}
    step = World.step

    def checked_step(world, index):
        step(world, index)
        for session in (world.buyer, world.seller):
            fields = dict(vars(session))
            state = fields.pop("state")
            assert fields.keys() == _SESSION_CONSTANTS[type(session)]
            assert fields == built.setdefault(session, fields)
            assert dataclasses.is_dataclass(state)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state, "status", None)
            hash(state)
        checked.append(index)

    checked = []
    monkeypatch.setattr(World, "step", checked_step)
    nodes = sum(explore(config, depth=12).nodes_executed for config in _grid_configs())
    assert len(checked) == nodes > 0


def _oracle(config, chain_factory=None, depth=12):
    """What explore must report, from the stateless enumerator."""
    schedules, max_depth, violations = 0, 0, []

    def factory():
        return World(config, chain_factory() if chain_factory else None)

    for world, schedule in enumerate_schedules(factory, depth):
        schedules += 1
        max_depth = max(max_depth, len(schedule))
        violations += [
            (tuple(world.trace), prop, detail, schedule)
            for prop, detail in fairness_violations(world)
        ]
    return schedules, max_depth, violations


@pytest.mark.parametrize(
    "chain_factory",
    [None, AcceptAnyWitnessLedger, DoubleSettleLedger],
    ids=["honest-chain", "accept-any-witness", "double-settle"],
)
def test_explore_matches_the_enumerator_oracle(chain_factory):
    found = 0
    for config in _grid_configs():
        result = explore(config, depth=12, chain_factory=chain_factory)
        got = (
            result.schedules_explored,
            result.max_depth,
            [(v.schedule, v.prop, v.detail, v.choices) for v in result.violations],
        )
        name = f"{config.variant.value} {config.seller_policy.value} x {config.buyer_policy.value}"
        assert got == _oracle(config, chain_factory), name
        found += len(result.violations)
    # the faulty chain must give the comparison violations to agree on
    assert (found > 0) == (chain_factory is AcceptAnyWitnessLedger)


def _branchy_v3_config():
    return make_config(
        "v3",
        price=100,
        buyer_balance=150,
        seed=11,
        seller_policy="withhold_key",
        buyer_policy="refund_eagerly",
    )


def _terminal(world):
    """A terminal state: its schedule, its log, and both sessions' outcomes."""
    return (
        tuple(world.trace),
        tuple(world.ledger.snapshot()["events"]),
        world.seller.state,
        world.seller.outcome,
        world.buyer.state,
        world.buyer.abort_reason,
        world.buyer.decrypt_failed,
    )


def test_explore_executes_each_tree_node_once(monkeypatch):
    config = _branchy_v3_config()
    runs = list(enumerate_schedules(lambda: World(config), depth=12))
    prefixes = {schedule[:k] for _, schedule in runs for k in range(1, len(schedule) + 1)}
    calls = Counter()
    terminals = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(World, "step", counting("step", World.step))
    monkeypatch.setattr(World, "__init__", counting("world", World.__init__))
    monkeypatch.setattr(harness, "notarize", counting("notarize", harness.notarize))
    check = harness.fairness_violations
    monkeypatch.setattr(
        harness,
        "fairness_violations",
        lambda world: terminals.append(_terminal(world)) or check(world),
    )
    result = explore(config, depth=12)
    # the terminal states come in the enumerator's order
    assert terminals == [_terminal(world) for world, _ in runs]
    assert result.schedules_explored == 3
    assert calls["step"] == result.nodes_executed == len(prefixes)
    assert calls["world"] == 1
    assert calls["notarize"] == 1


def _world_state(world):
    """Everything a step may change, compared by value."""
    snapshot = world.ledger.snapshot()
    # the ledger's kept lines are exactly a fresh encoding of its log
    assert snapshot["events"] == [event_to_json(e) for e in world.ledger.read_events(0)]
    return (
        snapshot,
        dict(vars(world.seller)),
        dict(vars(world.buyer)),
        world.options(),
        list(world.net.pending),
        {party: list(inbox) for party, inbox in world.net._inboxes.items()},
        list(world.pending_wakes),
        list(world.trace),
        list(world.choices),
    )


def test_checkpoint_step_restore_round_trip_at_every_node():
    config = _branchy_v3_config()
    prefixes = {
        schedule[:k]
        for _, schedule in enumerate_schedules(lambda: World(config), depth=12)
        for k in range(len(schedule))
    }
    for prefix in sorted(prefixes):
        world = World(config)
        for index in prefix:
            world.step(index)
        before = _world_state(world)
        saved = world.checkpoint()
        for index in range(len(world.options())):
            world.step(index)
            _world_state(world)  # encodes the step's events and lists its options
            world.restore(saved)
            assert _world_state(world) == before, (prefix, index)


@pytest.mark.parametrize("variant", ["v1", "v2", "v3"])
def test_each_branch_draws_what_a_fresh_world_draws(monkeypatch, variant):
    # Each branch must end as a fresh world run down its path ends, whatever
    # was explored before it. The garbage witness is a fixed edit and the
    # World hands the buyer its blind when it is built, so no session draws
    # and no branch depends on an earlier draw.
    config = make_config(
        variant,
        price=100,
        buyer_balance=150,
        notary_fee=10 if variant == "v2" else None,
        seed=11,
        seller_policy="claim_wrong_witness",
    )
    terminals = []
    check = harness.fairness_violations
    monkeypatch.setattr(
        harness,
        "fairness_violations",
        lambda world: terminals.append(_terminal(world)) or check(world),
    )
    explore(config, depth=12, chain_factory=AcceptAnyWitnessLedger)
    oracle = enumerate_schedules(lambda: World(config, AcceptAnyWitnessLedger()), 12)
    expected = [_terminal(world) for world, _ in oracle]
    assert terminals == expected
    # the branches end in different logs, so the comparison tells them apart
    assert len({t[1] for t in expected}) > 1


def test_violations_replay_by_index():
    replayed = 0
    for variant in ("v1", "v2", "v3"):
        for buyer_policy in BuyerPolicy:
            config = make_config(
                variant,
                price=60,
                buyer_balance=100,
                seller_policy=SellerPolicy.CLAIM_WRONG_WITNESS,
                buyer_policy=buyer_policy,
                seed=8,
            )
            result = explore(config, depth=12, chain_factory=AcceptAnyWitnessLedger)
            for violation in result.violations:
                world = World(config, AcceptAnyWitnessLedger())
                assert drive(world, violation.choices) == list(violation.choices)
                assert tuple(world.trace) == violation.schedule
                assert (violation.prop, violation.detail) in fairness_violations(world)
                replayed += 1
    assert replayed > 0


def test_drive_rejects_unusable_schedules():
    config = make_config("v1", price=60, buyer_balance=100, seed=42)
    with pytest.raises(ScheduleError):
        drive(World(config), [5])
    with pytest.raises(ScheduleError):
        drive(World(config), [-1])
    with pytest.raises(ScheduleError):
        drive(World(config), [0] * 20)  # outlasts the run


def test_drive_bounds_a_run_that_never_quiesces(monkeypatch, tmp_path, capsys):
    # Every world offers one option forever. The option fails past four
    # times the bound, so a drive without its bound fails instead of hanging.
    # The bound is explore's default depth, with explore's message.
    taken = itertools.count()

    def idle():
        assert next(taken) < 4 * 12, "drive ran past its step bound"

    monkeypatch.setattr(World, "_actions", lambda world: [("idle", idle)])
    world = World(make_config("v1", seed=42))
    with pytest.raises(ScheduleError, match="^a run exceeded the depth bound of 12$"):
        drive(world)
    # The bound is exact: 12 steps ran, and the 13th was refused.
    assert world.choices == [0] * 12
    assert next(taken) == 12
    assert cli.main(["run", "--config", _write_config(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: a run exceeded the depth bound of 12\n"


def test_step_refuses_a_closed_option_naming_its_position():
    # The step itself judges each choice; it used to raise a bare IndexError.
    world = World(make_config("v1", price=60, buyer_balance=100, seed=42))
    world.step(0)
    assert world.options() == ["deliver:contract_ref:buyer->seller", "expire"]
    for index in (9, 2, -1):
        with pytest.raises(ScheduleError) as exc:
            world.step(index)
        assert str(exc.value) == f"choice 1 is {index}, but 2 option(s) are open"
    assert world.trace == ["deliver:offer:seller->buyer"]


# ---------------------------------------------------------------------------
# One form per record: the codec writes every field it reads
# ---------------------------------------------------------------------------

def _reachable_records(tp, seen):
    """Every dataclass a value of type `tp` can hold, through its field types."""
    if dataclasses.is_dataclass(tp):
        if tp not in seen:
            seen.add(tp)
            hints = typing.get_type_hints(tp)
            for f in dataclasses.fields(tp):
                _reachable_records(hints[f.name], seen)
    for arg in typing.get_args(tp):
        _reachable_records(arg, seen)


def test_no_wire_or_log_record_declares_a_default():
    records = set()
    for root in (ProtocolMessage, LedgerEvent, transport.Envelope):
        _reachable_records(root, records)
    assert {Offer, ContractRef, Claimed, transport.Envelope} <= records
    defaulted = sorted(
        f"{cls.__name__}.{f.name}"
        for cls in records
        for f in dataclasses.fields(cls)
        if (f.default, f.default_factory) != (dataclasses.MISSING, dataclasses.MISSING)
    )
    assert defaulted == []


def _assert_one_form(tp, data):
    """`data` holds exactly its record's fields, re-encodes to itself, and
    decodes with none of its keys missing."""
    value = codec.decoder(tp)(data)
    assert codec.encoder(tp)(value) == data
    names = {f.name for f in dataclasses.fields(value)}
    tagged = typing.get_origin(tp) is typing.Union
    assert data.keys() == names | ({codec.TYPE_KEY} if tagged else set()), data
    for key in data:
        with pytest.raises(ValueError):
            codec.decoder(tp)({k: v for k, v in data.items() if k != key})


def test_every_record_a_world_sends_or_logs_has_one_form(monkeypatch):
    sent, logged = {}, {}
    send, append = transport.MailboxEndpoint.send, Ledger._append

    def recording_send(self, to, body):
        envelope = send(self, to, body)
        sent[codec.dumps(body)] = envelope
        return envelope

    def recording_append(self, cls, **fields):
        event = append(self, cls, **fields)
        logged[event_to_json(event)] = event
        return event

    monkeypatch.setattr(transport.MailboxEndpoint, "send", recording_send)
    monkeypatch.setattr(Ledger, "_append", recording_append)
    for config in _grid_configs():
        run_scenario(config)
        explore(config, depth=12)

    # Among them are a v1/v2 reference and a claim, the two records that had defaults.
    assert '"r":null' in "".join(sent) and '"payouts":[' in "".join(logged)
    for envelope in sent.values():
        _assert_one_form(transport.Envelope, codec.encoder(transport.Envelope)(envelope))
        _assert_one_form(ProtocolMessage, envelope.body)
    for event in logged.values():
        _assert_one_form(LedgerEvent, codec.encoder(LedgerEvent)(event))


# ---------------------------------------------------------------------------
# The paper's claims beyond the 60-config grid
# ---------------------------------------------------------------------------

def _explored_terminals(config, monkeypatch):
    """What each terminal `explore` reaches shows of the exchange, as a set:
    step labels, session states, flags, abort reason and the buyer's balance."""
    seen = set()
    check = harness.fairness_violations

    def recording(world):
        report = world.report()
        seen.add(
            (
                tuple(world.trace),
                report.seller_state,
                report.buyer_state,
                report.seller_paid,
                report.buyer_refunded,
                report.buyer_has_plaintext,
                report.abort_reason,
                report.balances["buyer"],
            )
        )
        return check(world)

    with monkeypatch.context() as patched:
        patched.setattr(harness, "fairness_violations", recording)
        assert explore(config, depth=12).violations == []
    return seen


def variants_explore_alike(monkeypatch) -> int:
    """The variant and the group pick the commitment, the lock and the
    witness, not the message flow: in every cell of seller policy x buyer
    policy x balance 150 or 40, v1, v2, v3 and v3 on `modp2048` reach the
    same terminals. Returns the cells."""
    cells = list(itertools.product(SellerPolicy, BuyerPolicy, (150, 40)))
    for seller_policy, buyer_policy, balance in cells:
        reached = [
            _explored_terminals(
                make_config(
                    variant,
                    price=100,
                    buyer_balance=balance,
                    group_name=group_name,
                    seller_policy=seller_policy,
                    buyer_policy=buyer_policy,
                    seed=7,
                ),
                monkeypatch,
            )
            for variant, group_name in (
                ("v1", "test"), ("v2", "test"), ("v3", "test"), ("v3", "modp2048")
            )
        ]
        cell = f"{seller_policy.value} x {buyer_policy.value} at balance {balance}"
        assert reached[0] == reached[1] == reached[2] == reached[3], cell
    return len(cells)


def test_variants_explore_alike(monkeypatch):
    assert variants_explore_alike(monkeypatch) == 40


def _declared_invalid(variant, price, fee, buyer_policy) -> bool:
    """What `make_config` refuses on the boundary grid, as its checks declare."""
    if variant == "v2" and not 0 < fee < price:
        return True
    return buyer_policy is BuyerPolicy.PUBLISH_UNDERPRICED_CONTRACT and price < 2


def parameter_boundaries() -> tuple[int, int, int]:
    """Every variant and policy pair at the edges of price, v2 fee, balance
    and deadline offset, explored at depth 20: no invariant fires, and
    `make_config` refuses exactly the declared-invalid configs, each with
    ConfigError. Returns (configs explored, configs refused, nodes). Run by
    `test_acceptance_8_claims_beyond_the_grid`; about 1.5 s on two cores."""
    explored = refused = nodes = 0
    for price, variant in itertools.product((1, 2, 3, 100), ("v1", "v2", "v3")):
        fees = sorted({1, price // 2, price - 1}) if variant == "v2" else [None]
        balances = sorted({0, price - 1, price, price + 1})
        for fee, balance, offset, seller_policy, buyer_policy in itertools.product(
            fees, balances, (1, 2), SellerPolicy, BuyerPolicy
        ):
            name = f"{variant} price {price} fee {fee} balance {balance} offset {offset}"
            try:
                config = make_config(
                    variant,
                    price=price,
                    buyer_balance=balance,
                    deadline_offset=offset,
                    notary_fee=fee,
                    seller_policy=seller_policy,
                    buyer_policy=buyer_policy,
                    seed=7,
                )
            except ConfigError:
                assert _declared_invalid(variant, price, fee, buyer_policy), name
                refused += 1
                continue
            assert not _declared_invalid(variant, price, fee, buyer_policy), name
            result = explore(config, depth=20)
            assert result.violations == [], f"{name}: {result.violations[:3]}"
            explored += 1
            nodes += result.nodes_executed
    return explored, refused, nodes


SECRET_SEEDS = range(792)


def secrets_net() -> tuple[int, int, int]:
    """Every pair (k, r) of notary exponent and buyer blind on `test` (q = 11),
    each from a seed of its own among `SECRET_SEEDS`, explored under every
    policy pair at balance 150 and 40 on the honest chain: no invariant
    fires, and the honest exchange settles. Acceptance 4 checks x = k*r and
    c = g^x for every pair; this net checks every schedule. Returns (pairs, configs explored, nodes). Run by
    `test_acceptance_8_claims_beyond_the_grid`; about 2 s on two cores."""
    q = TEST_GROUP.q
    seeds: dict[tuple[int, int], int] = {}
    for seed in SECRET_SEEDS:
        world = World(make_config("v3", price=100, buyer_balance=150, seed=seed))
        k = crypto.scalar_from_key(world.seller.package.key, TEST_GROUP).value
        seeds.setdefault((k, world.buyer.blind.value), seed)
    # Every pair, so the seed range cannot silently stop covering one.
    assert sorted(seeds) == [(k, r) for k in range(1, q) for r in range(1, q)]
    # The boundaries: the largest exponent, the largest blind, and the pairs
    # whose claimed x = k*r mod q is 1, so that the lock is c = g.
    boundaries = {
        "k = q-1": {pair for pair in seeds if pair[0] == q - 1},
        "r = q-1": {pair for pair in seeds if pair[1] == q - 1},
        "x = 1": {pair for pair in seeds if pair[0] * pair[1] % q == 1},
    }
    assert {name: len(pairs) for name, pairs in boundaries.items()} == dict.fromkeys(
        boundaries, q - 1
    )
    explored = nodes = 0
    for (k, r), seed in sorted(seeds.items()):
        named = [name for name, pairs in boundaries.items() if (k, r) in pairs]
        for seller_policy, buyer_policy, balance in itertools.product(
            SellerPolicy, BuyerPolicy, (150, 40)
        ):
            config = make_config(
                "v3",
                price=100,
                buyer_balance=balance,
                seller_policy=seller_policy,
                buyer_policy=buyer_policy,
                seed=seed,
            )
            result = explore(config)
            cell = (
                f"k={k} r={r} x={k * r % q} {named} seed {seed}: "
                f"{seller_policy.value} x {buyer_policy.value} at balance {balance}"
            )
            assert result.violations == [], f"{cell}: {result.violations[:3]}"
            explored += 1
            nodes += result.nodes_executed
        # What no invariant sees yet: that the honest exchange trades at all.
        honest = make_config("v3", price=100, buyer_balance=150, seed=seed)
        world = World(honest)
        drive(world)
        assert world.buyer.state == Settled(honest.payload), f"k={k} r={r} seed {seed}"
    return len(seeds), explored, nodes


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(ConfigError):
        make_config("v9")
    with pytest.raises(ConfigError):
        make_config("v1", price=0)
    with pytest.raises(ConfigError):
        make_config("v2", price=100, notary_fee=100)
    with pytest.raises(ConfigError):
        make_config("v2", price=100, notary_fee=0)
    for variant in ("v1", "v2", "v3"):
        with pytest.raises(ConfigError):
            make_config(variant, notary_fee=-1)
    for balance in (-5, 10**4300):
        # Unchecked, a negative balance reaches `Ledger.fund` and raises there.
        with pytest.raises(ConfigError, match="^buyer balance must be between 0 and "):
            make_config("v1", buyer_balance=balance)
    for variant in ("v1", "v3"):
        with pytest.raises(ConfigError, match="only the notary-split variant"):
            make_config(variant, notary_fee=1)
        assert make_config(variant, notary_fee=0).notary_fee == 0
        assert make_config(variant, notary_fee=None).notary_fee == 0
    for variant in ("v1", "v2", "v3"):
        # Outside v3 an unknown group used to pass, and `.group` raised KeyError.
        with pytest.raises(ConfigError, match="unknown group 'nonsense'"):
            make_config(variant, group_name="nonsense")
    with pytest.raises(ConfigError):
        make_config("v1", payload=b"")
    with pytest.raises(ConfigError):
        make_config("v1", deadline_offset=0)
    with pytest.raises(ConfigError):
        make_config("v1", deadline_offset=MAX_DEADLINE_OFFSET + 1)
    assert make_config("v1", deadline_offset=MAX_DEADLINE_OFFSET).deadline_offset == 2**63 - 1
    with pytest.raises(ConfigError):
        make_config("v1", seller_policy="bribe_the_notary")


def test_config_upper_bounds_are_exact():
    # Each maximum is accepted, and one past it is a ConfigError.
    top = 10**4300 - 1
    assert make_config("v1", price=top).price == top
    assert make_config("v1", buyer_balance=top).buyer_balance == top
    for seed in (top, -top):
        assert make_config("v1", seed=seed).seed == seed
    assert len(make_config("v1", payload_size=MAX_PAYLOAD).payload) == MAX_PAYLOAD
    for past in (
        {"price": top + 1},
        {"buyer_balance": top + 1},
        {"seed": top + 1},
        {"seed": -top - 1},
        {"payload_size": MAX_PAYLOAD + 1},
    ):
        with pytest.raises(ConfigError):
            make_config("v1", **past)


def test_payload_bounded_by_the_offer_frame():
    with pytest.raises(ConfigError):
        make_config("v1", payload_size=MAX_PAYLOAD + 1)
    with pytest.raises(ConfigError):
        make_config("v1", payload=bytes(MAX_PAYLOAD + 1))
    # The size is bounded even beside a payload that it does not size.
    with pytest.raises(ConfigError, match="payload size must be between 1 and"):
        make_config("v1", payload=b"\x00", payload_size=-1)
    assert len(make_config("v1", payload=bytes(MAX_PAYLOAD)).payload) == MAX_PAYLOAD


def test_largest_payload_offer_fits_one_frame():
    # Worst case for everything beside the ciphertext: 64-byte ids, the largest
    # modp2048 h2 (q itself) and a price of the 4300 digits a JSON config can hold.
    group = crypto.GROUPS["modp2048"]
    offer = Offer(
        certificate=Certificate(
            h1=bytes(32),
            h2=GroupPower(crypto.GroupElement(group.q, group)),
            seller_id=bytes(64),
            notary_id=bytes(64),
            sigma=bytes(64),
        ),
        ciphertext=crypto.Ciphertext(
            nonce=bytes(crypto.NONCE_LEN), body=bytes(MAX_PAYLOAD + crypto.TAG_LEN)
        ),
        price=10**4299,
    )
    envelope = transport.Envelope(bytes(64), bytes(64), message_to_obj(offer))
    frame = transport.frame_encode(envelope)
    assert len(frame) <= transport.MAX_FRAME + 4
    # The ciphertext travels raw: hexing it again would double its share.
    assert len(frame) <= len(offer.ciphertext.body) + harness._OFFER_FRAME_OVERHEAD


def test_generated_payload_is_pinned():
    # A missing payload is the ChaCha20 keystream under sha256("{seed}/payload").
    def payload(seed, size):
        return make_config("v1", seed=seed, payload_size=size).payload

    pinned = {
        (0, 1): "c337ded6f56c07205fb7b391654d7d463c9e0c726869523ae6024c9bec878878",
        (7, 32): "542d5c94593dadf82cb613ee2f9645f6d18fc3a491ced7bef066b2639a2cc131",
        (1, 1 << 20): "881f3787c965faa3668b39c8571a761fdaad4108ee7389e6ab130a8944df9ad8",
    }
    for (seed, size), digest in pinned.items():
        assert crypto.sha256(payload(seed, size)).hex() == digest
    assert payload(3, 500) == payload(3, 500)
    assert payload(3, 500) != payload(4, 500)
    assert payload(3, 5000)[:500] == payload(3, 500)


def test_config_defaults():
    config = make_config("v2", price=100)
    assert config.notary_fee == 10  # 10% rounded down
    assert config.buyer_balance == 100
    assert len(config.payload) == 32
    assert config.seller_policy is SellerPolicy.HONEST


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"variant": "v1", "bribe": 9000})
    with pytest.raises(ConfigError):
        config_from_dict({"price": 60})  # missing variant
    with pytest.raises(ConfigError):
        config_from_dict({"variant": "v1", "payload_hex": "zz"})


@pytest.mark.parametrize(
    "overrides",
    [
        {"payload_hex": 5},
        {"price": 1.9},
        {"price": True},
        {"buyer_balance": 100.0},
        {"seed": False},
        {"payload_size": 32.5},
        {"variant": 3},
        {"group": ["test"]},
    ],
    ids=str,
)
def test_config_from_dict_rejects_wrongly_typed_values(overrides):
    with pytest.raises(ConfigError):
        config_from_dict({"variant": "v1", **overrides})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
# Near misses: every key a scenario file may hold, with plausible values,
# integers from tiny to past Python's 4300-digit limit, and wrong types.
HUGE_INTS = st.integers(0, 5000).flatmap(
    lambda digits: st.sampled_from([10**digits - 1, 10**digits, -(10**digits)])
)
INT_VALUES = st.integers(-3, 300) | HUGE_INTS | st.sampled_from([2**63 - 1, 2**63])
NEAR_VALUES = INT_VALUES | st.booleans() | st.floats() | JSON_VALUES
CONFIG_NEAR_MISSES = st.fixed_dictionaries(
    {"variant": st.sampled_from(["v1", "v2", "v3", "v9"]) | NEAR_VALUES},
    optional={
        **{key: NEAR_VALUES for key in (
            "price", "buyer_balance", "deadline_offset", "notary_fee", "seed", "payload_size",
        )},
        "group": st.sampled_from(["test", "modp2048", "modp4096"]) | NEAR_VALUES,
        "seller_policy": st.sampled_from([p.value for p in SellerPolicy]) | NEAR_VALUES,
        "buyer_policy": st.sampled_from([p.value for p in BuyerPolicy]) | NEAR_VALUES,
        "payload_hex": st.binary(max_size=8).map(bytes.hex) | NEAR_VALUES,
        "bribe": NEAR_VALUES,
    },
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | CONFIG_NEAR_MISSES)
@example({"variant": "v1", "deadline_offset": 10**4300 - 1})  # its expiry tick did not encode
@example({"variant": "v1", "seed": 10**4300})  # past the digit limit as a string
@example({"variant": "v3", "payload_size": 2**63})
def test_config_from_dict_raises_only_config_error(obj):
    try:
        config = config_from_dict(obj)
    except ConfigError:
        return
    assert isinstance(config, ScenarioConfig)
    assert 1 <= config.deadline_offset <= MAX_DEADLINE_OFFSET


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(["v1", "v2", "v3"]),
    price=INT_VALUES,
    buyer_balance=st.none() | INT_VALUES,
    notary_fee=st.none() | INT_VALUES,
    seed=INT_VALUES,
    buyer_policy=st.sampled_from(BuyerPolicy),
)
@example("v1", 10**4300, 10**4300, None, 0, BuyerPolicy.HONEST)  # their amounts did not encode
@example("v1", 60, None, None, 10**4300, BuyerPolicy.HONEST)  # nor did the seed's rng string
@example("v2", 10**4300 - 1, 10**4300 - 1, 10**4300 - 2, -(10**4300 - 1), BuyerPolicy.HONEST)
# A negative fee made the underpriced contract's amount 0, which the ledger refused.
@example("v1", 1, None, -1, 0, BuyerPolicy.PUBLISH_UNDERPRICED_CONTRACT)
# A v1 fee above the price made the "underpriced" contract 101 for a price of 60.
@example("v1", 60, 200, 100, 0, BuyerPolicy.PUBLISH_UNDERPRICED_CONTRACT)
# The "underpriced" contract was the full price: a price of 1 leaves no
# smaller positive amount, and a v2 fee of price - 1 left only the price.
@example("v1", 1, None, None, 0, BuyerPolicy.PUBLISH_UNDERPRICED_CONTRACT)
@example("v2", 2, None, 1, 0, BuyerPolicy.PUBLISH_UNDERPRICED_CONTRACT)
def test_every_config_make_config_accepts_runs_to_a_report(
    variant, price, buyer_balance, notary_fee, seed, buyer_policy
):
    try:
        config = make_config(
            variant,
            price=price,
            buyer_balance=buyer_balance,
            notary_fee=notary_fee,
            seed=seed,
            buyer_policy=buyer_policy,
            payload=b"x",
        )
    except ConfigError:
        return
    report = run_scenario(config)
    assert report.seed == seed
    if buyer_policy is BuyerPolicy.PUBLISH_UNDERPRICED_CONTRACT:
        assert not report.seller_paid
    for fmt in ("json", "text"):
        assert emit_report(report, fmt)


def test_config_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "variant": "v2",
                "price": 100,
                "buyer_balance": 150,
                "notary_fee": 10,
                "seed": 7,
                "payload_hex": "00ff00ff",
            }
        )
    )
    config = config_from_file(str(path))
    assert config.payload == bytes.fromhex("00ff00ff")
    assert config.notary_fee == 10
    with pytest.raises(ConfigError):
        config_from_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        config_from_file(str(bad))
    bad.write_text("[" * 100_000)  # used to escape as a RecursionError traceback
    with pytest.raises(ConfigError):
        config_from_file(str(bad))


# ---------------------------------------------------------------------------
# Demo and CLI
# ---------------------------------------------------------------------------

# Each demo's output, byte for byte.
DEMO_OUTPUT = {
    "v1": (
        "== v1 exchange (hash lock) ==\n"
        "setup: notary encrypted 32 payload bytes and signed the commitments\n"
        "setup: h1 = a2c3ed2037475148…, h2 = digest 699789e4f629a189…\n"
        "setup: buyer funded with 100 tokens\n"
        "step: seller -> buyer: offer (signature, ciphertext, key commitment); "
        "buyer verifies and escrows the price\n"
        "step: buyer -> seller: escrow contract reference; seller checks terms and claims\n"
        "step: buyer reads the published witness, recovers the key, decrypts\n"
        "result: balances buyer=40  seller=60  notary=0\n"
        "result: buyer decrypted payload matches the original: True\n"
    ),
    "v2": (
        "== v2 exchange (notary-split lock) ==\n"
        "setup: notary encrypted 32 payload bytes and signed the commitments\n"
        "setup: h1 = a2c3ed2037475148…, h2 = digest 4541ed0034829edb…\n"
        "setup: buyer funded with 150 tokens\n"
        "step: seller -> buyer: offer (signature, ciphertext, key commitment); "
        "buyer verifies and escrows the price\n"
        "step: buyer -> seller: escrow contract reference; seller checks terms and claims\n"
        "step: buyer reads the published witness, recovers the key, decrypts\n"
        "result: balances buyer=50  seller=90  notary=10\n"
        "result: buyer decrypted payload matches the original: True\n"
    ),
    "v3": (
        "== v3 exchange (blinded dlog lock) ==\n"
        "setup: notary encrypted 32 payload bytes and signed the commitments\n"
        "setup: h1 = c69c36e0a5996936…, h2 = g^k = 664f2dfc19279272…\n"
        "setup: buyer funded with 100 tokens\n"
        "step: seller -> buyer: offer (signature, ciphertext, key commitment); "
        "buyer verifies and escrows the price\n"
        "step: buyer -> seller: escrow contract reference; seller checks terms and claims\n"
        "step: buyer reads the published witness, recovers the key, decrypts\n"
        "result: balances buyer=40  seller=60  notary=0\n"
        "result: buyer decrypted payload matches the original: True\n"
    ),
}


def _assert_demo_narrates_and_settles(variant, capsys):
    report = demo(variant)
    assert report.buyer_has_plaintext
    assert capsys.readouterr().out == DEMO_OUTPUT[variant]


def test_demo_narrates_and_settles(capsys):
    _assert_demo_narrates_and_settles("v1", capsys)


@pytest.mark.parametrize("variant", ["v2", "v3"])
def test_other_demos_narrate_and_settle(variant, capsys):
    _assert_demo_narrates_and_settles(variant, capsys)


def _write_config(tmp_path, **overrides):
    obj = {"variant": "v1", "price": 60, "buyer_balance": 100, "seed": 3}
    obj.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_run_text_and_json(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert cli.main(["run", "--config", path]) == 0
    assert "seller: claimed" in capsys.readouterr().out
    assert cli.main(["run", "--config", path, "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["seller_paid"] is True


def test_cli_run_writes_event_log(tmp_path, capsys):
    path = _write_config(tmp_path)
    out = tmp_path / "events.jsonl"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert all(json.loads(line)["type"] for line in lines)


def test_cli_seed_override_changes_the_log(tmp_path, capsys):
    path = _write_config(tmp_path)
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    cli.main(["run", "--config", path, "--out", str(out_a), "--seed", "1"])
    cli.main(["run", "--config", path, "--out", str(out_b), "--seed", "2"])
    capsys.readouterr()
    assert out_a.read_bytes() != out_b.read_bytes()


def test_cli_seed_override_builds_the_files_config(tmp_path, capsys, monkeypatch):
    # The override used to replace the seed after the config was built, so a
    # payload drawn from the seed was still drawn from the file's.
    ran = []
    real_run = harness.run_scenario

    def run_scenario(config, *args, **kwargs):
        ran.append(config)
        return real_run(config, *args, **kwargs)

    monkeypatch.setattr(harness, "run_scenario", run_scenario)
    assert cli.main(["run", "--config", _write_config(tmp_path, seed=0), "--seed", "5"]) == 0
    capsys.readouterr()
    expected = config_from_file(_write_config(tmp_path, seed=5))
    assert ran == [expected]
    assert ran[0].payload == expected.payload
    # A file that is not a JSON object is still a config error.
    path = tmp_path / "config.json"
    path.write_text("[1]")
    assert cli.main(["run", "--config", str(path), "--seed", "5"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_defaulted_v2_fee_of_zero_asks_for_a_notary_fee(tmp_path, capsys):
    # A tenth of a price below 10 rounds to 0; the file named no fee, so the
    # error says where the 0 came from instead of blaming a fee it never gave.
    path = _write_config(tmp_path, variant="v2", price=5)
    assert cli.main(["run", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "config error: the default notary fee, price // 10, is 0 for a price of 5; "
        "give a notary_fee that is positive and below the price\n"
    )
    path = _write_config(tmp_path, variant="v2", price=5, notary_fee=1)
    assert cli.main(["run", "--config", path]) == 0
    assert "notary: paid=True" in capsys.readouterr().out


def test_cli_explore_clean(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert cli.main(["explore", "--config", path, "--depth", "12"]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_cli_oversized_payload_exits_2(tmp_path, capsys):
    # The empty payload is the other bound; no check but the config's keeps
    # it from the notary.
    for overrides in (
        {"payload_size": 9_000_000},
        {"payload_hex": ""},
        {"payload_hex": "00", "payload_size": -1},
    ):
        path = _write_config(tmp_path, **overrides)
        assert cli.main(["explore", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path)
    out = tmp_path / "no-such-dir" / "events.jsonl"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert "cannot write the event log" in capsys.readouterr().err


def test_cli_run_replays_a_schedule(tmp_path, capsys):
    path = _write_config(tmp_path, seed=42)
    assert cli.main(["run", "--config", path, "--schedule", "0,1"]) == 0
    assert "buyer:  refunded" in capsys.readouterr().out


@pytest.mark.parametrize("schedule", ["5", "0,-1", "0,0,0,0,0,0,0,0,0,0"])
def test_cli_unusable_schedule_exits_2(tmp_path, capsys, schedule):
    path = _write_config(tmp_path)
    assert cli.main(["run", "--config", path, "--schedule", schedule]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args",
    [["demo", "--protocol", "v1"], ["run"], ["explore"], ["explore", "--json"]],
    ids=["demo", "run", "explore", "explore-json"],
)
def test_cli_closed_stdout_exits_2_without_a_traceback(tmp_path, args, unbuffered):
    # A reader that closes early, as `sedg explore ... | head -0` does.
    if args[0] != "demo":
        args = [*args, "--config", _write_config(tmp_path)]
    src = os.path.dirname(os.path.dirname(sedg.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sedg.cli", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr


def test_cli_malformed_schedule_is_a_usage_error(tmp_path, capsys):
    path = _write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", path, "--schedule", "a,b"])
    assert exc.value.code == 2


def test_cli_depth_below_one_is_a_usage_error(tmp_path, capsys):
    # The parser refuses a bound that allows no choice before anything runs.
    path = _write_config(tmp_path)
    for depth in ("0", "-1", "x"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explore", "--config", path, "--depth", depth])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --depth: " in err
        assert "depth bound" not in err
    # Depth 1 parses, and the run then needs more than one choice.
    assert cli.main(["explore", "--config", path, "--depth", "1"]) == 2
    assert capsys.readouterr().err == "error: a run exceeded the depth bound of 1\n"


def test_cli_explore_json(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert cli.main(["explore", "--config", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    expected = explore(config_from_file(path), depth=12)
    assert report["schedules"] == expected.schedules_explored
    assert report["nodes_executed"] == expected.nodes_executed
    assert report["max_depth"] == expected.max_depth
    assert report["violations"] == []
    assert report["wall_s"] >= 0


def _rigged_explore(monkeypatch):
    rigged = ExplorationResult(schedules_explored=1)
    rigged.violations.append(
        Violation(
            schedule=("deliver:offer:seller->buyer", "expire", "timers"),
            prop="atomicity",
            detail="forced for the test",
            choices=(0, 2, 1),
        )
    )
    monkeypatch.setattr(harness, "explore", lambda config, depth: rigged)


def test_cli_explore_json_line_is_pinned(tmp_path, capsys, monkeypatch):
    _rigged_explore(monkeypatch)
    monkeypatch.setattr(cli.time, "perf_counter", itertools.count(2.0, 0.5).__next__)
    assert cli.main(["explore", "--config", _write_config(tmp_path), "--json"]) == 1
    assert capsys.readouterr().out == (
        '{"schedules":1,"nodes_executed":0,"max_depth":0,"violations":[{"schedule":'
        '["deliver:offer:seller->buyer","expire","timers"],"prop":"atomicity",'
        '"detail":"forced for the test","choices":[0,2,1]}],"wall_s":0.5}\n'
    )


def test_cli_explore_prints_replayable_choices(tmp_path, capsys, monkeypatch):
    _rigged_explore(monkeypatch)
    assert cli.main(["explore", "--config", _write_config(tmp_path)]) == 1
    assert "replay: --schedule 0,2,1" in capsys.readouterr().out
    assert cli.main(["explore", "--config", _write_config(tmp_path), "--json"]) == 1
    (violation,) = json.loads(capsys.readouterr().out)["violations"]
    assert violation["choices"] == [0, 2, 1]
    assert violation["prop"] == "atomicity"


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, notary_fee=60, variant="v2", price=60)
    assert cli.main(["run", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_unknown_group_exits_2_in_every_variant(tmp_path, capsys):
    # A v1 run on an unknown group used to exit 0.
    for variant in ("v1", "v2", "v3"):
        path = _write_config(tmp_path, variant=variant, group="bogus")
        for command in ("run", "explore"):
            assert cli.main([command, "--config", path]) == 2
            assert "unknown group 'bogus'" in capsys.readouterr().err


def test_cli_negative_notary_fee_exits_2(tmp_path, capsys):
    # The underpriced contract's amount used to come out 0, and the ledger's
    # refusal escaped as a traceback with exit 1.
    path = _write_config(
        tmp_path, price=1, notary_fee=-1, buyer_policy="publish_underpriced_contract"
    )
    for command in ("run", "explore"):
        assert cli.main([command, "--config", path]) == 2
        assert "config error" in capsys.readouterr().err


def test_cli_underpriced_contract_below_price_2_exits_2(tmp_path, capsys):
    # No positive amount is below a price of 1.
    path = _write_config(tmp_path, price=1, buyer_policy="publish_underpriced_contract")
    for command in ("run", "explore"):
        assert cli.main([command, "--config", path]) == 2
        assert "price of at least 2" in capsys.readouterr().err


def test_cli_notary_fee_outside_v2_exits_2(tmp_path, capsys):
    # Only v2 pays a notary; a v1 fee used to push the underpriced contract
    # above the price.
    path = _write_config(tmp_path, notary_fee=100, buyer_policy="publish_underpriced_contract")
    for command in ("run", "explore"):
        assert cli.main([command, "--config", path]) == 2
        assert "only the notary-split variant" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides", [{"payload_hex": 5}, {"price": 1.9}, {"price": True}], ids=str
)
def test_cli_wrongly_typed_config_exits_2(tmp_path, capsys, overrides):
    path = _write_config(tmp_path, **overrides)
    assert cli.main(["run", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("payload_hex", ["00FF", "00 ff", " 00ff"])
def test_cli_non_canonical_payload_hex_exits_2(tmp_path, capsys, payload_hex):
    # Bytes are lowercase hex with nothing between the digits, so each
    # payload has one spelling in a scenario file.
    path = _write_config(tmp_path, payload_hex=payload_hex)
    assert cli.main(["run", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [b'{"variant": "v1", "price": 1\xff}', b'{"price": ' + b"9" * 5000 + b"}"],
    ids=["not-utf8", "integer-past-the-digit-limit"],
)
def test_cli_unparsable_config_exits_2(tmp_path, capsys, raw):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    for command in ("run", "explore"):
        assert cli.main([command, "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


def test_cli_oversized_deadline_offset_exits_2(tmp_path, capsys):
    # Its expiry tick, deadline + 1, used to break the event log's JSON
    # encoding with a ValueError traceback and exit 1.
    path = tmp_path / "config.json"
    path.write_text(
        '{"variant":"v1","seller_policy":"withhold_key","deadline_offset":' + "9" * 4300 + "}"
    )
    out = tmp_path / "events.jsonl"
    for argv in (
        ["explore", "--config", str(path)],
        ["run", "--config", str(path), "--out", str(out)],
    ):
        assert cli.main(argv) == 2
        assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_explore_violation_exit_code(tmp_path, capsys, monkeypatch):
    from sedg import harness as harness_module
    from sedg.harness import ExplorationResult, Violation

    path = _write_config(tmp_path)
    rigged = ExplorationResult(schedules_explored=1)
    rigged.violations.append(
        Violation(schedule=("expire",), prop="atomicity", detail="forced for the test")
    )
    monkeypatch.setattr(harness_module, "explore", lambda config, depth: rigged)
    assert cli.main(["explore", "--config", path, "--depth", "5"]) == 1
    out = capsys.readouterr().out
    assert "1 violation(s)" in out
    assert "atomicity" in out


def test_cli_demo(capsys):
    for protocol in ("v1", "v2", "v3"):
        assert cli.main(["demo", "--protocol", protocol]) == 0
    assert "matches the original: True" in capsys.readouterr().out
