from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sedg import crypto
from sedg.crypto import MODP_2048, TEST_GROUP, GroupElement, GroupParams, Scalar
from sedg.ledger import (
    AlreadySettled,
    ContractState,
    DlogLock,
    EventKind,
    Expired,
    HashLock,
    InsufficientFunds,
    Ledger,
    LedgerError,
    NotaryHashLock,
    NotExpired,
    NotPayer,
    PastDeadline,
    Preimage,
    PreimageWithNotary,
    Exponent,
    UnknownContract,
    VariantMismatch,
    WrongWitness,
    address_for,
    event_from_json,
    event_to_json,
    replay,
)

A = address_for(b"payer")
B = address_for(b"payee")
N = address_for(b"notary-1")

KEY = random.Random(0).randbytes(32)


def _hash_lock():
    return HashLock(h2=crypto.sha256(KEY))


def test_fund_basics():
    chain = Ledger()
    assert chain.fund(A, 100) == 100
    assert chain.get_balance(A) == 100
    with pytest.raises(LedgerError):
        chain.fund(A, 0)
    chain.fund(A, 50)
    chain.fund(A, 50)
    assert chain.get_balance(A) == 200


def test_get_balance_unknown_address_is_zero():
    assert Ledger().get_balance(address_for(b"nobody")) == 0


def test_publish_moves_funds_into_escrow():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    assert chain.get_balance(A) == 40
    contract = chain.get_contract(cid)
    assert contract.amount == 60
    assert contract.state is ContractState.OPEN


def test_publish_insufficient_funds_is_a_no_op():
    chain = Ledger()
    chain.fund(A, 10)
    before = chain.snapshot()
    with pytest.raises(InsufficientFunds):
        chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    assert chain.snapshot() == before


@pytest.mark.parametrize("amount", [0, -1])
def test_publish_refuses_an_amount_that_is_not_positive(amount):
    chain = Ledger()
    chain.fund(A, 100)
    before = chain.snapshot()
    with pytest.raises(LedgerError, match="contract amount must be positive"):
        chain.publish_contract(A, B, amount, _hash_lock(), deadline=100)
    assert chain.snapshot() == before
    assert chain.get_balance(A) == 100


def _split_lock(fee):
    return NotaryHashLock(h2=crypto.sha256(crypto.canonical_encode([KEY, b"notary-1"])), fee=fee)


@pytest.mark.parametrize("fee", [-1, 61])
def test_publish_refuses_a_notary_fee_outside_the_amount(fee):
    chain = Ledger()
    chain.fund(A, 100)
    before = chain.snapshot()
    with pytest.raises(LedgerError, match="notary fee must be within the contract amount"):
        chain.publish_contract(A, B, 60, _split_lock(fee), deadline=100)
    assert chain.snapshot() == before


def test_publish_accepts_a_notary_fee_of_the_whole_amount():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _split_lock(60), deadline=100)
    assert chain.get_contract(cid).condition.fee == 60
    assert chain.get_balance(A) == 40


def test_publish_deadline_boundary():
    chain = Ledger()
    chain.fund(A, 100)
    chain.advance_time(5)
    with pytest.raises(PastDeadline):
        chain.publish_contract(A, B, 60, _hash_lock(), deadline=5)


def test_claim_hash_lock():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    event = chain.claim(cid, Preimage(KEY))
    assert chain.get_balance(B) == 60
    assert chain.get_contract(cid).state is ContractState.CLAIMED
    assert event.witness == Preimage(KEY)
    assert [(p.to, p.amount) for p in event.payouts] == [(B, 60)]


def test_a_contract_read_before_settlement_is_unchanged_by_it():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=10)
    read, opens = chain.get_contract(cid), chain.open_contracts()
    saved = chain.checkpoint()
    chain.claim(cid, Preimage(KEY))
    assert chain.get_contract(cid).state is ContractState.CLAIMED
    chain.restore(saved)
    chain.advance_time(11)
    chain.refund(cid, A)
    assert chain.get_contract(cid).state is ContractState.REFUNDED
    assert read.state is ContractState.OPEN and opens == [read]
    chain.restore(saved)
    assert chain.get_contract(cid) == read
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.state = ContractState.CLAIMED


def test_claim_notary_split_is_one_atomic_event():
    condition = NotaryHashLock(
        h2=crypto.sha256(crypto.canonical_encode([KEY, b"notary-1"])), fee=10
    )
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 100, condition, deadline=100)
    event = chain.claim(cid, PreimageWithNotary(KEY, b"notary-1"))
    assert chain.get_balance(B) == 90
    assert chain.get_balance(N) == 10
    assert sum(p.amount for p in event.payouts) == 100
    assert len(event.payouts) == 2


def test_notary_split_pays_the_fee_to_the_notary_the_witness_names():
    # h2 binds the notary, so a lock over notary-2 pays notary-2, whatever
    # the payer might have wished.
    condition = NotaryHashLock(h2=crypto.sha256(crypto.canonical_encode([KEY, b"notary-2"])), fee=7)
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 100, condition, deadline=100)
    event = chain.claim(cid, PreimageWithNotary(KEY, b"notary-2"))
    notary_2 = address_for(b"notary-2")
    assert [(p.to, p.amount) for p in event.payouts] == [(B, 93), (notary_2, 7)]
    assert chain.get_balance(notary_2) == 7
    assert chain.get_balance(N) == 0


def test_claim_dlog_lock():
    # h2 = g^3 = 8 blinded with r = 4 gives c = 8^4 mod 23 = 2; the witness
    # x = 3*4 mod 11 = 1 satisfies g^1 = 2.
    c = GroupElement(2, TEST_GROUP)
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, DlogLock(c=c), deadline=100)
    chain.claim(cid, Exponent(Scalar(1, TEST_GROUP)))
    assert chain.get_balance(B) == 60


def _foreign_exponent(x: int) -> Exponent:
    """An exponent of the 2048-bit group congruent to x mod the test group's q."""
    m = random.Random(15).getrandbits(2000)
    return Exponent(Scalar(x + TEST_GROUP.q * m, MODP_2048))


def test_dlog_lock_rejects_a_congruent_exponent_of_another_group(monkeypatch):
    # g^1 = 2 on the test group, and the foreign exponent is 1 mod 11: a chain
    # that reduced it into the lock's group would pay it.
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, DlogLock(GroupElement(2, TEST_GROUP)), deadline=100)
    powers = []
    power = GroupParams._generator_power

    def counting_power(group, exponent):
        powers.append(exponent)
        return power(group, exponent)

    monkeypatch.setattr(GroupParams, "_generator_power", counting_power)
    before = chain.snapshot()
    foreign = _foreign_exponent(1)
    with pytest.raises(WrongWitness):
        chain.check_claim(cid, foreign)
    with pytest.raises(WrongWitness):
        chain.claim(cid, foreign)
    assert powers == []  # the group is compared before any power
    assert chain.snapshot() == before
    chain.claim(cid, Exponent(Scalar(1, TEST_GROUP)))
    assert chain.get_balance(B) == 60


def test_claim_wrong_witness_is_a_no_op():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    before = chain.snapshot()
    with pytest.raises(WrongWitness):
        chain.claim(cid, Preimage(b"\x00" * 32))
    assert chain.snapshot() == before


def test_claim_variant_mismatch():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    with pytest.raises(VariantMismatch):
        chain.claim(cid, Exponent(Scalar(1, TEST_GROUP)))


def test_claim_respects_deadline_boundary():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=10)
    chain.advance_time(10)  # exactly at the deadline: still claimable
    chain.claim(cid, Preimage(KEY))
    assert chain.get_balance(B) == 60

    cid2 = chain.publish_contract(A, B, 40, _hash_lock(), deadline=15)
    chain.advance_time(6)
    with pytest.raises(Expired):
        chain.claim(cid2, Preimage(KEY))


def test_single_settlement():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    chain.claim(cid, Preimage(KEY))
    with pytest.raises(AlreadySettled):
        chain.claim(cid, Preimage(KEY))
    chain.advance_time(101)
    with pytest.raises(AlreadySettled):
        chain.refund(cid, A)


def test_refund_restores_payer_balance():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=10)
    with pytest.raises(NotExpired):
        chain.refund(cid, A)
    chain.advance_time(10)
    with pytest.raises(NotExpired):  # refund requires strictly past the deadline
        chain.refund(cid, A)
    chain.advance_time(1)
    with pytest.raises(NotPayer):
        chain.refund(cid, B)
    chain.refund(cid, A)
    assert chain.get_balance(A) == 100
    assert chain.get_contract(cid).state is ContractState.REFUNDED


def test_unknown_contract():
    chain = Ledger()
    with pytest.raises(UnknownContract):
        chain.claim(99, Preimage(KEY))
    with pytest.raises(UnknownContract):
        chain.refund(99, A)
    with pytest.raises(UnknownContract):
        chain.get_contract(99)


def test_advance_time_zero_is_silent():
    chain = Ledger()
    assert chain.advance_time(0) == 0
    assert chain.read_events(0) == []
    with pytest.raises(LedgerError):
        chain.advance_time(-1)


def test_event_seq_strictly_increasing():
    chain = Ledger()
    chain.fund(A, 100)
    chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    chain.advance_time(3)
    events = chain.read_events(0)
    assert len(events) == 3
    assert [e.seq for e in events] == [0, 1, 2]
    assert chain.read_events(2)[0].kind is EventKind.TIME_ADVANCED


def test_witness_is_public_after_claim():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    chain.claim(cid, Preimage(KEY))
    published = [e for e in chain.read_events(0) if e.kind is EventKind.CLAIMED]
    assert published[0].witness.x == KEY


# ---------------------------------------------------------------------------
# Conservation and single settlement over random operation sequences
# ---------------------------------------------------------------------------

def run_random_ops(seed: int, ops: int = 20) -> None:
    """Drive a ledger with random operations, checking invariants after each.

    Conservation: balances plus open escrow always equal the amount funded.
    Single settlement: no contract is ever settled twice.
    """
    rng = random.Random(seed)
    chain = Ledger()
    accounts = [address_for(b"acct-%d" % i) for i in range(4)]
    funded = 0

    for _ in range(ops):
        op = rng.randrange(6)
        try:
            if op == 0:
                amount = rng.randrange(-5, 200)
                chain.fund(rng.choice(accounts), amount)
                funded += amount  # only reached when fund succeeded
            elif op == 1:
                chain.publish_contract(
                    rng.choice(accounts),
                    rng.choice(accounts),
                    rng.randrange(1, 150),
                    _hash_lock(),
                    deadline=chain.current_tick + rng.randrange(-2, 20),
                )
            elif op == 2:
                cid = rng.randrange(1, 8)
                witness = Preimage(KEY if rng.random() < 0.6 else bytes(32))
                chain.claim(cid, witness)
            elif op == 3:
                cid = rng.randrange(1, 8)
                chain.refund(cid, rng.choice(accounts))
            elif op == 4:
                chain.advance_time(rng.randrange(0, 15))
            else:
                cid = rng.randrange(1, 8)
                chain.claim(cid, Exponent(Scalar(1, TEST_GROUP)))
        except LedgerError:
            pass

        total = sum(chain.get_balance(a) for a in accounts)
        escrow = sum(c.amount for c in chain.open_contracts())
        assert total + escrow == funded, f"conservation broken at seed {seed}"

    # single-settlement, checked once over the whole log
    counts: dict[int, int] = {}
    for event in chain.read_events(0):
        if event.kind in (EventKind.CLAIMED, EventKind.REFUNDED):
            counts[event.contract_id] = counts.get(event.contract_id, 0) + 1
    assert all(v == 1 for v in counts.values())


def test_conservation_over_random_sequences():
    for seed in range(200):
        run_random_ops(seed)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=10_000, max_value=10_999))
def test_conservation_property(seed):
    run_random_ops(seed, ops=15)


# ---------------------------------------------------------------------------
# Event log serialization and replay
# ---------------------------------------------------------------------------

def _busy_ledger() -> Ledger:
    chain = Ledger()
    chain.fund(A, 300)
    c1 = chain.publish_contract(A, B, 60, _hash_lock(), deadline=50)
    chain.claim(c1, Preimage(KEY))
    split = NotaryHashLock(h2=crypto.sha256(crypto.canonical_encode([KEY, b"notary-1"])), fee=5)
    c2 = chain.publish_contract(A, B, 50, split, deadline=60)
    chain.claim(c2, PreimageWithNotary(KEY, b"notary-1"))
    c3 = chain.publish_contract(A, B, 40, DlogLock(GroupElement(2, TEST_GROUP)), deadline=70)
    chain.claim(c3, Exponent(Scalar(1, TEST_GROUP)))
    c4 = chain.publish_contract(A, B, 30, _hash_lock(), deadline=80)
    chain.advance_time(81)
    chain.refund(c4, A)
    return chain


def test_event_json_round_trip_every_kind():
    chain = _busy_ledger()
    for event in chain.read_events(0):
        line = event_to_json(event)
        assert event_from_json(line) == event


def test_replay_reconstructs_state_and_log_bytes():
    chain = _busy_ledger()
    lines = [event_to_json(e) for e in chain.read_events(0)]
    rebuilt = replay(lines)
    assert rebuilt.snapshot() == chain.snapshot()
    assert [event_to_json(e) for e in rebuilt.read_events(0)] == lines


def _edited(lines, kind, **changes):
    """The log with the first event of this kind rewritten, still canonical JSON."""
    out, done = [], False
    for line in lines:
        obj = json.loads(line)
        if not done and obj["kind"] == kind:
            obj.update(changes)
            done = True
        out.append(json.dumps(obj, separators=(",", ":")))
    assert done
    return out


def test_replay_rejects_an_edited_claim_payout():
    lines = [event_to_json(e) for e in _busy_ledger().read_events(0)]
    claimed = json.loads(next(line for line in lines if '"kind":"claimed"' in line))
    payouts = [{**p, "amount": p["amount"] + 10} for p in claimed["payouts"]]
    with pytest.raises(LedgerError, match="line 3"):
        replay(_edited(lines, "claimed", payouts=payouts))


def test_replay_rejects_a_lock_that_names_its_notary():
    # The log format before the lock lost its `notary` field: replaying such
    # a log fails at the first lock that still carries one.
    chain = Ledger()
    chain.fund(A, 100)
    lock = NotaryHashLock(h2=crypto.sha256(crypto.canonical_encode([KEY, b"notary-1"])), fee=5)
    chain.publish_contract(A, B, 50, lock, deadline=60)
    funded, published = [event_to_json(e) for e in chain.read_events(0)]
    old = published.replace(',"fee":5', f',"notary":"{N.hex()}","fee":5')
    assert old != published
    with pytest.raises(LedgerError, match="line 2 .*unknown keys"):
        replay([funded, old])


def test_replay_rejects_a_claim_with_an_exponent_of_another_group():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, DlogLock(GroupElement(2, TEST_GROUP)), deadline=100)
    claimed = chain.claim(cid, Exponent(Scalar(1, TEST_GROUP)))
    funded, published, _ = [event_to_json(e) for e in chain.read_events(0)]
    forged = event_to_json(dataclasses.replace(claimed, witness=_foreign_exponent(1)))
    assert '"modp2048"' in forged
    with pytest.raises(LedgerError, match="line 3 cannot be re-executed"):
        replay([funded, published, forged])


def test_replay_rejects_an_edited_funded_tick():
    lines = [event_to_json(e) for e in _busy_ledger().read_events(0)]
    with pytest.raises(LedgerError, match="line 1"):
        replay(_edited(lines, "funded", tick=5))


def test_replay_rejects_a_time_advance_that_does_not_advance():
    lines = [event_to_json(e) for e in _busy_ledger().read_events(0)]
    with pytest.raises(LedgerError, match="line 9"):
        replay(_edited(lines, "time_advanced", tick=0))


@pytest.mark.parametrize(
    "line",
    [
        pytest.param("{}", id="empty-object"),  # used to raise KeyError
        pytest.param("[]", id="array"),  # used to raise TypeError
        pytest.param("not json", id="not-json"),
        pytest.param("[" * 100_000, id="deep-nesting"),
        pytest.param(  # used to raise TypeError from Ledger.fund
            '{"seq":1,"tick":0,"kind":"funded","account":"aa","amount":"5"}', id="string-amount"
        ),
        pytest.param(
            '{"seq":1,"tick":0,"kind":"funded","account":"aa","amount":5.0}', id="float-amount"
        ),
        pytest.param('{"seq":1,"tick":0,"kind":"funded","account":"aa"}', id="no-amount"),
        pytest.param('{"seq":1,"tick":0,"kind":"refunded"}', id="no-contract-id"),
        pytest.param(
            '{"seq":1,"tick":0,"kind":"claimed","contract_id":9,'
            '"witness":{"type":"preimage","x":"00"}}',
            id="unknown-contract",
        ),
    ],
)
def test_replay_names_the_line_it_cannot_use(line):
    first = event_to_json(_busy_ledger().read_events(0)[0])
    with pytest.raises(LedgerError, match="line 2"):
        replay([first, line])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _edited_logs(draw):
    """A valid log prefix, then one line that is junk or an edited event."""
    lines = [event_to_json(e) for e in _busy_ledger().read_events(0)]
    cut = draw(st.integers(0, len(lines) - 1))
    obj = json.loads(lines[cut])
    edit = draw(st.sampled_from(["junk", "replace", "delete"]))
    if edit == "junk":
        return lines[:cut] + [draw(st.text(max_size=40))]
    key = draw(st.sampled_from(sorted(obj) + ["nonce", "group"]))
    if edit == "replace":
        obj[key] = draw(JSON_VALUES)
    else:
        obj.pop(key, None)
    return lines[:cut] + [json.dumps(obj, separators=(",", ":"))]


@settings(max_examples=200, deadline=None)
@given(_edited_logs())
@example(["{}"])
@example(["[]"])
def test_replay_raises_only_ledger_error(lines):
    try:
        replay(lines)
    except LedgerError:
        pass
