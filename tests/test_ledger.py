from __future__ import annotations

import dataclasses
import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

from sedg import crypto
from sedg.crypto import MODP_2048, TEST_GROUP, GroupElement, GroupParams, Scalar
from sedg.ledger import (
    Claimed,
    ContractState,
    DlogLock,
    HashLock,
    InsufficientFunds,
    Ledger,
    LedgerError,
    NotaryHashLock,
    Preimage,
    PreimageWithNotary,
    Exponent,
    Refunded,
    TimeAdvanced,
    UnknownContract,
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
    with pytest.raises(LedgerError, match=r"^funding amount must be positive$"):
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
    with pytest.raises(InsufficientFunds, match=r"^balance 10 < 60$"):
        chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    assert chain.snapshot() == before


@pytest.mark.parametrize("amount", [0, -1])
def test_publish_refuses_an_amount_that_is_not_positive(amount):
    chain = Ledger()
    chain.fund(A, 100)
    before = chain.snapshot()
    with pytest.raises(LedgerError, match=r"^contract amount must be positive$"):
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
    with pytest.raises(LedgerError, match=r"^notary fee must be within the contract amount$"):
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
    with pytest.raises(LedgerError, match=r"^deadline 5 is not after tick 5$"):
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
    with pytest.raises(LedgerError, match=r"^the witness does not satisfy the condition$"):
        chain.check_claim(cid, foreign)
    with pytest.raises(LedgerError, match=r"^the witness does not satisfy the condition$"):
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
    with pytest.raises(LedgerError, match=r"^the witness does not satisfy the condition$"):
        chain.claim(cid, Preimage(b"\x00" * 32))
    assert chain.snapshot() == before


def test_claim_variant_mismatch():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    with pytest.raises(LedgerError, match=r"^Exponent cannot open HashLock$"):
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
    with pytest.raises(LedgerError, match=r"^tick 16 past deadline 15$"):
        chain.claim(cid2, Preimage(KEY))


def test_single_settlement():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    chain.claim(cid, Preimage(KEY))
    with pytest.raises(LedgerError, match=r"^contract 1 is claimed$"):
        chain.claim(cid, Preimage(KEY))
    chain.advance_time(101)
    with pytest.raises(LedgerError, match=r"^contract 1 is claimed$"):
        chain.refund(cid, A)


def test_refund_restores_payer_balance():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=10)
    with pytest.raises(LedgerError, match=r"^tick 0 not past deadline 10$"):
        chain.refund(cid, A)
    chain.advance_time(10)
    # refund requires strictly past the deadline
    with pytest.raises(LedgerError, match=r"^tick 10 not past deadline 10$"):
        chain.refund(cid, A)
    chain.advance_time(1)
    with pytest.raises(LedgerError, match=r"^only the payer may reclaim an expired escrow$"):
        chain.refund(cid, B)
    chain.refund(cid, A)
    assert chain.get_balance(A) == 100
    assert chain.get_contract(cid).state is ContractState.REFUNDED


def test_unknown_contract():
    chain = Ledger()
    with pytest.raises(UnknownContract, match=r"^no contract 99$"):
        chain.claim(99, Preimage(KEY))
    with pytest.raises(UnknownContract, match=r"^no contract 99$"):
        chain.refund(99, A)
    with pytest.raises(UnknownContract, match=r"^no contract 99$"):
        chain.get_contract(99)


def test_advance_time_zero_is_silent():
    chain = Ledger()
    assert chain.advance_time(0) == 0
    assert chain.read_events(0) == []
    with pytest.raises(LedgerError, match=r"^time cannot run backwards$"):
        chain.advance_time(-1)


def test_event_seq_strictly_increasing():
    chain = Ledger()
    chain.fund(A, 100)
    chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    chain.advance_time(3)
    events = chain.read_events(0)
    assert len(events) == 3
    assert [e.seq for e in events] == [0, 1, 2]
    assert type(chain.read_events(2)[0]) is TimeAdvanced


def test_witness_is_public_after_claim():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, _hash_lock(), deadline=100)
    chain.claim(cid, Preimage(KEY))
    published = [e for e in chain.read_events(0) if type(e) is Claimed]
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
        if type(event) in (Claimed, Refunded):
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


def test_a_claim_line_whose_payouts_are_not_a_list_does_not_decode():
    claimed = json.loads(event_to_json(_busy_ledger().read_events(0)[2]))
    assert claimed["type"] == "claimed"
    line = json.dumps({**claimed, "payouts": {}}, separators=(",", ":"))
    with pytest.raises(ValueError, match="^payouts: expected a list"):
        event_from_json(line)
    with pytest.raises(LedgerError, match="^log line 1 cannot be decoded: payouts: expected a list"):
        replay([line])


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
        if not done and obj["type"] == kind:
            obj.update(changes)
            done = True
        out.append(json.dumps(obj, separators=(",", ":")))
    assert done
    return out


def test_replay_rejects_an_edited_claim_payout():
    lines = [event_to_json(e) for e in _busy_ledger().read_events(0)]
    claimed = json.loads(next(line for line in lines if '"type":"claimed"' in line))
    payouts = [{**p, "amount": p["amount"] + 10} for p in claimed["payouts"]]
    with pytest.raises(LedgerError, match=r"^log line 3 diverges from its re-execution$"):
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
    unknown = "condition: unknown keys for a NotaryHashLock: ['notary']"
    with pytest.raises(LedgerError, match=f"^log line 2 cannot be decoded: {re.escape(unknown)}$"):
        replay([funded, old])


def test_replay_rejects_a_claim_with_an_exponent_of_another_group():
    chain = Ledger()
    chain.fund(A, 100)
    cid = chain.publish_contract(A, B, 60, DlogLock(GroupElement(2, TEST_GROUP)), deadline=100)
    claimed = chain.claim(cid, Exponent(Scalar(1, TEST_GROUP)))
    funded, published, _ = [event_to_json(e) for e in chain.read_events(0)]
    forged = event_to_json(dataclasses.replace(claimed, witness=_foreign_exponent(1)))
    assert '"modp2048"' in forged
    with pytest.raises(
        LedgerError,
        match=r"^log line 3 cannot be re-executed: the witness does not satisfy the condition$",
    ):
        replay([funded, published, forged])


def test_replay_rejects_an_edited_funded_tick():
    lines = [event_to_json(e) for e in _busy_ledger().read_events(0)]
    with pytest.raises(LedgerError, match=r"^log line 1 diverges from its re-execution$"):
        replay(_edited(lines, "funded", tick=5))


def test_replay_rejects_a_time_advance_that_does_not_advance():
    lines = [event_to_json(e) for e in _busy_ledger().read_events(0)]
    with pytest.raises(LedgerError, match=r"^log line 9 diverges from its re-execution$"):
        replay(_edited(lines, "time_advanced", tick=0))


UNDECODABLE = "cannot be decoded: "


@pytest.mark.parametrize(
    "line, reason",
    [
        pytest.param(  # used to raise KeyError
            "{}", UNDECODABLE + "expected an object whose type", id="empty-object"
        ),
        pytest.param(  # used to raise TypeError
            "[]", UNDECODABLE + "expected an object", id="array"
        ),
        pytest.param("not json", UNDECODABLE + "Expecting value", id="not-json"),
        pytest.param("[" * 100_000, UNDECODABLE, id="deep-nesting"),
        pytest.param(  # used to raise TypeError from Ledger.fund
            '{"type":"funded","seq":1,"tick":0,"account":"aa","amount":"5"}',
            UNDECODABLE + "amount: expected int, got '5'",
            id="string-amount",
        ),
        pytest.param(
            '{"type":"funded","seq":1,"tick":0,"account":"aa","amount":5.0}',
            UNDECODABLE + "amount: expected int, got 5.0",
            id="float-amount",
        ),
        pytest.param(  # used to decode to amount=None and re-encode without it
            '{"type":"funded","seq":1,"tick":0,"account":"aa","amount":null}',
            UNDECODABLE + "amount: expected int, got None",
            id="null-amount",
        ),
        pytest.param(
            '{"type":"funded","seq":1,"tick":0,"account":"aa"}',
            UNDECODABLE + "a Funded needs 'amount'",
            id="no-amount",
        ),
        pytest.param(
            '{"type":"refunded","seq":1,"tick":0}',
            UNDECODABLE + "a Refunded needs 'contract_id'",
            id="no-contract-id",
        ),
        pytest.param(  # used to decode, and to fail only at the byte comparison
            '{"type":"time_advanced","seq":1,"tick":1,"amount":5}',
            UNDECODABLE + "unknown keys for a TimeAdvanced: ['amount']",
            id="time-advanced-with-amount",
        ),
        pytest.param(  # used to decode as a claim that paid no one
            '{"type":"claimed","seq":1,"tick":0,"contract_id":9,'
            '"witness":{"type":"preimage","x":"00"}}',
            UNDECODABLE + "a Claimed needs 'payouts'",
            id="no-payouts",
        ),
        pytest.param(
            '{"type":"claimed","seq":1,"tick":0,"contract_id":9,'
            '"witness":{"type":"preimage","x":"00"},"payouts":[]}',
            "cannot be re-executed: no contract 9",
            id="unknown-contract",
        ),
    ],
)
def test_replay_names_the_line_it_cannot_use(line, reason):
    first = event_to_json(_busy_ledger().read_events(0)[0])
    with pytest.raises(LedgerError, match="^log line 2 " + re.escape(reason)):
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


# ---------------------------------------------------------------------------
# The chain on its own: a model-based test over every operation
# ---------------------------------------------------------------------------

ACCOUNTS = st.sampled_from((A, B, N))
AMOUNTS = st.integers(-5, 120)
CONTRACT_IDS = st.integers(0, 4)  # 0 and ids past the last contract name none
LOCKS = {
    "hash": _hash_lock(),
    "notary": NotaryHashLock(h2=crypto.sha256(crypto.canonical_encode([KEY, b"notary-1"])), fee=0),
    "dlog": DlogLock(GroupElement(2, TEST_GROUP)),
}
OPENS = {  # the witness that opens each kind of lock; the others in WITNESSES do not
    HashLock: Preimage(KEY),
    NotaryHashLock: PreimageWithNotary(KEY, b"notary-1"),
    DlogLock: Exponent(Scalar(1, TEST_GROUP)),
}
WITNESSES = st.sampled_from(
    [
        *OPENS.values(),
        Preimage(bytes(32)),
        PreimageWithNotary(KEY, b"notary-2"),
        Exponent(Scalar(2, TEST_GROUP)),
        _foreign_exponent(1),
    ]
)
# Sized for tier 1: about 3.5 s on two cores.
LEDGER_MACHINE_SETTINGS = settings(max_examples=80, stateful_step_count=30, deadline=None)


class LedgerMachine(RuleBasedStateMachine):
    """Arbitrary calls, out-of-range arguments included, against one ledger.

    A call the ledger refuses must raise LedgerError and change nothing;
    after every step the chain's own invariants hold and its encoded log
    replays to the same state and the same bytes. Run with
    `LEDGER_MACHINE_SETTINGS` by `test_acceptance_8_claims_beyond_the_grid`.
    """

    contracts = Bundle("contracts")

    def __init__(self) -> None:
        super().__init__()
        self.chain = Ledger()
        self.funded = 0

    def _attempt(self, operation, *args):
        """The operation's result, or None if the ledger refused it and changed nothing."""
        before = self.chain.snapshot()
        try:
            return operation(*args)
        except LedgerError:
            assert self.chain.snapshot() == before
            return None

    @initialize(amounts=st.tuples(*[st.integers(0, 200)] * 3))
    def fund_every_account(self, amounts):
        """Start with money to escrow, so that most runs publish and settle."""
        for account, amount in zip((A, B, N), amounts):
            self.fund(account, amount)

    @rule(account=ACCOUNTS, amount=AMOUNTS)
    def fund(self, account, amount):
        if self._attempt(self.chain.fund, account, amount) is not None:
            self.funded += amount

    @rule(
        target=contracts,
        payer=ACCOUNTS,
        payee=ACCOUNTS,
        amount=AMOUNTS,
        lock=st.sampled_from(sorted(LOCKS)),
        fee=AMOUNTS,
        offset=st.integers(-3, 20),
    )
    def publish_contract(self, payer, payee, amount, lock, fee, offset):
        condition = LOCKS[lock]
        if lock == "notary":
            condition = dataclasses.replace(condition, fee=fee)
        deadline = self.chain.current_tick + offset
        contract_id = self._attempt(
            self.chain.publish_contract, payer, payee, amount, condition, deadline
        )
        return multiple() if contract_id is None else contract_id

    @rule(contract_id=contracts, witness=st.none() | WITNESSES)
    def claim(self, contract_id, witness):
        """A witness of None stands for the one that opens the contract's lock."""
        if witness is None:
            contract = self._attempt(self.chain.get_contract, contract_id)
            witness = OPENS[type(contract.condition)] if contract else Preimage(KEY)
        self._attempt(self.chain.claim, contract_id, witness)

    @rule(contract_id=contracts | CONTRACT_IDS, caller=ACCOUNTS)
    def refund(self, contract_id, caller):
        self._attempt(self.chain.refund, contract_id, caller)

    @rule(ticks=st.integers(-3, 12))
    def advance_time(self, ticks):
        self._attempt(self.chain.advance_time, ticks)

    @invariant()
    def no_balance_is_negative(self):
        assert all(v >= 0 for v in self.chain.snapshot()["balances"].values())

    @invariant()
    def balances_and_open_escrow_are_the_funding(self):
        held = sum(self.chain.snapshot()["balances"].values())
        assert held + sum(c.amount for c in self.chain.open_contracts()) == self.funded

    @invariant()
    def no_contract_is_settled_twice(self):
        settled = [
            e.contract_id for e in self.chain.read_events(0) if type(e) in (Claimed, Refunded)
        ]
        assert len(settled) == len(set(settled))

    @invariant()
    def every_open_contract_holds_a_positive_amount(self):
        assert all(c.amount > 0 for c in self.chain.open_contracts())

    @invariant()
    def replay_rebuilds_the_state_and_the_log(self):
        lines = self.chain.snapshot()["events"]
        rebuilt = replay(lines)
        assert rebuilt.snapshot() == self.chain.snapshot()
        assert [event_to_json(e) for e in rebuilt.read_events(0)] == lines

