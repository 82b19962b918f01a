"""Simulated blockchain: token accounts, conditional escrow, public event log.

A single serialized state machine. Every operation either completes
atomically or raises and leaves no trace. The append-only event log is what
"on-chain" means here: all parties can read it, including published
witnesses. Time is a logical tick counter advanced explicitly. A dlog
lock opens only to an exponent of its own group: a scalar of another group
that happens to be congruent is a wrong witness.

Every refusal is a `LedgerError` whose message names the rule it breaks;
none has a class of its own. Sessions never call the ledger: they return
requests (`Publish`, `Claim`, `Refund`), each one operation's arguments,
and the harness makes the call and hands back the event or the refusal.
The claim rule is `claim_refusal`, a pure function of contract, witness
and tick, so a seller judges a claim by the rule the chain applies.

The log is written as JSON lines, one event per line, in the format `codec`
derives from `LedgerEvent`: a union of one record per kind of event, each
holding `seq`, `tick` and exactly its own fields, none with a default. A
line names its kind in `"type"` and decodes only with all of that kind's
fields, each of its type, so `replay`, which rebuilds a ledger from such a
log, re-executes each line from the record alone and verifies it against
its re-execution. The ledger keeps each line once `snapshot` has encoded
it, so a snapshot encodes only the events appended since the previous one.

Records are immutable: a contract's state change stores a replaced
`EscrowContract`, so reads hand out the stored records and a checkpoint
copies the dicts that hold them, never the records.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, ClassVar, Iterable, Union

from . import codec, crypto
from .crypto import GroupElement, GroupParams, Scalar


class LedgerError(Exception):
    pass


# ---------------------------------------------------------------------------
# Conditions and witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preimage:
    x: bytes


@dataclass(frozen=True)
class PreimageWithNotary:
    x: bytes
    notary_id: bytes


@dataclass(frozen=True)
class Exponent:
    x: Scalar


Witness = Union[Preimage, PreimageWithNotary, Exponent]


# Each condition names the one witness type that can open it, and `opens`,
# the claim predicate, is called only with a witness of that type.
@dataclass(frozen=True)
class HashLock:
    """Pay the payee on any x with sha256(x) = h2."""

    witness_type: ClassVar[type] = Preimage
    h2: bytes

    def opens(self, witness: Preimage) -> bool:
        return crypto.sha256(witness.x) == self.h2


@dataclass(frozen=True)
class NotaryHashLock:
    """Pay payee and notary together on (x, n) with sha256(encode([x, n])) = h2.

    The fee goes to the notary's account `n`: h2 binds it, so no field names it.
    """

    witness_type: ClassVar[type] = PreimageWithNotary
    h2: bytes
    fee: int

    def opens(self, witness: PreimageWithNotary) -> bool:
        return crypto.sha256(crypto.canonical_encode([witness.x, witness.notary_id])) == self.h2


@dataclass(frozen=True)
class DlogLock:
    """Pay the payee on any exponent x of c's group with g^x = c.

    c is stored pre-blinded by the payer; the chain never sees the
    certificate's own commitment.
    """

    witness_type: ClassVar[type] = Exponent
    c: GroupElement

    @property
    def group(self) -> GroupParams:
        return self.c.params

    def opens(self, witness: Exponent) -> bool:
        # The group is compared first, so a witness from another group costs no power.
        return witness.x.params == self.group and crypto.power_of_g(witness.x) == self.c


Condition = Union[HashLock, NotaryHashLock, DlogLock]


# ---------------------------------------------------------------------------
# Contracts and events
# ---------------------------------------------------------------------------

class ContractState(Enum):
    OPEN = "open"
    CLAIMED = "claimed"
    REFUNDED = "refunded"


@dataclass(frozen=True)
class EscrowContract:
    id: int
    payer: bytes
    payee: bytes
    amount: int
    condition: Condition
    deadline: int
    state: ContractState = ContractState.OPEN


@dataclass(frozen=True)
class Payout:
    to: bytes
    amount: int


@dataclass(frozen=True)
class _Event:
    """Where a log entry stands: its position in the log and the tick it was written at."""

    seq: int
    tick: int


@dataclass(frozen=True)
class Funded(_Event):
    account: bytes
    amount: int


@dataclass(frozen=True)
class ContractPublished(_Event):
    contract_id: int
    amount: int
    payer: bytes
    payee: bytes
    deadline: int
    condition: Condition


@dataclass(frozen=True)
class Claimed(_Event):
    contract_id: int
    witness: Witness
    payouts: tuple[Payout, ...]


@dataclass(frozen=True)
class Refunded(_Event):
    contract_id: int


@dataclass(frozen=True)
class TimeAdvanced(_Event):
    """Logical time moved forward to `tick`."""


# One public log entry: each kind holds exactly the fields it is written with.
LedgerEvent = Union[Funded, ContractPublished, Claimed, Refunded, TimeAdvanced]


# ---------------------------------------------------------------------------
# Requests: one operation and its arguments, as a party asks it of the chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Publish:
    """`Ledger.publish_contract`'s arguments; answered with `ContractPublished`."""

    payer: bytes
    payee: bytes
    amount: int
    condition: Condition
    deadline: int


@dataclass(frozen=True)
class Claim:
    """`Ledger.claim`'s arguments; answered with `Claimed`."""

    contract_id: int
    witness: Witness


@dataclass(frozen=True)
class Refund:
    """`Ledger.refund`'s arguments; answered with `Refunded`."""

    contract_id: int
    caller: bytes


ChainRequest = Union[Publish, Claim, Refund]


def claim_payouts(contract: EscrowContract, witness: Witness) -> tuple[Payout, ...]:
    """Who a claim on the contract with this witness credits, and how much.

    A witness of another variant opens nothing, so it credits no one.
    """
    condition = contract.condition
    if type(witness) is not condition.witness_type:
        return ()
    if isinstance(condition, NotaryHashLock):
        return (
            Payout(to=contract.payee, amount=contract.amount - condition.fee),
            Payout(to=witness.notary_id, amount=condition.fee),
        )
    return (Payout(to=contract.payee, amount=contract.amount),)


def claim_refusal(
    contract: EscrowContract,
    witness: Witness,
    tick: int,
    holds: Callable[[Condition, Witness], bool] = lambda c, w: c.opens(w),
) -> str | None:
    """The claim rule: why a claim with `witness` on `contract` at `tick` fails,
    or None if it settles.

    `holds` tests the condition; `Ledger.claim` passes its own, the seam a
    faulty chain overrides.
    """
    if contract.state is not ContractState.OPEN:
        return f"contract {contract.id} is {contract.state.value}"
    if tick > contract.deadline:
        return f"tick {tick} past deadline {contract.deadline}"
    condition = contract.condition
    if type(witness) is not condition.witness_type:
        return f"{type(witness).__name__} cannot open {type(condition).__name__}"
    if not holds(condition, witness):
        return "the witness does not satisfy the condition"
    return None


# ---------------------------------------------------------------------------
# The ledger itself
# ---------------------------------------------------------------------------

class Ledger:
    """Single-writer account/escrow state machine with an append-only log."""

    def __init__(self) -> None:
        self._balances: dict[bytes, int] = {}
        self._contracts: dict[int, EscrowContract] = {}
        self._events: list[LedgerEvent] = []
        self._lines: list[str] = []  # event_to_json of the first len(_lines) events
        self._tick = 0

    @property
    def current_tick(self) -> int:
        return self._tick

    @property
    def event_count(self) -> int:
        """The log's length, the seq of the next event; costs no `read_events` copy."""
        return len(self._events)

    def get_balance(self, account: bytes) -> int:
        return self._balances.get(account, 0)

    def find_contract(self, contract_id: int) -> EscrowContract | None:
        return self._contracts.get(contract_id)

    def get_contract(self, contract_id: int) -> EscrowContract:
        contract = self._contracts.get(contract_id)
        if contract is None:
            raise LedgerError(f"no contract {contract_id}")
        return contract

    def open_contracts(self) -> list[EscrowContract]:
        return [c for c in self._contracts.values() if c.state is ContractState.OPEN]

    def read_events(self, from_seq: int = 0) -> list[LedgerEvent]:
        return self._events[from_seq:]

    def fund(self, account: bytes, amount: int) -> int:
        """Credit an account from outside the system; returns the new balance."""
        if amount <= 0:
            raise LedgerError("funding amount must be positive")
        self._balances[account] = self.get_balance(account) + amount
        self._append(Funded, account=account, amount=amount)
        return self._balances[account]

    def publish_contract(
        self,
        payer: bytes,
        payee: bytes,
        amount: int,
        condition: Condition,
        deadline: int,
    ) -> int:
        """Escrow `amount` from the payer under a claim condition."""
        if amount <= 0:
            raise LedgerError("contract amount must be positive")
        if isinstance(condition, NotaryHashLock) and not 0 <= condition.fee <= amount:
            raise LedgerError("notary fee must be within the contract amount")
        if deadline <= self._tick:
            raise LedgerError(f"deadline {deadline} is not after tick {self._tick}")
        if self.get_balance(payer) < amount:
            raise LedgerError(f"balance {self.get_balance(payer)} < {amount}")

        contract_id = len(self._contracts) + 1  # contracts are never removed
        self._balances[payer] -= amount
        self._contracts[contract_id] = EscrowContract(
            id=contract_id,
            payer=payer,
            payee=payee,
            amount=amount,
            condition=condition,
            deadline=deadline,
        )
        self._append(
            ContractPublished,
            contract_id=contract_id,
            amount=amount,
            payer=payer,
            payee=payee,
            deadline=deadline,
            condition=condition,
        )
        return contract_id

    def claim(self, contract_id: int, witness: Witness) -> Claimed:
        """Settle a contract by exhibiting a witness `claim_refusal` accepts.

        The witness becomes public in the settlement event; for the
        notary-split variant, the payee and the notary the witness names are
        credited in the same atomic settlement.
        """
        contract = self.get_contract(contract_id)
        refusal = claim_refusal(contract, witness, self._tick, self._condition_holds)
        if refusal is not None:
            raise LedgerError(refusal)
        payouts = claim_payouts(contract, witness)
        self._contracts[contract_id] = replace(contract, state=ContractState.CLAIMED)
        for payout in payouts:
            self._balances[payout.to] = self.get_balance(payout.to) + payout.amount
        return self._append(Claimed, contract_id=contract_id, witness=witness, payouts=payouts)

    def refund(self, contract_id: int, caller: bytes) -> Refunded:
        """Return an expired contract's escrow to the payer."""
        contract = self.get_contract(contract_id)
        self._ensure_open(contract)
        if self._tick <= contract.deadline:
            raise LedgerError(f"tick {self._tick} not past deadline {contract.deadline}")
        if caller != contract.payer:
            raise LedgerError("only the payer may reclaim an expired escrow")

        self._contracts[contract_id] = replace(contract, state=ContractState.REFUNDED)
        self._balances[contract.payer] = self.get_balance(contract.payer) + contract.amount
        return self._append(Refunded, contract_id=contract_id)

    def advance_time(self, ticks: int) -> int:
        """Move logical time forward; a zero advance is a silent no-op."""
        if ticks < 0:
            raise LedgerError("time cannot run backwards")
        if ticks == 0:
            return self._tick
        self._tick += ticks
        self._append(TimeAdvanced)
        return self._tick

    # Seams kept narrow on purpose: test fixtures override these to model a
    # faulty chain and prove the violation detector actually fires. A claim
    # tests its condition through the first, and a refund its contract
    # through the second.
    def _condition_holds(self, condition: Condition, witness: Witness) -> bool:
        return condition.opens(witness)

    def _ensure_open(self, contract: EscrowContract) -> None:
        if contract.state is not ContractState.OPEN:
            raise LedgerError(f"contract {contract.id} is {contract.state.value}")

    def _append(self, record: type, **fields) -> LedgerEvent:
        event = record(seq=len(self._events), tick=self._tick, **fields)
        self._events.append(event)
        return event

    def snapshot(self) -> dict:
        """Full-state view used for replay and no-op equality checks."""
        self._lines.extend(event_to_json(e) for e in self._events[len(self._lines):])
        return {
            "tick": self._tick,
            "next_contract_id": len(self._contracts) + 1,
            "balances": {k.hex(): v for k, v in sorted(self._balances.items())},
            "contracts": {
                cid: (c.payer, c.payee, c.amount, c.condition, c.deadline, c.state)
                for cid, c in sorted(self._contracts.items())
            },
            "events": list(self._lines),
        }

    def checkpoint(self) -> tuple:
        """Capture the mutable state for a later `restore`.

        The log and its encoded lines are append-only, so the log's length
        stands for both. Contracts are immutable, so copying the dict that
        holds them is enough.
        """
        return (
            dict(self._balances),
            dict(self._contracts),
            len(self._events),
            self._tick,
        )

    def restore(self, saved: tuple) -> None:
        balances, contracts, event_count, self._tick = saved
        self._balances = dict(balances)
        self._contracts = dict(contracts)
        del self._events[event_count:]
        del self._lines[event_count:]


# ---------------------------------------------------------------------------
# JSON-lines event log and replay
# ---------------------------------------------------------------------------

def event_to_json(event: LedgerEvent) -> str:
    return codec.dumps(_encode_event(event))


def event_from_json(line: str) -> LedgerEvent:
    """Decode one log line; raises ValueError on anything malformed."""
    return _decode_event(json.loads(line))


_encode_event = codec.encoder(LedgerEvent)
_decode_event = codec.decoder(LedgerEvent)


def replay(lines: Iterable[str]) -> Ledger:
    """Rebuild a ledger by re-executing a serialized event log, and verify it.

    Each line must be exactly the event its re-execution appends, so an
    edited payout, tick or id raises LedgerError at the first divergent line
    and the rebuilt log is byte-identical to the input. A line that does not
    decode (a missing, mistyped or foreign field included) or cannot be
    re-executed raises LedgerError naming its number too.
    """
    ledger = Ledger()
    for number, line in enumerate(lines, 1):
        logged = line.rstrip("\n")
        try:
            event = event_from_json(logged)
        except (ValueError, RecursionError) as exc:
            raise LedgerError(f"log line {number} cannot be decoded: {exc}") from exc
        before = ledger.event_count
        kind = type(event)
        try:
            if kind is Funded:
                ledger.fund(event.account, event.amount)
            elif kind is TimeAdvanced:
                ledger.advance_time(event.tick - ledger.current_tick)
            elif kind is ContractPublished:
                ledger.publish_contract(
                    payer=event.payer,
                    payee=event.payee,
                    amount=event.amount,
                    condition=event.condition,
                    deadline=event.deadline,
                )
            elif kind is Claimed:
                ledger.claim(event.contract_id, event.witness)
            else:
                payer = ledger.get_contract(event.contract_id).payer
                ledger.refund(event.contract_id, payer)
        except LedgerError as exc:
            raise LedgerError(f"log line {number} cannot be re-executed: {exc}") from exc
        produced = [event_to_json(e) for e in ledger.read_events(before)]
        if produced != [logged]:
            raise LedgerError(f"log line {number} diverges from its re-execution")
    return ledger


def write_event_log(events: Iterable[LedgerEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(event_to_json(event))
            fh.write("\n")
