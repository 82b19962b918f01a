"""Scenario runner and bounded interleaving explorer.

A World wires one seller, one buyer, and a pre-run notary setup onto a
fresh ledger and an in-process net. The notary's signing key, like its id,
is fixed per process; each world still has its certificate notarized with
that key, and its buyer verifies the certificate against its registry.
The world holds its parties by id, each a role name, session and endpoint.
It routes by id: a delivered message goes to the recipient's `on_message`,
which picks its own handler, and each reply goes back to the sender. The
world alone calls the ledger: it hands a session the facts it reads (the
tick, and the contract a reference names), makes the chain requests the
session returns, and hands each answer back in the same step. At most one
message is in flight: the offer, then the buyer's one reply. The world
owns what no party controls. Everything that can race is a scheduling
option: message deliveries, the buyer's ledger wake-up, timer firings, and
the placement of expiry itself, which stays open while some open
contract's deadline has not passed on the chain's clock, and moves the
clock just past the earliest such deadline. A pending wake is what the
world found to wake the buyer: a claim event on a contract the buyer paid
into (`notify:buyer`, for `on_claim`), or None (`timers`, which calls both
parties' `on_timer`; the ledger decides whether the buyer's refund is due).
The default schedule always picks the first option (FIFO delivery, expiry
last); `drive` replays any other schedule given as option indices, and
`World.step` raises ScheduleError for a choice that names no open option.
The world records the path it took, each step's label in `trace` and its
option index in `choices`, and `restore` cuts both back; `drive` and
`explore` read that one record, and refuse a run past `DEPTH` choices, or
past the depth `explore` is given. Of a session the world reads only its
constants and its `state` record, which names the `status` the report
prints.

`explore` checks every ordering up to a depth bound and evaluates the
fairness invariants at every terminal state, in one pass over the event
log. It builds one world, walks the schedule tree depth-first, and
checkpoints the world at each branch point to restore it before the next
alternative, so every tree node executes once and the notary certifies
once per exploration. Checkpoints are shallow: ledger records are
immutable, a session's checkpoint is its frozen state record, the ledger
keeps the log's encoded lines, and the net's is its pending list alone,
as a step receives what it delivers and no inbox holds an envelope
between steps. A world builds its action list once per node and drops
it on every step and restore.
"""
from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from . import cert, codec, crypto, protocol, transport
from .cert import Variant, notarize
from .crypto import GROUPS, SigningKeyPair
from .ledger import (
    ChainRequest,
    Claim,
    Claimed,
    ContractPublished,
    Funded,
    Ledger,
    LedgerError,
    LedgerEvent,
    Publish,
    Refund,
    Refunded,
    write_event_log,
)
from .protocol import (
    Aborted,
    BuyerPolicy,
    BuyerSession,
    ContractRef,
    Output,
    ProtocolMessage,
    ScenarioReport,
    SellerPolicy,
    SellerSession,
    Settled,
    Terms,
)

# The most scheduling choices one run may take; a single-buyer run takes at most 4.
DEPTH = 12

# The offer carries the ciphertext raw, as an attachment, in one frame.
# This bounds everything else in that frame: envelope, ids, signature, a
# 2048-bit h2 in decimal, and a price of up to the 4300 digits a JSON config
# can hold. The payload bound is still the one that fitted the ciphertext as
# hex, half the frame, so every config keeps its outcome.
_OFFER_FRAME_OVERHEAD = 64 * 1024
MAX_PAYLOAD = (transport.MAX_FRAME - _OFFER_FRAME_OVERHEAD) // 2 - crypto.TAG_LEN

# Ticks stay far below the digits an int may have in the event log's JSON
# (at least 640 under any interpreter setting), so the expiry tick,
# deadline + 1, always encodes.
MAX_DEADLINE_OFFSET = 2**63 - 1

# Price, balance, fee and seed have at most the 4300 digits a JSON config
# can hold (CPython's default `int_max_str_digits`). No amount the ledger
# derives exceeds the price or the balance, so every one encodes in the
# event log, and the seed encodes in each rng stream's seed string.
MAX_CONFIG_INT = 10**4300 - 1

NOTARY_ID = b"notary-1"
SELLER_ID = b"seller-1"
BUYER_ID = b"buyer-1"

# The notary is one long-lived, registered party, so its key is derived
# once, at import, not per world.
NOTARY_KEYS = SigningKeyPair.from_seed(
    crypto.sha256(crypto.canonical_encode([b"sedg-notary-key", NOTARY_ID]))
)


class ConfigError(Exception):
    pass


class ScheduleError(Exception):
    """A schedule names an option that is not open or outlasts its run, or a
    run outlasts its step or depth bound."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig(Terms):
    """The terms both parties hold, and what only the world knows: the
    buyer's funds, how each party plays, the seed and the payload."""

    buyer_balance: int
    seller_policy: SellerPolicy
    buyer_policy: BuyerPolicy
    seed: int
    payload: bytes


def make_config(
    variant: Variant | str,
    *,
    price: int = 60,
    buyer_balance: int | None = None,
    deadline_offset: int = 100,
    notary_fee: int | None = None,
    group_name: str = "test",
    seller_policy: SellerPolicy | str = SellerPolicy.HONEST,
    buyer_policy: BuyerPolicy | str = BuyerPolicy.HONEST,
    seed: int = 0,
    payload: bytes | None = None,
    payload_size: int = 32,
) -> ScenarioConfig:
    """Build and validate a scenario configuration.

    A missing payload is the first `payload_size` bytes of the ChaCha20
    keystream under `sha256("<seed>/payload")`, so equal seeds give equal
    payloads and a shorter one is a prefix of a longer one. The notary fee
    defaults to 10% of the price (rounded down) for the notary-split
    variant, and the other variants take none.
    """
    try:  # an enum's constructor returns a member unchanged and looks a value up
        variant = Variant(variant)
        seller_policy = SellerPolicy(seller_policy)
        buyer_policy = BuyerPolicy(buyer_policy)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if not 1 <= price <= MAX_CONFIG_INT:
        raise ConfigError("price must be between 1 and 10^4300 - 1 tokens")
    if buyer_balance is None:
        buyer_balance = price
    if not 0 <= buyer_balance <= MAX_CONFIG_INT:
        raise ConfigError("buyer balance must be between 0 and 10^4300 - 1 tokens")
    if abs(seed) > MAX_CONFIG_INT:
        raise ConfigError("seed must have at most 4300 digits")
    if not 1 <= deadline_offset <= MAX_DEADLINE_OFFSET:
        raise ConfigError(
            f"deadline offset must be between 1 and {MAX_DEADLINE_OFFSET} ticks"
        )
    if notary_fee is None:
        notary_fee = price // 10 if variant is Variant.V2 else 0
        if variant is Variant.V2 and not notary_fee:
            raise ConfigError(
                f"the default notary fee, price // 10, is 0 for a price of {price}; "
                "give a notary_fee that is positive and below the price"
            )
    if variant is Variant.V2 and not 0 < notary_fee < price:
        raise ConfigError("the notary fee must be positive and below the price")
    if variant is not Variant.V2 and notary_fee:
        raise ConfigError("only the notary-split variant v2 has a notary fee")
    if buyer_policy is BuyerPolicy.PUBLISH_UNDERPRICED_CONTRACT and price < 2:
        raise ConfigError("an underpriced contract needs a price of at least 2 tokens")
    if group_name not in GROUPS:
        raise ConfigError(f"unknown group {group_name!r}; known: {sorted(GROUPS)}")
    if not 1 <= payload_size <= MAX_PAYLOAD:
        raise ConfigError(f"payload size must be between 1 and {MAX_PAYLOAD} bytes")
    if payload is None:
        payload = crypto.keystream(crypto.sha256(f"{seed}/payload".encode()), payload_size)
    if not 1 <= len(payload) <= MAX_PAYLOAD:
        raise ConfigError(f"payload must hold between 1 and {MAX_PAYLOAD} bytes")

    return ScenarioConfig(
        variant=variant,
        price=price,
        buyer_balance=buyer_balance,
        deadline_offset=deadline_offset,
        notary_fee=notary_fee,
        group=GROUPS[group_name],
        seller_policy=seller_policy,
        buyer_policy=buyer_policy,
        seed=seed,
        payload=payload,
    )


@dataclass(frozen=True)
class ScenarioFile:
    """The keys a scenario JSON file may hold: `make_config`'s arguments.

    `codec` decodes it, so unknown keys, a float or bool where an integer
    belongs, and bad hex are rejected as on the wire.
    """

    variant: str
    price: int = 60
    buyer_balance: int | None = None
    deadline_offset: int = 100
    notary_fee: int | None = None
    group: str = "test"
    seller_policy: str = "honest"
    buyer_policy: str = "honest"
    seed: int = 0
    payload_hex: bytes | None = None
    payload_size: int = 32


def config_from_dict(obj: object, seed: int | None = None) -> ScenarioConfig:
    """Build a scenario file's config; a given `seed` replaces the file's."""
    try:
        kwargs = dataclasses.asdict(codec.decoder(ScenarioFile)(obj))
        kwargs["group_name"] = kwargs.pop("group")
        kwargs["payload"] = kwargs.pop("payload_hex")
        if seed is not None:
            kwargs["seed"] = seed
        return make_config(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_from_file(path: str, seed: int | None = None) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    # ValueError covers bad JSON, bytes that are not UTF-8, and integers past
    # Python's digit limit; too deep is not valid either.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(obj, seed)


def _rng(seed: int, role: str) -> random.Random:
    # The world draws for the parties, one stream per role: the notary's key and
    # nonce, the buyer's v3 blind. String seeding keeps each stable across platforms.
    return random.Random(f"{seed}/{role}")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def emit_report(report: ScenarioReport, fmt: str = "json") -> bytes:
    """Render a report with a stable field order, as JSON or plain text."""
    if fmt == "json":
        return codec.dumps(dataclasses.asdict(report)).encode("utf-8")
    if fmt == "text":
        lines = [
            f"scenario: {report.variant}  seed={report.seed}  price={report.price}",
            f"seller: {report.seller_state}  paid={report.seller_paid}",
            (
                f"buyer:  {report.buyer_state}  plaintext={report.buyer_has_plaintext}"
                f"  refunded={report.buyer_refunded}"
            ),
            f"notary: paid={report.notary_paid}",
            "balances: "
            + "  ".join(f"{k}={report.balances[k]}" for k in ("buyer", "seller", "notary")),
            f"events: {report.event_count}",
        ]
        if report.abort_reason:
            lines.insert(4, f"abort reason: {report.abort_reason}")
        if report.buyer_decrypt_failed:
            lines.insert(4, "warning: buyer paid but could not decrypt")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# The simulated world
# ---------------------------------------------------------------------------

@dataclass
class _LogFacts:
    """Facts about one run's event log, gathered by `World._read_log`."""

    event_count: int = 0
    funded: int = 0
    buyer_contracts: list[int] = field(default_factory=list)  # contracts the buyer paid into
    # (contract id, amount credited to the seller), one per claim paying the seller
    seller_claims: list[tuple[int, int]] = field(default_factory=list)
    settlements: dict[int, int] = field(default_factory=dict)  # claims plus refunds per id
    seller_paid: bool = False
    notary_paid: bool = False
    buyer_refunded: bool = False


class Party(NamedTuple):
    """A party the World routes messages to, by its id."""

    role: str
    session: BuyerSession | SellerSession
    endpoint: transport.MailboxEndpoint


def make_request(chain: Ledger, request: ChainRequest) -> LedgerEvent | LedgerError:
    """Make a session's chain request by the `Ledger` call it names, and return
    the answer: the event the call appended, or the LedgerError it refused
    the request with. No other code catches a refusal."""
    seen = chain.event_count
    try:
        if type(request) is Publish:
            chain.publish_contract(
                request.payer, request.payee, request.amount, request.condition, request.deadline
            )
        elif type(request) is Claim:
            chain.claim(request.contract_id, request.witness)
        else:
            chain.refund(request.contract_id, request.caller)
    except LedgerError as exc:
        return exc
    (event,) = chain.read_events(seen)
    return event


class World:
    """One scenario instance: ledger, net, parties, and the pending-event set."""

    def __init__(self, config: ScenarioConfig, chain: Ledger | None = None) -> None:
        self.config = config
        self.ledger = chain if chain is not None else Ledger()

        terms = Terms(
            config.variant, config.price, config.notary_fee, config.deadline_offset, config.group
        )
        blind = None
        if config.variant is Variant.V3:
            blind = crypto.draw_scalar(_rng(config.seed, "buyer"), config.group)
        self.seller = SellerSession(
            package=notarize(
                NOTARY_KEYS,
                NOTARY_ID,
                config.payload,
                SELLER_ID,
                config.variant,
                _rng(config.seed, "notary"),
                group=config.group,
            ),
            terms=terms,
            policy=config.seller_policy,
        )
        self.buyer = BuyerSession(
            terms=terms,
            party_id=BUYER_ID,
            seller=SELLER_ID,
            trusted_notaries={NOTARY_ID: NOTARY_KEYS.public},
            policy=config.buyer_policy,
            blind=blind,
        )
        if config.buyer_balance:  # the ledger funds positive amounts only
            self.ledger.fund(self.buyer.party_id, config.buyer_balance)

        self.net = transport.InProcessNet()
        self.parties = {
            SELLER_ID: Party("seller", self.seller, self.net.endpoint(SELLER_ID)),
            BUYER_ID: Party("buyer", self.buyer, self.net.endpoint(BUYER_ID)),
        }
        # The claim event of a notify:buyer wake, or None for timers.
        self.pending_wakes: list[Claimed | None] = []
        self.trace: list[str] = []
        self.choices: list[int] = []
        self._action_cache: list[tuple[str, Callable[[], None]]] | None = None

        offer = protocol.message_to_obj(self.seller.start())
        self.parties[SELLER_ID].endpoint.send(BUYER_ID, offer)

    # -- scheduling surface -------------------------------------------------

    def options(self) -> list[str]:
        return [label for label, _ in self._open_actions()]

    def step(self, index: int) -> None:
        actions = self._open_actions()
        if not 0 <= index < len(actions):
            raise ScheduleError(
                f"choice {len(self.trace)} is {index}, but {len(actions)} option(s) are open"
            )
        label, action = actions[index]
        self._action_cache = None
        seen = self.ledger.event_count
        action()
        self.trace.append(label)
        self.choices.append(index)
        self._scan_chain(seen)

    def checkpoint(self) -> tuple:
        """Capture everything a step can change, layer by layer."""
        return (
            self.ledger.checkpoint(),
            list(self.net.pending),
            self.seller.state,
            self.buyer.state,
            list(self.pending_wakes),
            len(self.trace),
        )

    def restore(self, saved: tuple) -> None:
        """Return to a checkpoint; one checkpoint can be restored many times."""
        chain, pending, self.seller.state, self.buyer.state, wakes, trace_len = saved
        self.ledger.restore(chain)
        self.net.pending = list(pending)
        self.pending_wakes = list(wakes)
        del self.trace[trace_len:]
        del self.choices[trace_len:]
        self._action_cache = None

    def _open_actions(self) -> list[tuple[str, Callable[[], None]]]:
        """The actions open at this node, built once until a step or restore."""
        if self._action_cache is None:
            self._action_cache = self._actions()
        return self._action_cache

    def _actions(self) -> list[tuple[str, Callable[[], None]]]:
        actions: list[tuple[str, Callable[[], None]]] = []
        for i, env in enumerate(self.net.pending):
            label = (
                f"deliver:{env.body['type']}:"
                f"{self.parties[env.sender].role}->{self.parties[env.recipient].role}"
            )
            actions.append((label, lambda i=i: self._deliver(i)))
        for j, claim in enumerate(self.pending_wakes):
            label = "timers" if claim is None else "notify:buyer"
            actions.append((label, lambda j=j: self._fire_wake(j)))
        if any(c.deadline >= self.ledger.current_tick for c in self.ledger.open_contracts()):
            actions.append(("expire", self._expire))
        return actions

    # -- action execution ---------------------------------------------------

    def _deliver(self, index: int) -> None:
        """Hand the envelope to its recipient and send each reply back to the sender."""
        envelope = self.net.deliver(index)
        party = self.parties[envelope.recipient]
        message = protocol.message_from_obj(party.endpoint.recv().body)
        contract = None
        if type(message) is ContractRef:
            contract = self.ledger.find_contract(message.contract_id)
        outputs = party.session.on_message(message, self.ledger.current_tick, contract)
        for reply in self._apply(party.session, outputs):
            party.endpoint.send(envelope.sender, protocol.message_to_obj(reply))

    def _fire_wake(self, index: int) -> None:
        claim = self.pending_wakes.pop(index)
        if claim is not None:
            self.buyer.on_claim(claim)
        else:
            self._apply(self.buyer, self.buyer.on_timer())
            self.seller.on_timer()

    def _apply(
        self, session: BuyerSession | SellerSession, outputs: list[Output]
    ) -> list[ProtocolMessage]:
        """Make the session's chain requests in order, handing each answer back
        in the same step. Returns the messages to send: the session's own and
        those its answers produced."""
        messages: list[ProtocolMessage] = []
        for output in outputs:
            if type(output) in (Publish, Claim, Refund):
                answer = make_request(self.ledger, output)
                messages += self._apply(session, session.on_answer(answer))
            else:
                messages.append(output)
        return messages

    def _expire(self) -> None:
        tick = self.ledger.current_tick
        target = min(c.deadline for c in self.ledger.open_contracts() if c.deadline >= tick) + 1
        self.ledger.advance_time(target - tick)
        self.pending_wakes.append(None)

    def _scan_chain(self, seen: int) -> None:
        """Queue a buyer wake for each claim on its contracts past the first `seen` events."""
        for event in self.ledger.read_events(seen):
            if type(event) is Claimed:
                if self.ledger.get_contract(event.contract_id).payer == self.buyer.party_id:
                    self.pending_wakes.append(event)

    # -- reporting ------------------------------------------------------------

    def _read_log(self) -> _LogFacts:
        """Gather what the report and the invariants read, in one pass over the log."""
        facts = _LogFacts()
        events = self.ledger.read_events(0)
        facts.event_count = len(events)
        for e in events:
            kind = type(e)
            if kind is Funded:
                facts.funded += e.amount
            elif kind is ContractPublished:
                if e.payer == self.buyer.party_id:
                    facts.buyer_contracts.append(e.contract_id)
            elif kind is Refunded:
                facts.settlements[e.contract_id] = facts.settlements.get(e.contract_id, 0) + 1
                if e.contract_id in facts.buyer_contracts:
                    facts.buyer_refunded = True
            elif kind is Claimed:
                facts.settlements[e.contract_id] = facts.settlements.get(e.contract_id, 0) + 1
                to_seller = [p.amount for p in e.payouts if p.to == self.seller.party_id]
                if to_seller:
                    facts.seller_claims.append((e.contract_id, sum(to_seller)))
                    facts.seller_paid = facts.seller_paid or any(to_seller)
                for p in e.payouts:
                    if p.to == NOTARY_ID:
                        facts.notary_paid = facts.notary_paid or p.amount > 0
        return facts

    def report(self, log_path: str | None = None) -> ScenarioReport:
        facts = self._read_log()
        return ScenarioReport(
            variant=self.config.variant.value,
            seed=self.config.seed,
            seller_state=self.seller.state.status,
            buyer_state=self.buyer.state.status,
            buyer_has_plaintext=isinstance(self.buyer.state, Settled),
            seller_paid=facts.seller_paid,
            notary_paid=facts.notary_paid,
            buyer_refunded=facts.buyer_refunded,
            buyer_decrypt_failed=self.buyer.decrypt_failed,
            abort_reason=(
                self.buyer.abort_reason.value if self.buyer.abort_reason else None
            ),
            balances={
                "buyer": self.ledger.get_balance(self.buyer.party_id),
                "seller": self.ledger.get_balance(self.seller.party_id),
                "notary": self.ledger.get_balance(NOTARY_ID),
            },
            price=self.config.price,
            event_count=facts.event_count,
            event_log_path=log_path,
        )


# ---------------------------------------------------------------------------
# Driving and exploring
# ---------------------------------------------------------------------------

def drive(world: World, schedule: Sequence[int] = ()) -> list[int]:
    """Run to quiescence, following the schedule then always choosing 0.

    The schedule, like the `DEPTH` bound, counts from the world's first
    step; returns every choice the world took. Raises ScheduleError if the
    schedule picks an option that is not open (`World.step` judges each
    choice) or has choices left when the run ends, and if the run takes
    `DEPTH` choices without ending.
    """
    while True:
        taken = len(world.choices)
        if not world.options():
            if taken < len(schedule):
                raise ScheduleError(
                    f"the run ended after {taken} of the schedule's "
                    f"{len(schedule)} choices"
                )
            return list(world.choices)
        if taken >= DEPTH:
            raise ScheduleError(f"a run exceeded the depth bound of {DEPTH}")
        world.step(schedule[taken] if taken < len(schedule) else 0)


def run_scenario(
    config: ScenarioConfig,
    schedule: Sequence[int] = (),
    log_path: str | None = None,
) -> ScenarioReport:
    """Run one scenario to quiescence; deterministic given the config's seed."""
    world = World(config)
    drive(world, schedule)
    if log_path is not None:
        write_event_log(world.ledger.read_events(0), log_path)
    return world.report(log_path)


@dataclass(frozen=True)
class Violation:
    """A broken invariant and the schedule that reached it.

    `schedule` holds the step labels; `choices` holds the option indices,
    which `drive` (and `sedg run --schedule`) replays.
    """

    schedule: tuple[str, ...]
    prop: str
    detail: str
    choices: tuple[int, ...] = ()


@dataclass
class ExplorationResult:
    schedules_explored: int
    violations: list[Violation] = field(default_factory=list)
    max_depth: int = 0
    nodes_executed: int = 0


def fairness_violations(world: World) -> list[tuple[str, str]]:
    """Evaluate the exchange invariants at one terminal state.

    One pass over the event log gathers every fact the invariants read.
    """
    config = world.config
    facts = world._read_log()
    seller_paid, notary_paid = facts.seller_paid, facts.notary_paid
    out: list[tuple[str, str]] = []
    has_plaintext = isinstance(world.buyer.state, Settled)
    if has_plaintext != seller_paid:
        out.append(
            ("atomicity", f"buyer_has_plaintext={has_plaintext} but seller_paid={seller_paid}")
        )
    if config.variant is Variant.V2 and notary_paid != seller_paid:
        out.append(("notary-split", f"notary_paid={notary_paid} but seller_paid={seller_paid}"))

    if config.buyer_policy is BuyerPolicy.HONEST:
        balance = world.ledger.get_balance(world.buyer.party_id)
        expected = config.buyer_balance - config.price if has_plaintext else config.buyer_balance
        if balance != expected:
            detail = f"buyer balance {balance}, expected {expected} (plaintext={has_plaintext})"
            out.append(("honest-buyer-no-loss", detail))

    if config.seller_policy is SellerPolicy.HONEST:
        due = config.price - config.notary_fee
        for cid, credited in facts.seller_claims:
            if credited < due:
                detail = f"seller claimed contract {cid} crediting it {credited} != {due}"
                out.append(("honest-seller-no-loss", detail))

    if isinstance(world.buyer.state, Aborted) and facts.buyer_contracts:
        detail = f"aborted buyer published {len(facts.buyer_contracts)} contract(s)"
        out.append(("abort-before-pay", detail))

    total = sum(world.ledger.snapshot()["balances"].values())
    total += sum(c.amount for c in world.ledger.open_contracts())
    if total != facts.funded:
        out.append(("conservation", f"balances+escrow {total} != funded {facts.funded}"))

    for cid, count in facts.settlements.items():
        if count > 1:
            out.append(("single-settlement", f"contract {cid} settled {count} times"))

    return out


def explore(
    config: ScenarioConfig,
    depth: int = DEPTH,
    chain_factory: Callable[[], Ledger] | None = None,
) -> ExplorationResult:
    """Exhaustively explore delivery orderings and expiry placement.

    Builds one world and walks the schedule tree depth-first: the first
    option first, then, at the deepest open branch point, its highest
    remaining alternative. At every position with more than one option it
    takes a checkpoint, and restores it before each alternative, so every
    tree node executes exactly once. Returns every invariant
    violation with the schedule that produced it; an empty violation list
    means every terminal state was fair. Raises ScheduleError if any run
    needs more than `depth` choices.
    """
    world = World(config, chain_factory() if chain_factory else None)
    result = ExplorationResult(schedules_explored=0)
    # One entry per branch point on the current path, deepest last:
    # (its checkpoint, the alternatives still to run).
    branches: list[tuple[tuple, list[int]]] = []
    while True:
        count = len(world.options())
        if count:
            if len(world.choices) >= depth:
                raise ScheduleError(f"a run exceeded the depth bound of {depth}")
            if count > 1:
                branches.append((world.checkpoint(), list(range(1, count))))
            index = 0
        else:
            result.schedules_explored += 1
            result.max_depth = max(result.max_depth, len(world.choices))
            for prop, detail in fairness_violations(world):
                result.violations.append(
                    Violation(tuple(world.trace), prop, detail, tuple(world.choices))
                )
            if not branches:
                return result
            saved, alternatives = branches[-1]
            index = alternatives.pop()  # highest first, as the enumerator's stack pops
            if not alternatives:
                branches.pop()
            world.restore(saved)
        world.step(index)
        result.nodes_executed += 1


# ---------------------------------------------------------------------------
# Built-in demo walkthrough
# ---------------------------------------------------------------------------

_DEMO_NARRATIVE = {
    "deliver:offer:seller->buyer": (
        "seller -> buyer: offer (signature, ciphertext, key commitment); "
        "buyer verifies and escrows the price"
    ),
    "deliver:contract_ref:buyer->seller": (
        "buyer -> seller: escrow contract reference; seller checks terms and claims"
    ),
    "notify:buyer": "buyer reads the published witness, recovers the key, decrypts",
    "timers": "timers fire: refund if still open, mark the exchange lapsed",
    "expire": "deadline passes",
}


def demo_config(variant: Variant | str) -> ScenarioConfig:
    """The built-in happy-path configuration used by `sedg demo`."""
    variant = Variant(variant)
    if variant is Variant.V2:
        return make_config(variant, price=100, buyer_balance=150, notary_fee=10, seed=7)
    if variant is Variant.V3:
        return make_config(variant, price=60, buyer_balance=100, group_name="modp2048", seed=7)
    return make_config(variant, price=60, buyer_balance=100, seed=7)


def demo(variant: Variant | str, printer: Callable[[str], None] = print) -> ScenarioReport:
    """Happy-path walkthrough of one variant, narrating each step."""
    variant = Variant(variant)
    config = demo_config(variant)

    names = {Variant.V1: "hash lock", Variant.V2: "notary-split lock", Variant.V3: "blinded dlog lock"}
    printer(f"== {variant.value} exchange ({names[variant]}) ==")
    printer(
        f"setup: notary encrypted {len(config.payload)} payload bytes "
        "and signed the commitments"
    )

    world = World(config)
    certificate = world.seller.package.certificate
    h2_kind = "g^k =" if certificate.group else "digest"
    printer(
        f"setup: h1 = {certificate.h1.hex()[:16]}…, "
        f"h2 = {h2_kind} {cert.encode_commitment(certificate.h2).hex()[:16]}…"
    )
    printer(f"setup: buyer funded with {config.buyer_balance} tokens")

    drive(world)
    for label in world.trace:
        printer(f"step: {_DEMO_NARRATIVE.get(label, label)}")
    report = world.report()
    printer(
        "result: balances "
        + "  ".join(f"{k}={v}" for k, v in report.balances.items())
    )
    printer(
        f"result: buyer decrypted payload matches the original: "
        f"{world.buyer.state == Settled(config.payload)}"
    )
    return report
