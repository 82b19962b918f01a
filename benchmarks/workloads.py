"""The benchmark's four workloads and the per-op correctness gate.

Every workload is a fixed list of ops (one *pass*) built from a seed. The
program under test only ever sees the generated configs. Each workload's mix
is stratified: every variant and policy pair appears equally often, and
payload sizes take one draw from each of equal log-scale strata. Two seeds
therefore give workloads of the same shape, and the metrics of different
seeds can be compared.
"""
from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "sedg" / "__init__.py").is_file():
    raise ImportError(f"no sedg sources under {SRC}: run from a checkout of the repository")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from sedg.harness import (  # noqa: E402
    ExplorationResult,
    ScenarioConfig,
    explore,
    make_config,
    run_scenario,
)
from sedg.ledger import Ledger  # noqa: E402
from sedg.protocol import BuyerPolicy, ScenarioReport, SellerPolicy  # noqa: E402

WORKLOADS = ("exchange_small", "exchange_bulk", "exchange_modp2048", "explore_grid")

VARIANTS = ("v1", "v2", "v3")
SELLER_POLICIES = tuple(p.value for p in SellerPolicy)
BUYER_POLICIES = tuple(p.value for p in BuyerPolicy)
POLICY_PAIRS = tuple(itertools.product(SELLER_POLICIES, BUYER_POLICIES))

PRICE = 100
BUYER_BALANCE = 150
NOTARY_FEE = 10  # v2 only
EXPLORE_DEPTH = 12

KIB = 1024
MIB = 1024 * KIB

# Ops per pass. Few distinct ops repeated many times give each op many
# chances at a quiet spell of the machine, while the pass size alone sets the
# tail percentile (see run.tail_percentile): p91, p83, p75 and p93 here.
SMALL_REPLICAS = 2  # 3 variants x 20 pairs x 2 = 120 ops
BULK_SIZES = 10  # 3 variants x 2 seller policies x 10 sizes = 60 ops
MODP_REPLICAS = 2  # 20 pairs x 2 = 40 ops
GRID_COPIES = 2  # 2 x (60 + 12) = 144 ops


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

class AnyWitnessLedger(Ledger):
    """Fault-injected chain that pays out on any witness.

    Exploring a `claim_wrong_witness` seller against it must report a fixed
    set of violated properties; an explorer that prunes a schedule it should
    have run loses one and fails the gate.
    """

    def _condition_holds(self, condition, witness) -> bool:
        return True


@dataclass(frozen=True)
class Op:
    """One unit of work: a `run_scenario` or an `explore` call."""

    kind: str  # "exchange" or "explore"
    config: ScenarioConfig
    faulty_chain: bool = False

    def run(self) -> ScenarioReport | ExplorationResult:
        if self.kind == "exchange":
            return run_scenario(self.config)
        factory = AnyWitnessLedger if self.faulty_chain else None
        return explore(self.config, depth=EXPLORE_DEPTH, chain_factory=factory)


def build(workload: str, seed: int) -> list[Op]:
    """The ops of one pass, in run order; equal seeds give equal ops."""
    try:
        builder = _BUILDERS[workload]
    except KeyError:
        known = ", ".join(WORKLOADS)
        raise ValueError(f"unknown workload {workload!r}; known: {known}") from None
    rng = random.Random(f"sedg-bench/{workload}/{seed}")
    ops = builder(rng)
    rng.shuffle(ops)
    return ops


def _config(
    rng: random.Random, variant: str, seller: str, buyer: str, **kwargs
) -> ScenarioConfig:
    if variant == "v2":
        kwargs["notary_fee"] = NOTARY_FEE
    return make_config(
        variant,
        price=PRICE,
        buyer_balance=BUYER_BALANCE,
        seller_policy=seller,
        buyer_policy=buyer,
        seed=rng.randrange(1 << 31),
        **kwargs,
    )


def stratified_sizes(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """Log-uniform sizes in [lo, hi], one draw from each of `count` equal strata."""
    span = math.log(hi / lo)
    return [int(lo * math.exp(span * (i + rng.random()) / count)) for i in range(count)]


def _small_payload_sizes(rng: random.Random, count: int) -> list[int]:
    sizes = stratified_sizes(rng, 16, KIB, count)
    rng.shuffle(sizes)
    return sizes


def _exchange_small(rng: random.Random) -> list[Op]:
    cells = [
        (variant, seller, buyer)
        for variant in VARIANTS
        for seller, buyer in POLICY_PAIRS
        for _ in range(SMALL_REPLICAS)
    ]
    sizes = _small_payload_sizes(rng, len(cells))
    return [
        Op("exchange", _config(rng, v, s, b, payload_size=size))
        for (v, s, b), size in zip(cells, sizes)
    ]


def _exchange_bulk(rng: random.Random) -> list[Op]:
    # Payloads stop at 512 KiB: with them a message's working set (payload,
    # hex, JSON frame) still fits a core's L2 cache. With MiB payloads it
    # spilled into the L3 and memory that a shared host's other tenants use,
    # and run-to-run swings reached 20-60%.
    # One size per narrow stratum, dealt round-robin to the six (variant,
    # seller) cells: every cell spans the whole range, the largest payload,
    # which sets the peak RSS, stays within 5% of the top, and latencies form
    # a continuum, so no percentile sits on a gap between two size classes.
    cells = [(v, s) for v in VARIANTS for s in ("honest", "send_corrupt_ciphertext")]
    sizes = stratified_sizes(rng, 32 * KIB, 512 * KIB, len(cells) * BULK_SIZES)
    return [
        Op("exchange", _config(rng, *cells[i % len(cells)], "honest", payload_size=size))
        for i, size in enumerate(sizes)
    ]


def _exchange_modp2048(rng: random.Random) -> list[Op]:
    cells = [pair for pair in POLICY_PAIRS for _ in range(MODP_REPLICAS)]
    sizes = _small_payload_sizes(rng, len(cells))
    return [
        Op("exchange", _config(rng, "v3", s, b, group_name="modp2048", payload_size=size))
        for (s, b), size in zip(cells, sizes)
    ]


def _explore_grid(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(GRID_COPIES):
        sizes = _small_payload_sizes(rng, len(VARIANTS) * len(POLICY_PAIRS))
        for (variant, (seller, buyer)), size in zip(
            itertools.product(VARIANTS, POLICY_PAIRS), sizes
        ):
            config = _config(rng, variant, seller, buyer, payload_size=size)
            ops.append(Op("explore", config))
            if seller == "claim_wrong_witness":
                ops.append(Op("explore", config, faulty_chain=True))
    return ops


_BUILDERS: dict[str, Callable[[random.Random], list[Op]]] = {
    "exchange_small": _exchange_small,
    "exchange_bulk": _exchange_bulk,
    "exchange_modp2048": _exchange_modp2048,
    "explore_grid": _explore_grid,
}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    """Terminal state of one exchange under the default schedule."""

    seller_state: str
    buyer_state: str
    paid: bool
    refunded: bool
    abort_reason: str | None
    event_count: int


OUTCOMES = {
    "paid": Outcome("claimed", "settled", True, False, None, 3),
    "idle": Outcome("offer_sent", "verified", False, False, None, 1),
    "refunded": Outcome("expired", "refunded", False, True, None, 4),
    "bad_ciphertext": Outcome("expired", "aborted", False, False, "ciphertext_mismatch", 1),
    "bad_signature": Outcome("expired", "aborted", False, False, "bad_signature", 1),
}

# (seller policy, buyer policy) -> outcome under the default schedule. The
# same for every variant and seed: it is a fact of the protocol. The variant
# only decides whether a payment is split with the notary.
EXPECTED_OUTCOME = {
    ("honest", "honest"): "paid",
    ("honest", "never_publish_contract"): "idle",
    ("honest", "publish_underpriced_contract"): "refunded",
    ("honest", "refund_eagerly"): "paid",
    ("withhold_key", "honest"): "refunded",
    ("withhold_key", "never_publish_contract"): "idle",
    ("withhold_key", "publish_underpriced_contract"): "refunded",
    ("withhold_key", "refund_eagerly"): "refunded",
    ("claim_wrong_witness", "honest"): "refunded",
    ("claim_wrong_witness", "never_publish_contract"): "idle",
    ("claim_wrong_witness", "publish_underpriced_contract"): "refunded",
    ("claim_wrong_witness", "refund_eagerly"): "refunded",
    ("send_corrupt_ciphertext", "honest"): "bad_ciphertext",
    ("send_corrupt_ciphertext", "never_publish_contract"): "bad_ciphertext",
    ("send_corrupt_ciphertext", "publish_underpriced_contract"): "bad_ciphertext",
    ("send_corrupt_ciphertext", "refund_eagerly"): "bad_ciphertext",
    ("send_mismatched_h2", "honest"): "bad_signature",
    ("send_mismatched_h2", "never_publish_contract"): "bad_signature",
    ("send_mismatched_h2", "publish_underpriced_contract"): "bad_signature",
    ("send_mismatched_h2", "refund_eagerly"): "bad_signature",
}

# Buyer policy -> the properties an exploration against AnyWitnessLedger
# must find violated when the seller claims with a wrong witness.
EXPECTED_FAULTY_VIOLATIONS = {
    "honest": frozenset({"atomicity", "honest-buyer-no-loss"}),
    "never_publish_contract": frozenset(),
    "publish_underpriced_contract": frozenset({"atomicity"}),
    "refund_eagerly": frozenset({"atomicity"}),
}


def check(
    op: Op,
    result: ScenarioReport | ExplorationResult,
    expected_outcome: dict = EXPECTED_OUTCOME,
    expected_faulty: dict = EXPECTED_FAULTY_VIOLATIONS,
) -> list[str]:
    """Everything wrong with one op's result; empty when the op is correct."""
    if op.kind == "exchange":
        return check_exchange(op.config, result, expected_outcome)
    return check_explore(op, result, expected_faulty)


def check_exchange(
    config: ScenarioConfig, report: ScenarioReport, expected_outcome: dict = EXPECTED_OUTCOME
) -> list[str]:
    problems = []
    v2 = config.variant.value == "v2"
    if report.buyer_has_plaintext != report.seller_paid:
        problems.append("atomicity: buyer_has_plaintext != seller_paid")
    if v2 and report.notary_paid != report.seller_paid:
        problems.append("notary-split: notary_paid != seller_paid")
    if config.buyer_policy is BuyerPolicy.HONEST:
        spent = config.price if report.buyer_has_plaintext else 0
        if report.balances["buyer"] != config.buyer_balance - spent:
            problems.append(f"honest-buyer-no-loss: buyer balance {report.balances['buyer']}")
    if sum(report.balances.values()) != config.buyer_balance:
        problems.append(f"conservation: balances {report.balances} at quiescence")

    key = (config.seller_policy.value, config.buyer_policy.value)
    expected = OUTCOMES[expected_outcome[key]]
    fee = config.notary_fee if v2 else 0
    paid = expected.paid
    want = {
        "variant": config.variant.value,
        "seed": config.seed,
        "seller_state": expected.seller_state,
        "buyer_state": expected.buyer_state,
        "buyer_has_plaintext": paid,
        "seller_paid": paid,
        "notary_paid": paid and v2,
        "buyer_refunded": expected.refunded,
        "buyer_decrypt_failed": False,
        "abort_reason": expected.abort_reason,
        "event_count": expected.event_count,
        "balances": {
            "buyer": config.buyer_balance - (config.price if paid else 0),
            "seller": config.price - fee if paid else 0,
            "notary": fee if paid else 0,
        },
    }
    for field, value in want.items():
        got = getattr(report, field)
        if got != value:
            problems.append(
                f"outcome {expected_outcome[key]}: {field} is {got!r}, expected {value!r}"
            )
    return problems


def check_explore(
    op: Op, result: ExplorationResult, expected_faulty: dict = EXPECTED_FAULTY_VIOLATIONS
) -> list[str]:
    problems = []
    if result.schedules_explored < 1:
        problems.append("explored no schedule")
    found = frozenset(v.prop for v in result.violations)
    if op.faulty_chain:
        expected = expected_faulty[op.config.buyer_policy.value]
        if found != expected:
            problems.append(
                f"fault-injected chain: violations {sorted(found)}, expected {sorted(expected)}"
            )
    elif found:
        problems.append(f"violations on an honest chain: {sorted(found)}")
    return problems
