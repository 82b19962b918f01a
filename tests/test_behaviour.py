"""A checked-in behaviour fingerprint, one line per config, so any change in
what a run does shows as a diff that names the configs it touched.

The grid: 3 variants x 5 seller x 4 buyer policies x buyer balance 150/40
on the `test` group, each on an honest chain and on the two faulty chains
of `helpers`, plus every seller policy against an honest buyer on
`modp2048`; seed 7, price 100, v2 fee 10. Each line holds the config, what
`explore(depth=12)` reports, and the default-schedule run's trace, event
log hash, session outcomes and report.

After a deliberate behaviour change, regenerate the file with
`PYTHONPATH=src python tests/test_behaviour.py` and review the diff.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

from helpers import AcceptAnyWitnessLedger, DoubleSettleLedger
from sedg.harness import World, drive, explore, make_config
from sedg.ledger import event_to_json
from sedg.protocol import BuyerPolicy, SellerPolicy

DATA = Path(__file__).resolve().parent / "data" / "behaviour.jsonl"
CHAINS = {
    "honest": None,
    "accept_any_witness": AcceptAnyWitnessLedger,
    "double_settle": DoubleSettleLedger,
}


def _grid():
    """(key, config, chain factory) for every config the file records."""
    test_grid = itertools.product(
        ("v1", "v2", "v3"), ["test"], SellerPolicy, BuyerPolicy, (150, 40), CHAINS
    )
    modp2048 = itertools.product(
        ["v3"], ["modp2048"], SellerPolicy, [BuyerPolicy.HONEST], [150], ["honest"]
    )
    for variant, group, seller, buyer, balance, chain in itertools.chain(test_grid, modp2048):
        key = {
            "variant": variant,
            "group": group,
            "seller": seller.value,
            "buyer": buyer.value,
            "buyer_balance": balance,
            "chain": chain,
        }
        config = make_config(
            variant,
            price=100,
            buyer_balance=balance,
            notary_fee=10 if variant == "v2" else None,
            group_name=group,
            seller_policy=seller,
            buyer_policy=buyer,
            seed=7,
        )
        yield key, config, CHAINS[chain]


def _line(key, config, chain_factory) -> str:
    result = explore(config, depth=12, chain_factory=chain_factory)
    world = World(config, chain_factory() if chain_factory else None)
    drive(world)
    events = "".join(event_to_json(e) + "\n" for e in world.ledger.read_events(0))
    abort = world.buyer.abort_reason
    fingerprint = {
        "config": key,
        "explore": {
            "schedules": result.schedules_explored,
            "max_depth": result.max_depth,
            "nodes": result.nodes_executed,
            "violations": sorted(
                [v.prop, v.detail, list(v.choices)] for v in result.violations
            ),
        },
        "run": {
            "trace": world.trace,
            "events_sha256": hashlib.sha256(events.encode()).hexdigest(),
            "seller_state": world.seller.state.status,
            "seller_outcome": world.seller.outcome,
            "buyer_state": world.buyer.state.status,
            "abort_reason": abort.value if abort else None,
            "decrypt_failed": world.buyer.decrypt_failed,
            "report": dataclasses.asdict(world.report()),
        },
    }
    return json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))


def _lines() -> list[str]:
    return [_line(*entry) for entry in _grid()]


def test_every_config_behaves_as_recorded():
    recorded = DATA.read_text(encoding="utf-8").splitlines()
    current = _lines()
    assert len(current) == len(recorded) == 365
    changed = [
        json.loads(now)["config"] for now, then in zip(current, recorded) if now != then
    ]
    assert changed == []


if __name__ == "__main__":
    DATA.write_text("".join(line + "\n" for line in _lines()), encoding="utf-8")
    print(f"wrote {DATA}")
