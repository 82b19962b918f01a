"""Checked-in event logs, one per variant, so a log format change shows as a diff.

After a deliberate format change, regenerate them with
`PYTHONPATH=src python tests/test_golden_logs.py` and review the diff.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from sedg import crypto
from sedg.crypto import TEST_GROUP
from sedg.harness import World, make_config, run_scenario
from sedg.ledger import event_to_json, replay

DATA = Path(__file__).resolve().parent / "data"
VARIANTS = ("v1", "v2", "v3")


def _golden(variant: str) -> Path:
    return DATA / f"events-{variant}.jsonl"


def _config(variant: str):
    return make_config(variant, price=60, buyer_balance=100, group_name="test", seed=2022)


def test_the_v3_golden_log_tells_the_notary_exponent_from_1():
    # With k = 1, h2 = g and the claimed x is the buyer's blind r, so a
    # seller witness that dropped k would write the same log; k = 2 and
    # r = 9 put x = k*r mod 11 = 7 in the log, where such a witness puts 9.
    world = World(_config("v3"))
    assert crypto.scalar_from_key(world.seller.package.key, TEST_GROUP).value == 2
    assert world.buyer.blind.value == 9
    assert world.seller.package.certificate.h2.element != TEST_GROUP.generator


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_scenario_writes_the_golden_log(variant, tmp_path):
    out = tmp_path / "events.jsonl"
    report = run_scenario(_config(variant), log_path=str(out))
    assert report.seller_paid and report.buyer_has_plaintext
    assert out.read_bytes() == _golden(variant).read_bytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_replay_accepts_the_golden_log(variant):
    text = _golden(variant).read_text(encoding="utf-8")
    rebuilt = replay(text.splitlines())
    assert "".join(event_to_json(e) + "\n" for e in rebuilt.read_events(0)) == text


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in VARIANTS:
        run_scenario(_config(name), log_path=str(_golden(name)))
        print(f"wrote {_golden(name)}")
