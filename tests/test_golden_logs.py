"""Checked-in event logs, one per variant, so a log format change shows as a diff.

After a deliberate format change, regenerate them with
`PYTHONPATH=src python tests/test_golden_logs.py` and review the diff.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from sedg.harness import make_config, run_scenario
from sedg.ledger import event_to_json, replay

DATA = Path(__file__).resolve().parent / "data"
VARIANTS = ("v1", "v2", "v3")


def _golden(variant: str) -> Path:
    return DATA / f"events-{variant}.jsonl"


def _config(variant: str):
    return make_config(variant, price=60, buyer_balance=100, group_name="test", seed=2019)


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
