"""Tests of the benchmark itself: determinism, tracing and the correctness gate.

    python3 -m pytest benchmarks -q

Seed counts are deliberately not asserted here; later changes are meant to
move them. They are recorded in baseline.json instead.
"""
from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

import run
import tracer
import workloads
from sedg import cert, crypto, harness, ledger

# A few ops of each workload keep the suite fast; modp2048 ops cost ~0.2 s each.
SAMPLE = {"exchange_small": 60, "exchange_bulk": 4, "exchange_modp2048": 3, "explore_grid": 72}

COUNT_METRICS = (".count", ".bytes", ".distinct", "_ratio", ".yield")


def _sample(workload: str, seed: int = 5) -> list[workloads.Op]:
    return workloads.build(workload, seed)[: SAMPLE[workload]]


def _traced(ops):
    layers = tracer.Tracer()
    results = []
    with layers:
        for index, op in enumerate(ops):
            layers.begin_op(index)
            result = op.run()
            layers.end_op(getattr(result, "schedules_explored", 1))
            results.append(result)
    return layers, results


def _counts(layers: tracer.Tracer) -> dict[str, float]:
    metrics = layers.metrics(traced_ns=1, untraced_ns=1)
    return {
        name: value
        for name, value in metrics.items()
        if name.endswith(COUNT_METRICS) and name != "trace.overhead_ratio"
    }


def _outcome(result):
    if isinstance(result, harness.ExplorationResult):
        return result.schedules_explored, {(v.prop, v.schedule) for v in result.violations}
    return result


def test_equal_seeds_build_equal_ops():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 3) == workloads.build(workload, 3)
    assert workloads.build("exchange_small", 3) != workloads.build("exchange_small", 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    ops = _sample(workload)
    first, _ = _traced(ops)
    second, _ = _traced(ops)
    assert _counts(first) == _counts(second)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_run(workload):
    ops = _sample(workload)
    _, traced_results = _traced(ops)
    untraced = [op.run() for op in ops]
    assert [_outcome(r) for r in traced_results] == [_outcome(r) for r in untraced]
    assert all(workloads.check(op, r) == [] for op, r in zip(ops, traced_results))


def test_tracer_restores_every_binding():
    originals = (harness.notarize, cert.notarize, crypto.sha256, ledger.Ledger.claim,
                 vars(crypto.SigningKeyPair)["from_seed"])
    with tracer.Tracer():
        assert crypto.pow is not pow and harness.notarize is not originals[0]
    assert (harness.notarize, cert.notarize, crypto.sha256, ledger.Ledger.claim,
            vars(crypto.SigningKeyPair)["from_seed"]) == originals
    assert not hasattr(crypto, "pow") and not hasattr(ledger, "pow")


def test_traced_metrics_are_the_ones_benchmark_json_lists():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layers, _ = _traced(_sample("exchange_small"))
    metrics = layers.metrics(traced_ns=1, untraced_ns=1)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {name: run.layer_unit(name) for name in metrics} == listed


def test_silent_hook_fails_loudly():
    layers, _ = _traced(_sample("exchange_small"))
    with pytest.raises(tracer.HookSilent, match="crypto.modexp"):
        layers.require("exchange_modp2048")


def _op(kind="exchange", variant="v1", seller="honest", buyer="honest", faulty=False):
    config = workloads._config(random.Random(1), variant, seller, buyer)
    return workloads.Op(kind, config, faulty_chain=faulty)


def test_gate_passes_the_pinned_outcomes():
    for variant in workloads.VARIANTS:
        for seller, buyer in workloads.POLICY_PAIRS:
            op = _op(variant=variant, seller=seller, buyer=buyer)
            assert workloads.check(op, op.run()) == [], (variant, seller, buyer)


def test_gate_fires_on_a_wrong_expected_outcome():
    op = _op(variant="v2")
    wrong = dict(workloads.EXPECTED_OUTCOME)
    wrong[("honest", "honest")] = "refunded"
    problems = workloads.check(op, op.run(), expected_outcome=wrong)
    assert any("seller_paid" in p for p in problems)


def test_gate_fires_on_a_broken_report():
    op = _op()
    report = dataclasses.replace(op.run(), buyer_has_plaintext=False)
    assert any(p.startswith("atomicity") for p in workloads.check(op, report))


def test_gate_fires_on_a_wrong_violation_set():
    op = _op("explore", seller="claim_wrong_witness", faulty=True)
    result = op.run()
    assert workloads.check(op, result) == []
    wrong = dict(workloads.EXPECTED_FAULTY_VIOLATIONS, honest=frozenset({"atomicity"}))
    assert workloads.check(op, result, expected_faulty=wrong)


def test_gate_fires_when_an_explorer_loses_a_violation():
    op = _op("explore", seller="claim_wrong_witness", faulty=True)
    result = op.run()
    pruned = dataclasses.replace(
        result, violations=[v for v in result.violations if v.prop != "honest-buyer-no-loss"]
    )
    assert workloads.check(op, pruned)
