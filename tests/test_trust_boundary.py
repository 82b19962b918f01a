"""Peer-supplied group data is checked once, at decode, and never trusted raw.

Groups travel by their name in GROUPS. Decoders look the name up and never
build group parameters from what a peer sent, and results of in-group
arithmetic are not re-checked. The counts below shadow `pow` in the modules
that call it, the same way the benchmark's tracer does, and wrap
`GroupParams.contains`, the one membership check, and
`GroupParams._generator_power`, through which every power of g goes.
"""
from __future__ import annotations

import builtins
import dataclasses
import json

import pytest

from sedg import codec, crypto, ledger
from sedg.cert import Certificate
from sedg.crypto import MODP_2048, TEST_GROUP, DomainError
from sedg.harness import World, make_config, run_scenario
from sedg.ledger import Condition, Witness
from sedg.protocol import (
    Aborted,
    AbortReason,
    SellerPolicy,
    message_from_obj,
    message_to_obj,
)

MODEXP_MIN_BITS = 1024
LEGACY_TEST_GROUP = {"p": "23", "q": "11", "g": "2"}
LEGACY_MODP_2048 = {"p": str(MODP_2048.p), "q": str(MODP_2048.q), "g": str(MODP_2048.g)}

condition_from_obj = codec.decoder(Condition)
witness_from_obj = codec.decoder(Witness)


@pytest.fixture
def pow_calls(monkeypatch):
    """Every three-argument pow that crypto and ledger make, as (exp, mod)."""
    calls: list[tuple[int, int]] = []

    def counting_pow(base, exp, mod=None):
        if mod is not None:
            calls.append((exp, mod))
        return builtins.pow(base, exp, mod)

    monkeypatch.setattr(crypto, "pow", counting_pow, raising=False)
    monkeypatch.setattr(ledger, "pow", counting_pow, raising=False)
    return calls


@pytest.fixture
def membership_checks(monkeypatch):
    """Every value `GroupParams.contains` is asked about."""
    checked: list[int] = []
    original = crypto.GroupParams.contains

    def counting_contains(self, value):
        checked.append(value)
        return original(self, value)

    monkeypatch.setattr(crypto.GroupParams, "contains", counting_contains)
    return checked


@pytest.fixture
def groups_built(monkeypatch):
    built: list[crypto.GroupParams] = []
    original = crypto.GroupParams.__post_init__

    def counting_post_init(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(crypto.GroupParams, "__post_init__", counting_post_init)
    return built


@pytest.fixture
def generator_powers(monkeypatch):
    """Every exponent `GroupParams._generator_power` is asked to raise g to."""
    exponents: list[int] = []
    original = crypto.GroupParams._generator_power

    def counting_power(self, exponent):
        exponents.append(exponent)
        return original(self, exponent)

    monkeypatch.setattr(crypto.GroupParams, "_generator_power", counting_power)
    return exponents


# ---------------------------------------------------------------------------
# Modexp budget
# ---------------------------------------------------------------------------

def test_honest_modp2048_exchange_does_one_general_modexp(
    pow_calls, membership_checks, groups_built
):
    # The buyer's h2^r is the only power of a base other than g. OpenSSL
    # computes the notary's g^k, the seller's g^(k*r) and the chain's g^x,
    # and the buyer's check of the received h2 is a range check.
    config = make_config("v3", price=60, buyer_balance=100, group_name="modp2048", seed=11)
    report = run_scenario(config)
    assert report.buyer_has_plaintext and report.seller_paid
    full_size = [
        (exp, mod) for exp, mod in pow_calls
        if exp >= 1 and mod.bit_length() >= MODEXP_MIN_BITS
    ]
    assert len(full_size) == 1
    assert len(membership_checks) == 1
    assert groups_built == []


# (powers of g, general powers) per modp2048 run. The notary's g^k comes
# first; the buyer's h2^r is the one general power; the seller's check of
# its claim and the chain's claim each raise g to the witness. A deviating
# seller that fails the buyer's checks costs nothing past the notary's power.
EXPONENTIATION_BUDGET = {
    SellerPolicy.HONEST: (3, 1),
    SellerPolicy.WITHHOLD_KEY: (1, 1),
    SellerPolicy.CLAIM_WRONG_WITNESS: (2, 1),
    SellerPolicy.SEND_CORRUPT_CIPHERTEXT: (1, 0),
    SellerPolicy.SEND_MISMATCHED_H2: (1, 0),
}


@pytest.mark.parametrize("policy", EXPONENTIATION_BUDGET, ids=lambda p: p.value)
def test_modp2048_exponentiation_budget_per_seller_policy(policy, pow_calls, generator_powers):
    config = make_config(
        "v3", price=60, buyer_balance=100, group_name="modp2048", seller_policy=policy, seed=11
    )
    run_scenario(config)
    general = [
        (exp, mod) for exp, mod in pow_calls
        if exp >= 1 and mod.bit_length() >= MODEXP_MIN_BITS
    ]
    assert (len(generator_powers), len(general)) == EXPONENTIATION_BUDGET[policy]


def test_group_exp_skips_rechecks_of_in_group_values(membership_checks):
    k = crypto.Scalar(3, TEST_GROUP)
    h = crypto.power_of_g(k)  # a power of the generator: no check
    crypto.element_pow(h, k)  # a validated element's power: no check
    crypto.element_mul(h, TEST_GROUP.generator)  # a product of members: no check
    assert membership_checks == []


# ---------------------------------------------------------------------------
# Decoders reject unnamed groups before any exponentiation
# ---------------------------------------------------------------------------

def _v3_world() -> World:
    return World(make_config("v3", price=60, buyer_balance=100, group_name="test", seed=5))


def _offer_obj() -> dict:
    return message_to_obj(_v3_world().seller.start())


def _cert_obj() -> dict:
    return codec.encoder(Certificate)(_v3_world().seller.package.certificate)


def _with_group(obj: dict, group: object) -> dict:
    """The offer, contract reference or certificate with its element's group replaced."""
    if "r" in obj:
        return {**obj, "r": {**obj["r"], "group": group}}
    if "certificate" in obj:
        return {**obj, "certificate": _with_group(obj["certificate"], group)}
    element = obj["h2"]["element"]
    return {**obj, "h2": {**obj["h2"], "element": {**element, "group": group}}}


BAD_GROUPS = {
    "unknown-name": "modp4096",
    "legacy-test-params": LEGACY_TEST_GROUP,
    "legacy-modp2048-params": LEGACY_MODP_2048,
}


@pytest.mark.parametrize("group", BAD_GROUPS.values(), ids=BAD_GROUPS.keys())
def test_message_decoder_rejects_unnamed_groups(group, pow_calls, groups_built):
    offer = _offer_obj()
    ref = {"type": "contract_ref", "contract_id": 1, "r": {"group": "test", "value": 4}}
    pow_calls.clear()
    with pytest.raises(ValueError):
        message_from_obj(_with_group(offer, group))
    with pytest.raises(ValueError):
        message_from_obj(_with_group(ref, group))
    assert pow_calls == [] and groups_built == []


@pytest.mark.parametrize("group", BAD_GROUPS.values(), ids=BAD_GROUPS.keys())
def test_certificate_decoder_rejects_unnamed_groups(group, pow_calls, groups_built):
    obj = _cert_obj()
    pow_calls.clear()
    with pytest.raises(ValueError):
        codec.decoder(Certificate)(json.loads(codec.dumps(_with_group(obj, group))))
    assert pow_calls == [] and groups_built == []


@pytest.mark.parametrize("group", BAD_GROUPS.values(), ids=BAD_GROUPS.keys())
def test_ledger_decoders_reject_unnamed_groups(group, pow_calls, groups_built):
    with pytest.raises(ValueError):
        condition_from_obj({"type": "dlog_lock", "c": {"group": group, "value": 4}})
    with pytest.raises(ValueError):
        witness_from_obj({"type": "exponent", "x": {"group": group, "value": 3}})
    assert pow_calls == [] and groups_built == []


def test_ledger_decoders_reject_the_old_inline_parameters(pow_calls, groups_built):
    with pytest.raises(ValueError):
        condition_from_obj({"type": "dlog_lock", "c": {"value": 4, **LEGACY_MODP_2048}})
    with pytest.raises(ValueError):
        witness_from_obj({"type": "exponent", "x": {"value": 3, **LEGACY_MODP_2048}})
    with pytest.raises(ValueError):
        condition_from_obj({"type": "dlog_lock", "c": 4, **LEGACY_MODP_2048})
    assert pow_calls == [] and groups_built == []


def test_named_groups_decode_to_the_registered_objects():
    offer = message_from_obj(_offer_obj())
    assert offer.certificate.h2.element.params is TEST_GROUP
    ref = message_from_obj(
        {"type": "contract_ref", "contract_id": 1, "r": {"group": "modp2048", "value": 4}}
    )
    assert ref.r.params is MODP_2048
    condition = condition_from_obj({"type": "dlog_lock", "c": {"group": "test", "value": 4}})
    assert condition.group is TEST_GROUP


def test_only_named_groups_encode():
    # A valid group that GROUPS does not name has no wire form.
    unnamed = crypto.GroupParams(p=23, q=11, g=5)
    with pytest.raises(ValueError, match="only groups named in GROUPS can be encoded"):
        codec.encoder(crypto.Scalar)(crypto.Scalar(4, unnamed))


def test_wire_h2_outside_the_subgroup_fails_at_decode(membership_checks):
    offer = _offer_obj()
    # An element is a signed residue in [1, 11]. 12 = -11 and 22 = -1 mod 23
    # are the negations of members; 5 is a member, the signed form of 18.
    for value in (12, 22):
        element = {"group": "test", "value": value}
        offer["certificate"]["h2"] = {"type": "group_power", "element": element}
        membership_checks.clear()
        with pytest.raises(DomainError):
            message_from_obj(offer)
        assert membership_checks == [value]  # the one membership check
        with pytest.raises(DomainError):
            condition_from_obj({"type": "dlog_lock", "c": element})


def _h2_and_c_decoders(group_name: str, value: int) -> list:
    """Decode `value` in the named group as an offer's h2 and as a dlog lock's c."""
    element = {"group": group_name, "value": value}
    offer = _offer_obj()
    offer["certificate"]["h2"] = {"type": "group_power", "element": element}
    return [
        lambda: message_from_obj(offer).certificate.h2.element,
        lambda: condition_from_obj({"type": "dlog_lock", "c": element}).c,
    ]


@pytest.mark.parametrize("group", [TEST_GROUP, MODP_2048], ids=["test", "modp2048"])
def test_decoders_accept_exactly_the_range_one_to_q(group):
    name = crypto.group_name(group)
    members = range(1, group.q + 1) if group is TEST_GROUP else (1, group.g, group.q)
    for value in members:
        for decode in _h2_and_c_decoders(name, value):
            assert decode() == crypto.GroupElement(value, group)
    for value in (0, group.q + 1, group.p - 1):
        for decode in _h2_and_c_decoders(name, value):
            with pytest.raises(DomainError):
                decode()


# ---------------------------------------------------------------------------
# Event log in the named-group format
# ---------------------------------------------------------------------------

def test_v3_event_log_names_its_group_and_replays_byte_for_byte(tmp_path):
    config = make_config("v3", price=60, buyer_balance=100, group_name="modp2048", seed=12)
    path = tmp_path / "events.jsonl"
    report = run_scenario(config, log_path=str(path))
    assert report.seller_paid
    text = path.read_text()
    assert '"group":"modp2048"' in text and '"p":' not in text
    with open(path, encoding="utf-8") as fh:
        rebuilt = ledger.replay(fh)
    assert "".join(ledger.event_to_json(e) + "\n" for e in rebuilt.read_events(0)) == text



def test_buyer_still_aborts_on_a_named_group_it_was_not_configured_for():
    world = World(make_config("v3", group_name="modp2048", seed=5))
    wire = message_to_obj(world.seller.start())
    assert wire["certificate"]["h2"]["element"]["group"] == "modp2048"
    buyer = world.buyer
    buyer.terms = dataclasses.replace(buyer.terms, group=TEST_GROUP)
    chain = ledger.Ledger()
    buyer.on_offer(message_from_obj(wire), chain)
    assert buyer.state == Aborted(AbortReason.GROUP_MISMATCH)
    assert chain.snapshot() == ledger.Ledger().snapshot()
