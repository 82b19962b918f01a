"""Session tests, written as tables.

Sessions do no I/O, so each row puts a session in a state, feeds it one
input and the facts it reads (the tick, and for the seller the contract a
reference names), and pins the state it ends in and its outputs: the
messages it sends and the chain requests it makes. Where a row needs the
chain's answer, `harness.make_request` makes the request on a ledger, as
the World does.
"""
from __future__ import annotations

import ast
import inspect
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ScriptedRng, signing_keys, transition
from sedg import codec, crypto, protocol
from sedg.cert import (
    Certificate,
    CertificatePackage,
    GroupPower,
    HashOfKey,
    Variant,
    notarize,
    signing_payload,
)
from sedg.crypto import MODP_2048, TEST_GROUP, Scalar
from sedg.harness import make_request
from sedg.ledger import (
    Claim,
    Claimed,
    ContractPublished,
    ContractState,
    DlogLock,
    EscrowContract,
    Exponent,
    HashLock,
    Ledger,
    LedgerError,
    NotaryHashLock,
    Preimage,
    PreimageWithNotary,
    Publish,
    Refund,
    Refunded,
)
from sedg.protocol import (
    Abort,
    Aborted,
    AbortReason,
    BuyerPolicy,
    BuyerSession,
    ContractRef,
    DecryptFailed,
    Expired,
    Init,
    Paid,
    Published,
    Refused,
    Reimbursed,
    SellerPolicy,
    SellerSession,
    Settled,
    Terms,
    Verified,
    Waiting,
    message_from_obj,
    message_to_obj,
)

NOTARY_KEYS = signing_keys(1)
NOTARY = b"notary-1"
SELLER = b"seller-1"
REGISTRY = {NOTARY: NOTARY_KEYS.public}
BUYER = b"buyer-1"
PAYLOAD = b"the goods"
PRICE = 60


def make_package(variant, *, k=None, payload=PAYLOAD):
    if k is not None:
        # The notary's exponent is its key mod (q-1) + 1, so key k-1 gives k.
        rng = ScriptedRng([(k - 1).to_bytes(32, "big"), bytes(12)])
    else:
        rng = random.Random(2)
    group = TEST_GROUP if variant is Variant.V3 else None
    return notarize(
        NOTARY_KEYS,
        NOTARY,
        payload,
        SELLER,
        variant,
        rng,
        group=group,
    )


def make_terms(variant, *, price=PRICE, fee=10, group=TEST_GROUP):
    return Terms(variant, price, fee if variant is Variant.V2 else 0, 100, group)


def make_seller(variant, policy=SellerPolicy.HONEST, *, k=None, price=PRICE, fee=10):
    package = make_package(variant, k=k)
    terms = make_terms(variant, price=price, fee=fee)
    return SellerSession(package, terms, policy)


def make_buyer(
    variant, policy=BuyerPolicy.HONEST, *, r=None, price=PRICE, fee=10, group=TEST_GROUP
):
    blind = None
    if variant is Variant.V3:
        blind = Scalar(r, group) if r is not None else crypto.draw_scalar(random.Random(4), group)
    terms = make_terms(variant, price=price, fee=fee, group=group)
    return BuyerSession(terms, BUYER, SELLER, REGISTRY, policy, blind)


def funded_chain(balance=200):
    chain = Ledger()
    chain.fund(BUYER, balance)
    return chain


def published(request: Publish, contract_id: int = 1) -> ContractPublished:
    """The chain's answer to `request`, had it published contract `contract_id`."""
    return ContractPublished(
        seq=1,
        tick=0,
        contract_id=contract_id,
        amount=request.amount,
        payer=request.payer,
        payee=request.payee,
        deadline=request.deadline,
        condition=request.condition,
    )


def exchange(seller, buyer, chain):
    """Play the offer, the escrow and the claim as the harness does, and
    return the seller's claim request, or None if it made none."""
    tick = chain.current_tick
    for publish in buyer.on_offer(seller.start(), tick):
        for ref in buyer.on_answer(make_request(chain, publish)):
            contract = chain.find_contract(ref.contract_id)
            for claim in seller.on_message(ref, tick, contract):
                assert seller.on_answer(make_request(chain, claim)) == []
                return claim
    return None


# ---------------------------------------------------------------------------
# The sessions name no chain
# ---------------------------------------------------------------------------

def test_protocol_names_no_ledger_and_no_session_method_takes_a_chain():
    tree = ast.parse(inspect.getsource(protocol))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not names & {"Ledger", "LedgerError", "UnknownContract"}
    for cls in (BuyerSession, SellerSession):
        for name, method in vars(cls).items():
            if name.startswith("_") or not callable(method):
                continue
            for param in inspect.signature(method).parameters.values():
                words = re.findall(r"\w+", str(param.annotation))
                assert param.name not in ("chain", "ledger"), f"{cls.__name__}.{name}"
                assert "Ledger" not in words, f"{cls.__name__}.{name}"


# ---------------------------------------------------------------------------
# Offers
# ---------------------------------------------------------------------------

def test_honest_offer_passes_buyer_verification():
    seller = make_seller(Variant.V1)
    buyer = make_buyer(Variant.V1)
    offer = seller.start()
    assert seller.state == Waiting("")
    lock = HashLock(h2=offer.certificate.h2.digest)
    # The contract: the price, payable to the seller, locked until tick 100.
    publish = Publish(payer=BUYER, payee=SELLER, amount=PRICE, condition=lock, deadline=100)
    rows = [
        (Init(), "on_offer", (offer, 0), Verified(offer), [publish]),
        (Verified(offer), "on_answer", (published(publish),),
         Published(offer, 1), [ContractRef(1, None)]),
    ]
    for state, handler, args, after, outputs in rows:
        assert transition(buyer, state, handler, *args) == (after, outputs)


def test_the_deadline_counts_from_the_tick_the_offer_arrives():
    seller = make_seller(Variant.V1)
    buyer = make_buyer(Variant.V1)
    (publish,) = buyer.on_offer(seller.start(), 7)
    assert publish.deadline == 107


def test_corrupt_ciphertext_offer_aborts_with_mismatch():
    seller = make_seller(Variant.V1, SellerPolicy.SEND_CORRUPT_CIPHERTEXT)
    buyer = make_buyer(Variant.V1)
    replies = buyer.on_offer(seller.start(), 0)
    assert replies == [Abort(AbortReason.CIPHERTEXT_MISMATCH)]
    assert buyer.state == Aborted(AbortReason.CIPHERTEXT_MISMATCH)


def test_corrupt_ciphertext_offer_flips_byte_zero_only():
    # The edit is to byte 0 of the nonce, so the offer shares the notarized
    # body instead of copying it.
    seller = make_seller(Variant.V1, SellerPolicy.SEND_CORRUPT_CIPHERTEXT)
    packaged = seller.package.ciphertext
    before = packaged.nonce + packaged.body
    sent = seller.start().ciphertext
    assert sent.body is packaged.body
    assert len(sent.nonce) == len(packaged.nonce)
    assert [i for i, (a, b) in enumerate(zip(sent.nonce, packaged.nonce)) if a != b] == [0]
    assert sent.nonce[0] == packaged.nonce[0] ^ 0x01
    # The seller keeps the notarized ciphertext as it was.
    assert seller.package.ciphertext is packaged
    assert packaged.nonce + packaged.body == before


def test_mismatched_h2_offer_aborts_with_bad_signature():
    mismatched = SellerPolicy.SEND_MISMATCHED_H2
    cases = [
        (make_seller(variant, mismatched), make_buyer(variant))
        for variant in (Variant.V1, Variant.V2, Variant.V3)
    ]
    cases.append((make_modp2048_seller(mismatched), make_buyer(Variant.V3, group=MODP_2048)))
    for seller, buyer in cases:
        offer = seller.start()
        # a well-formed offer: the wrong h2 passes the decoder's checks
        received = message_from_obj(json.loads(codec.dumps(message_to_obj(offer))))
        assert received == offer
        assert offer.certificate.h2 != seller.package.certificate.h2
        assert seller.start() == offer
        replies = buyer.on_offer(received, 0)
        assert replies == [Abort(AbortReason.BAD_SIGNATURE)]
        assert buyer.state == Aborted(AbortReason.BAD_SIGNATURE)


def test_honest_v3_offer_carries_group_parameters():
    seller = make_seller(Variant.V3)
    offer = seller.start()
    assert isinstance(offer.certificate.h2, GroupPower)
    assert offer.certificate.h2.element.params == TEST_GROUP


def test_price_mismatch_aborts():
    seller = make_seller(Variant.V1, price=PRICE + 1)
    buyer = make_buyer(Variant.V1)
    buyer.on_offer(seller.start(), 0)
    assert buyer.state == Aborted(AbortReason.PRICE_MISMATCH)


def test_variant_mismatch_aborts():
    seller = make_seller(Variant.V2)
    buyer = make_buyer(Variant.V1)
    buyer.on_offer(seller.start(), 0)
    assert buyer.state == Aborted(AbortReason.VARIANT_MISMATCH)


def test_seller_is_paid_into_the_account_of_the_id_its_certificate_names():
    package = notarize(NOTARY_KEYS, NOTARY, PAYLOAD, b"other", Variant.V1, random.Random(2))
    terms = make_terms(Variant.V1)
    seller = SellerSession(package, terms, SellerPolicy.HONEST)
    buyer = BuyerSession(terms, BUYER, b"other", REGISTRY, BuyerPolicy.HONEST, None)
    chain = funded_chain()
    exchange(seller, buyer, chain)
    assert seller.state == Paid()
    assert chain.get_balance(b"other") == PRICE
    assert chain.get_balance(SELLER) == 0


def test_seller_witness_follows_its_certificate_not_its_terms():
    # The seller dispatches on the certificate the notary signed, so v1 terms
    # beside a v3 package still build the exponent that opens the dlog lock.
    seller = SellerSession(
        make_package(Variant.V3, k=3),
        make_terms(Variant.V1),
        SellerPolicy.HONEST,
    )
    blind = Scalar(4, TEST_GROUP)
    c = crypto.element_pow(seller.package.certificate.h2.element, blind)
    chain, contract = _open_contract(DlogLock(c))
    witness = seller.build_witness(contract, chain.current_tick, blind)
    assert witness == Exponent(Scalar(1, TEST_GROUP))
    chain.claim(contract.id, witness)


def test_buyer_rejects_variant_downgrade():
    # An offer or certificate that claims the dlog flavour beside a plain-hash
    # commitment cannot even be decoded: the variant is derived from h2, not carried.
    honest = message_to_obj(make_seller(Variant.V1).start())
    with pytest.raises(ValueError, match="variant"):
        message_from_obj({**honest, "variant": "v3"})
    with pytest.raises(ValueError, match="unknown keys for a Certificate: .'variant'"):
        message_from_obj({**honest, "certificate": {**honest["certificate"], "variant": "v3"}})
    # What the commitment says is what a dlog buyer checks, and refuses.
    buyer = make_buyer(Variant.V3)
    buyer.on_offer(message_from_obj(honest), 0)
    assert buyer.state == Aborted(AbortReason.VARIANT_MISMATCH)


def make_modp2048_seller(policy=SellerPolicy.HONEST):
    """A v3 seller whose validly signed offer is over the 2048-bit group."""
    package = notarize(
        NOTARY_KEYS,
        NOTARY,
        PAYLOAD,
        SELLER,
        Variant.V3,
        random.Random(77),
        group=MODP_2048,
    )
    terms = make_terms(Variant.V3, group=MODP_2048)
    return SellerSession(package, terms, policy)


def test_buyer_rejects_unexpected_group_parameters():
    # A validly signed offer over a group the buyer is not configured for.
    seller = make_modp2048_seller()
    buyer = make_buyer(Variant.V3)  # configured for the test group
    buyer.on_offer(seller.start(), 0)
    assert buyer.state == Aborted(AbortReason.GROUP_MISMATCH)


REFUSED_OFFERS = [
    pytest.param(
        AbortReason.PRICE_MISMATCH,
        lambda: (make_seller(Variant.V1, price=PRICE + 1), make_buyer(Variant.V1)),
        id="price_mismatch",
    ),
    pytest.param(
        AbortReason.VARIANT_MISMATCH,
        lambda: (make_seller(Variant.V2), make_buyer(Variant.V1)),
        id="variant_mismatch",
    ),
    pytest.param(
        AbortReason.BAD_SIGNATURE,
        lambda: (make_seller(Variant.V3, SellerPolicy.SEND_MISMATCHED_H2), make_buyer(Variant.V3)),
        id="bad_signature",
    ),
    pytest.param(
        AbortReason.CIPHERTEXT_MISMATCH,
        lambda: (
            make_seller(Variant.V3, SellerPolicy.SEND_CORRUPT_CIPHERTEXT),
            make_buyer(Variant.V3),
        ),
        id="ciphertext_mismatch",
    ),
    pytest.param(
        AbortReason.GROUP_MISMATCH,
        lambda: (make_modp2048_seller(), make_buyer(Variant.V3)),
        id="group_mismatch",
    ),
]


@pytest.mark.parametrize("reason, make_pair", REFUSED_OFFERS)
def test_aborting_buyer_never_touches_the_chain(reason, make_pair):
    # The abort is the one output: no request reaches the chain.
    seller, buyer = make_pair()
    assert transition(buyer, Init(), "on_offer", seller.start(), 0) == (
        Aborted(reason),
        [Abort(reason)],
    )


@pytest.mark.parametrize("variant", [Variant.V1, Variant.V3], ids=["v1", "v3"])
def test_underfunded_buyer_aborts_without_a_contract(variant):
    seller = make_seller(variant)
    buyer = make_buyer(variant)
    chain = funded_chain(PRICE - 1)
    offer = seller.start()
    (publish,) = buyer.on_offer(offer, chain.current_tick)
    refusal = make_request(chain, publish)
    assert isinstance(refusal, LedgerError)
    abort = Abort(AbortReason.INSUFFICIENT_FUNDS)
    # The blind travels only with a contract reference, so none leaves here.
    assert transition(buyer, Verified(offer), "on_answer", refusal) == (
        Aborted(AbortReason.INSUFFICIENT_FUNDS),
        [abort],
    )
    assert chain.get_balance(BUYER) == PRICE - 1
    assert not [e for e in chain.read_events(0) if type(e) is ContractPublished]


def test_seller_declines_blind_from_wrong_group():
    seller = make_seller(Variant.V3, k=3)
    c = crypto.element_pow(seller.package.certificate.h2.element, Scalar(4, TEST_GROUP))
    contract = _contract(DlogLock(c))
    declined = seller.build_witness(contract, 0, blind=Scalar(4, MODP_2048))
    assert declined == "blinding scalar from a different group"


def test_v3_buyer_blinds_the_commitment():
    # h2 = g^3 = 8 and forced r = 4 gives c = 8^4 mod 23 = 2.
    seller = make_seller(Variant.V3, k=3)
    buyer = make_buyer(Variant.V3, r=4)
    offer = seller.start()
    (publish,) = buyer.on_offer(offer, 0)
    assert buyer.blind.value == 4
    condition = publish.condition
    assert isinstance(condition, DlogLock)
    assert condition.c.value == 2
    assert transition(buyer, Verified(offer), "on_answer", published(publish)) == (
        Published(offer, 1),
        [ContractRef(1, Scalar(4, TEST_GROUP))],
    )


def test_never_publish_policy_stops_after_verification():
    seller = make_seller(Variant.V1)
    buyer = make_buyer(Variant.V1, BuyerPolicy.NEVER_PUBLISH_CONTRACT)
    offer = seller.start()
    assert transition(buyer, Init(), "on_offer", offer, 0) == (Verified(offer), [])


def test_underpriced_policy_halves_the_amount():
    seller = make_seller(Variant.V1)
    buyer = make_buyer(Variant.V1, BuyerPolicy.PUBLISH_UNDERPRICED_CONTRACT)
    (publish,) = buyer.on_offer(seller.start(), 0)
    assert publish.amount == PRICE // 2


def test_buyer_answers_by_its_state():
    # Only a verified buyer waits for its escrow, and only a published one
    # for its refund; a refused refund, or any other answer, changes nothing.
    offer = make_seller(Variant.V1).start()
    buyer = make_buyer(Variant.V1)
    publish = Publish(BUYER, SELLER, PRICE, HashLock(offer.certificate.h2.digest), 100)
    refunded = Refunded(seq=3, tick=101, contract_id=1)
    refusal = LedgerError("tick 100 not past deadline 100")
    short = LedgerError("balance 59 < 60")
    rows = [
        (Verified(offer), published(publish), Published(offer, 1), [ContractRef(1, None)]),
        (Verified(offer), short, Aborted(AbortReason.INSUFFICIENT_FUNDS),
         [Abort(AbortReason.INSUFFICIENT_FUNDS)]),
        (Published(offer, 1), refunded, Reimbursed(), []),
        (Published(offer, 1), refusal, Published(offer, 1), []),
        (Published(offer, 1), published(publish), Published(offer, 1), []),
        (Init(), published(publish), Init(), []),
        (Reimbursed(), refunded, Reimbursed(), []),
        (Settled(PAYLOAD), refunded, Settled(PAYLOAD), []),
        (Aborted(AbortReason.PRICE_MISMATCH), refunded, Aborted(AbortReason.PRICE_MISMATCH), []),
    ]
    for state, given_answer, after, outputs in rows:
        assert transition(buyer, state, "on_answer", given_answer) == (after, outputs), state


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------

def _contract(condition, amount=PRICE, payee=SELLER, deadline=100, cid=1):
    """The chain's record of an open contract from the buyer."""
    return EscrowContract(cid, BUYER, payee, amount, condition, deadline)


def _open_contract(condition, amount=PRICE, payee=SELLER, deadline=100):
    chain = funded_chain()
    cid = chain.publish_contract(BUYER, payee, amount, condition, deadline)
    return chain, chain.get_contract(cid)


def test_build_witness_v1():
    seller = make_seller(Variant.V1)
    h2 = seller.package.certificate.h2.digest
    chain, contract = _open_contract(HashLock(h2))
    witness = seller.build_witness(contract, chain.current_tick)
    assert witness == Preimage(seller.package.key)
    assert crypto.sha256(witness.x) == h2
    chain.claim(contract.id, witness)


def test_build_witness_v2():
    seller = make_seller(Variant.V2)
    h2 = seller.package.certificate.h2.digest
    chain, contract = _open_contract(NotaryHashLock(h2=h2, fee=10))
    witness = seller.build_witness(contract, chain.current_tick)
    assert witness == PreimageWithNotary(seller.package.key, NOTARY)
    chain.claim(contract.id, witness)


def test_build_witness_v3_forced_values():
    # scalar(k)=3, r=4: witness exponent is 12 mod 11 = 1.
    seller = make_seller(Variant.V3, k=3)
    c = crypto.element_pow(seller.package.certificate.h2.element, Scalar(4, TEST_GROUP))
    chain, contract = _open_contract(DlogLock(c))
    witness = seller.build_witness(contract, chain.current_tick, blind=Scalar(4, TEST_GROUP))
    assert witness.x.value == 1
    chain.claim(contract.id, witness)


def test_build_witness_rejects_underpayment():
    seller = make_seller(Variant.V1)
    h2 = seller.package.certificate.h2.digest
    contract = _contract(HashLock(h2), amount=PRICE - 1)
    assert seller.build_witness(contract, 0) == "contract does not pay the agreed split"


def test_build_witness_rejects_wrong_payee():
    seller = make_seller(Variant.V1)
    h2 = seller.package.certificate.h2.digest
    contract = _contract(HashLock(h2), payee=b"mallory")
    assert seller.build_witness(contract, 0) == "contract does not pay the agreed split"


def test_build_witness_rejects_foreign_commitment():
    seller = make_seller(Variant.V1)
    contract = _contract(HashLock(crypto.sha256(b"not ours")))
    assert seller.build_witness(contract, 0) == "the witness does not satisfy the condition"


def test_build_witness_rejects_misblinded_condition():
    seller = make_seller(Variant.V3, k=3)
    wrong_c = crypto.power_of_g(Scalar(7, TEST_GROUP))
    contract = _contract(DlogLock(wrong_c))
    declined = seller.build_witness(contract, 0, blind=Scalar(4, TEST_GROUP))
    assert declined == "the witness does not satisfy the condition"


def test_build_witness_judges_by_the_chain_claim_rule():
    # The seller declines what the chain would refuse, with the chain's words.
    seller = make_seller(Variant.V1)
    lock = HashLock(seller.package.certificate.h2.digest)
    key = Preimage(seller.package.key)
    rows = [
        (_contract(lock), 100, key),
        (_contract(lock), 101, "tick 101 past deadline 100"),
        (replace(_contract(lock), state=ContractState.CLAIMED), 0, "contract 1 is claimed"),
        (replace(_contract(lock), state=ContractState.REFUNDED), 101, "contract 1 is refunded"),
    ]
    for contract, tick, built in rows:
        assert seller.build_witness(contract, tick) == built, (contract.state, tick)


@pytest.mark.parametrize("fee", [PRICE - 1], ids=["fee_inflated"])
def test_v2_seller_declines_a_contract_that_skims_the_split(fee):
    # The price is right and the lock opens with the honest witness, but the
    # claim would not pay the seller price - fee and the notary its fee.
    seller = make_seller(Variant.V2)
    h2 = seller.package.certificate.h2.digest
    contract = _contract(NotaryHashLock(h2=h2, fee=fee))
    declined = "contract does not pay the agreed split"
    assert seller.build_witness(contract, 0) == declined
    ref = ContractRef(contract.id, None)
    assert transition(seller, Waiting(""), "on_contract", ref, contract, 0) == (
        Waiting(f"declined: {declined}"),
        [],
    )


def _v2_lock(key):
    return NotaryHashLock(crypto.sha256(crypto.canonical_encode([key, NOTARY])), fee=0)


def _v1_lock(key):
    return HashLock(crypto.sha256(key))


@pytest.mark.parametrize(
    "variant, lock",
    [(Variant.V1, _v2_lock), (Variant.V2, _v1_lock), (Variant.V3, _v2_lock)],
    ids=["v1_seller_v2_lock", "v2_seller_v1_lock", "v3_seller_v2_lock"],
)
def test_seller_declines_a_lock_of_another_variant(variant, lock):
    # The payout rule runs before the claim rule's variant test, so it must
    # decline a witness that cannot open the lock, not trip over it.
    seller = make_seller(variant, k=3)
    blind = Scalar(4, TEST_GROUP)
    contract = _contract(lock(seller.package.key))
    assert seller.build_witness(contract, 0, blind) == "contract does not pay the agreed split"
    ref = ContractRef(contract.id, blind)
    assert transition(seller, Waiting(""), "on_contract", ref, contract, 0) == (
        Waiting("declined: contract does not pay the agreed split"),
        [],
    )


def test_seller_claims_once_at_most():
    seller = make_seller(Variant.V1)
    h2 = seller.package.certificate.h2.digest
    chain, contract = _open_contract(HashLock(h2))
    ref = ContractRef(contract.id, None)
    claim = Claim(contract.id, Preimage(seller.package.key))
    claimed = make_request(chain, claim)
    assert type(claimed) is Claimed
    rows = [
        (Waiting(""), "on_contract", (ref, contract, 0), Waiting(""), [claim]),
        (Waiting(""), "on_answer", (claimed,), Paid(), []),
        (Paid(), "on_contract", (ref, contract, 0), Paid(), []),
    ]
    for state, handler, args, after, outputs in rows:
        assert transition(seller, state, handler, *args) == (after, outputs), handler


@pytest.mark.parametrize("variant", list(Variant))
def test_a_repeated_reference_after_a_rejected_claim_claims_no_more(variant):
    # The chain would refuse a second garbage claim too; the seller must not
    # ask. Only the `Refused` state stops it, so this pins that guard.
    seller = make_seller(variant, SellerPolicy.CLAIM_WRONG_WITNESS)
    buyer = make_buyer(variant)
    chain = funded_chain()
    (publish,) = buyer.on_offer(seller.start(), 0)
    (ref,) = buyer.on_answer(make_request(chain, publish))
    contract = chain.find_contract(ref.contract_id)
    (claim,) = seller.on_message(ref, 0, contract)
    assert type(claim) is Claim
    assert seller.on_answer(make_request(chain, claim)) == []
    refused = Refused("claim rejected: the witness does not satisfy the condition")
    assert seller.state == refused
    assert transition(seller, refused, "on_message", ref, 0, contract) == (refused, [])


def test_a_reference_after_a_decline_is_still_acted_on():
    # A decline sends no claim, so the seller stays `Waiting` and claims on a
    # later reference to a contract that pays; a refused claim would not.
    seller = make_seller(Variant.V1)
    lock = HashLock(seller.package.certificate.h2.digest)
    chain = funded_chain()
    underpaid = chain.get_contract(chain.publish_contract(BUYER, SELLER, PRICE - 1, lock, 100))
    fair = chain.get_contract(chain.publish_contract(BUYER, SELLER, PRICE, lock, 100))
    declined = Waiting("declined: contract does not pay the agreed split")
    for _ in range(2):
        assert seller.on_message(ContractRef(underpaid.id, None), 0, underpaid) == []
        assert seller.state == declined
    (claim,) = seller.on_message(ContractRef(fair.id, None), 0, fair)
    assert claim == Claim(fair.id, Preimage(seller.package.key))
    assert seller.on_answer(make_request(chain, claim)) == []
    assert seller.state == Paid()
    assert [e.contract_id for e in chain.read_events(0) if type(e) is Claimed] == [fair.id]


def test_seller_ignores_an_unknown_contract():
    # The chain holds no contract 7, so the seller is handed None for it.
    seller = make_seller(Variant.V1)
    seller.start()
    ref = ContractRef(7, None)
    assert transition(seller, Waiting(""), "on_contract", ref, None, 0) == (Waiting(""), [])


def test_withhold_key_policy_never_claims():
    seller = make_seller(Variant.V1, SellerPolicy.WITHHOLD_KEY)
    h2 = seller.package.certificate.h2.digest
    contract = _contract(HashLock(h2))
    ref = ContractRef(contract.id, None)
    assert transition(seller, Waiting(""), "on_contract", ref, contract, 0) == (
        Waiting("withheld the key"),
        [],
    )


def test_seller_answers_only_while_its_claim_is_pending():
    # The chain's answer settles the one claim a waiting seller made; in any
    # other state the seller made none, and ignores it.
    seller = make_seller(Variant.V1)
    key = Preimage(seller.package.key)
    claimed = Claimed(seq=2, tick=0, contract_id=1, witness=key, payouts=())
    refusal = LedgerError("the witness does not satisfy the condition")
    rows = [
        (Waiting(""), claimed, Paid()),
        (Waiting("declined: contract does not pay the agreed split"), claimed, Paid()),
        (Waiting(""), refusal,
         Refused("claim rejected: the witness does not satisfy the condition")),
        (Paid(), refusal, Paid()),
        (Refused("claim rejected: x"), claimed, Refused("claim rejected: x")),
        (Expired("deadline passed without settlement"), claimed,
         Expired("deadline passed without settlement")),
    ]
    for state, given_answer, after in rows:
        assert transition(seller, state, "on_answer", given_answer) == (after, []), state


def test_wrong_witness_policy_is_rejected_by_the_chain():
    wrong = SellerPolicy.CLAIM_WRONG_WITNESS
    cases = [
        (make_seller(variant, wrong), make_buyer(variant))
        for variant in (Variant.V1, Variant.V2, Variant.V3)
    ]
    cases.append((make_modp2048_seller(wrong), make_buyer(Variant.V3, group=MODP_2048)))
    # k * r = 1 * 10 = q - 1 on the test group, the scalar that wraps to 1.
    cases.append((make_seller(Variant.V3, wrong, k=1), make_buyer(Variant.V3, r=10)))
    for seller, buyer in cases:
        chain = funded_chain()
        (publish,) = buyer.on_offer(seller.start(), 0)
        (ref,) = buyer.on_answer(make_request(chain, publish))
        honest = seller._honest_witness(ref.r)
        garbage = seller._garbage_witness(ref.r)
        # The documented edit: the next scalar in [1, q-1], or the key with
        # the low bit of byte 0 flipped.
        if isinstance(honest, Exponent):
            x = honest.x
            edited = Scalar(x.value + 1 if x.value < x.params.q - 1 else 1, x.params)
        else:
            edited = bytes([honest.x[0] ^ 0x01]) + honest.x[1:]
        assert garbage == replace(honest, x=edited)
        assert seller._garbage_witness(ref.r) == garbage
        contract = chain.find_contract(ref.contract_id)
        assert seller.on_contract(ref, contract, 0) == [Claim(ref.contract_id, garbage)]
        before = chain.snapshot()
        assert seller.on_answer(make_request(chain, Claim(ref.contract_id, garbage))) == []
        # The ledger's refusal, as the seller records it.
        assert seller.state == Refused("claim rejected: the witness does not satisfy the condition")
        assert chain.snapshot() == before
        assert chain.get_contract(ref.contract_id).state is ContractState.OPEN
    assert (honest, garbage) == (
        Exponent(Scalar(TEST_GROUP.q - 1, TEST_GROUP)),
        Exponent(Scalar(1, TEST_GROUP)),
    )


def test_wrong_witness_seller_declines_a_reference_without_a_blind():
    # A garbage witness is an edit of the honest one, so with no blind to
    # build that from, the seller declines as an honest one does.
    seller = make_seller(Variant.V3, SellerPolicy.CLAIM_WRONG_WITNESS, k=3)
    contract = _contract(DlogLock(crypto.power_of_g(Scalar(1, TEST_GROUP))))
    ref = ContractRef(contract.id, None)
    assert transition(seller, Waiting(""), "on_contract", ref, contract, 0) == (
        Waiting("declined: the contract reference carries no blinding scalar"),
        [],
    )


# ---------------------------------------------------------------------------
# Key recovery and timeouts
# ---------------------------------------------------------------------------

def _settled_exchange(variant, *, k=None, r=None):
    seller = make_seller(variant, k=k)
    buyer = make_buyer(variant, r=r)
    chain = funded_chain()
    assert type(exchange(seller, buyer, chain)) is Claim
    event = chain.read_events(0)[-1]
    assert type(event) is Claimed
    return seller, buyer, chain, event


def test_buyer_recovers_plaintext_v1():
    _, buyer, _, event = _settled_exchange(Variant.V1)
    assert buyer.on_claim(event) == PAYLOAD
    assert buyer.state == Settled(PAYLOAD)


def test_buyer_recovers_plaintext_v2():
    _, buyer, _, event = _settled_exchange(Variant.V2)
    assert buyer.on_claim(event) == PAYLOAD


def test_buyer_recovers_scalar_key_v3():
    # witness x = 1, r = 4: k = x * r^-1 = 1 * 3 = 3, the original exponent.
    _, buyer, _, event = _settled_exchange(Variant.V3, k=3, r=4)
    assert event.witness.x.value == 1
    assert buyer.on_claim(event) == PAYLOAD
    recovered = crypto.scalar_mul(event.witness.x, crypto.scalar_inv(buyer.blind))
    assert recovered.value == 3


def test_on_timer_boundaries():
    # The ledger alone decides when the refund is due: at and before the
    # deadline it refuses one, and the attempt changes nothing.
    seller = make_seller(Variant.V1)
    buyer = make_buyer(Variant.V1)
    chain = funded_chain()
    offer = seller.start()
    (publish,) = buyer.on_offer(offer, chain.current_tick)
    buyer.on_answer(make_request(chain, publish))
    cid = buyer.state.contract_id
    refund = Refund(cid, BUYER)
    deadline = chain.get_contract(cid).deadline
    for tick in (deadline - 1, deadline):
        chain.advance_time(tick - chain.current_tick)
        before = chain.snapshot()
        assert buyer.on_timer() == [refund]
        refusal = make_request(chain, refund)
        assert transition(buyer, Published(offer, cid), "on_answer", refusal) == (
            Published(offer, cid),
            [],
        )
        assert chain.snapshot() == before
        assert chain.get_balance(BUYER) == 200 - PRICE
    chain.advance_time(1)
    assert buyer.on_timer() == [refund]
    assert buyer.on_answer(make_request(chain, refund)) == []
    assert buyer.state == Reimbursed()
    assert chain.get_contract(cid).state is ContractState.REFUNDED
    assert chain.get_balance(BUYER) == 200


def test_on_timer_after_a_refund_asks_for_no_second_refund():
    offer = make_seller(Variant.V1).start()
    buyer = make_buyer(Variant.V1)
    rows = [
        (Published(offer, 1), [Refund(1, BUYER)]),
        # After a refund, the buyer asks for no second one.
        (Reimbursed(), []),
        (Init(), []),
        (Verified(offer), []),
        (Settled(PAYLOAD), []),
        (Aborted(AbortReason.PRICE_MISMATCH), []),
    ]
    for state, outputs in rows:
        assert transition(buyer, state, "on_timer") == (state, outputs), state


def test_on_timer_ignores_settled_contracts():
    _, buyer, chain, event = _settled_exchange(Variant.V1)
    published_state = buyer.state
    chain.advance_time(500)
    # Claimed but not yet read: the ledger refuses the refund.
    before = chain.snapshot()
    (refund,) = buyer.on_timer()
    assert buyer.on_answer(make_request(chain, refund)) == []
    assert chain.snapshot() == before
    assert buyer.state == published_state
    buyer.on_claim(event)
    assert buyer.state == Settled(PAYLOAD)
    assert buyer.on_timer() == []
    assert buyer.state == Settled(PAYLOAD)


def _decrypt_failure(chain):
    """A buyer left in `DecryptFailed`, the claim event, and the key it lacked.

    A dishonest notary commits to one key but encrypts under another; the
    ledger still pays the seller, and the buyer is left with noise.
    """
    rng = random.Random(9)
    committed, actual, nonce = rng.randbytes(32), rng.randbytes(32), rng.randbytes(12)
    ciphertext = crypto.encrypt(actual, PAYLOAD, nonce)
    h1 = crypto.sha256(ciphertext.nonce + ciphertext.body)
    h2 = HashOfKey(crypto.sha256(committed))
    sigma = crypto.sign(NOTARY_KEYS, signing_payload(h1, h2, SELLER))
    package = CertificatePackage(
        key=committed,
        ciphertext=ciphertext,
        certificate=Certificate(h1, h2, SELLER, NOTARY, sigma),
    )
    seller = SellerSession(package, make_terms(Variant.V1), SellerPolicy.HONEST)
    buyer = make_buyer(Variant.V1)
    chain.fund(BUYER, 200)
    (publish,) = buyer.on_offer(seller.start(), chain.current_tick)
    replies = buyer.on_answer(make_request(chain, publish))
    assert replies == [ContractRef(1, None)]  # the certificate itself verifies
    (claim,) = seller.on_message(replies[0], chain.current_tick, chain.find_contract(1))
    assert seller.on_answer(make_request(chain, claim)) == []
    assert seller.state == Paid()
    event = chain.read_events(0)[-1]
    assert buyer.on_claim(event) is None
    return buyer, event, actual


def test_decrypt_failure_marks_session_without_settling():
    buyer, _, _ = _decrypt_failure(Ledger())
    assert buyer.state == DecryptFailed()
    assert buyer.decrypt_failed
    assert buyer.state.status == "contract_published"


def test_decrypt_failed_is_final():
    # Neither a second claim wake, even one whose witness would decrypt, nor
    # a timer moves the buyer on or asks the chain for anything.
    buyer, event, actual = _decrypt_failure(Ledger())
    assert buyer.on_claim(replace(event, witness=Preimage(actual))) is None
    assert buyer.on_timer() == []
    assert buyer.state == DecryptFailed()


# ---------------------------------------------------------------------------
# Message dispatch
# ---------------------------------------------------------------------------

_SELLER_MESSAGES = {
    "ContractRef": ContractRef(1, None),
    "ContractRefWithBlind": ContractRef(1, Scalar(4, TEST_GROUP)),
    "AbortMessage": Abort(AbortReason.PRICE_MISMATCH),
}


@pytest.mark.parametrize("message", _SELLER_MESSAGES.values(), ids=_SELLER_MESSAGES.keys())
@pytest.mark.parametrize("offered", [False, True], ids=["init", "published"])
def test_buyer_ignores_a_message_for_the_seller(message, offered):
    seller = make_seller(Variant.V3)
    buyer = make_buyer(Variant.V3)
    offer = seller.start()
    state = Published(offer, 1) if offered else Init()
    assert transition(buyer, state, "on_message", message, 0, None) == (state, [])


@pytest.mark.parametrize("variant", list(Variant))
def test_a_buyer_that_has_published_ignores_the_offer_again(variant):
    # A duplicated offer must not escrow the price a second time.
    seller = make_seller(variant)
    buyer = make_buyer(variant)
    offer = seller.start()
    for state in (Verified(offer), Published(offer, 1)):
        assert transition(buyer, state, "on_offer", offer, 0) == (state, [])


@pytest.mark.parametrize("variant", list(Variant))
def test_seller_ignores_an_offer(variant):
    seller = make_seller(variant)
    offer = seller.start()
    assert transition(seller, Waiting(""), "on_message", offer, 0, None) == (Waiting(""), [])


def test_seller_lapses_on_an_abort_through_on_message():
    seller = make_seller(Variant.V1)
    assert seller.on_message(Abort(AbortReason.PRICE_MISMATCH), 0) == []
    assert seller.state == Expired("counterparty aborted: price_mismatch")
    assert seller.outcome == "counterparty aborted: price_mismatch"
    # A later abort does not overwrite the first.
    seller.on_message(Abort(AbortReason.BAD_SIGNATURE), 0)
    assert seller.state == Expired("counterparty aborted: price_mismatch")


# ---------------------------------------------------------------------------
# Message serialization
# ---------------------------------------------------------------------------

def test_offer_json_round_trip_all_variants():
    for variant in Variant:
        offer = make_seller(variant).start()
        recovered = message_from_obj(message_to_obj(offer))
        # Whole: no field is lost on the wire, the parties' ids included.
        assert recovered == offer
        assert recovered.certificate.h2.variant is variant


def test_small_message_json_round_trips():
    for r in (None, Scalar(4, TEST_GROUP)):
        ref = ContractRef(contract_id=7, r=r)
        assert message_from_obj(message_to_obj(ref)) == ref
    with pytest.raises(ValueError, match="^a ContractRef needs 'r'$"):
        message_from_obj({"type": "contract_ref", "contract_id": 7})
    abort = Abort(reason=AbortReason.PRICE_MISMATCH)
    assert message_from_obj(message_to_obj(abort)) == abort
    with pytest.raises(ValueError):
        message_from_obj({"type": "mystery"})


def test_abort_with_an_unknown_reason_fails_at_decode():
    # The reason used to be any string, so a peer's text reached the
    # seller's outcome unchecked.
    with pytest.raises(ValueError, match="^reason: 'bogus' is not an AbortReason$"):
        message_from_obj({"type": "abort", "reason": "bogus"})
    assert message_to_obj(Abort(AbortReason.GROUP_MISMATCH)) == {
        "type": "abort",
        "reason": "group_mismatch",
    }


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_flat_offer_of_the_old_format_is_rejected(variant):
    # The certificate's fields used to sit beside the ciphertext, with a
    # free-form meta string; a peer still sending that shape is refused
    # whole, with or without a nested certificate next to the flat copies.
    wire = message_to_obj(make_seller(variant).start())
    flat = {key: value for key, value in wire.items() if key != "certificate"}
    flat.update(wire["certificate"])
    for obj in ({**flat, "meta": "scenario"}, flat, {**wire, **wire["certificate"]}):
        with pytest.raises(ValueError):
            message_from_obj(obj)


def test_decode_errors_pick_the_article_from_the_class_name():
    wire = message_to_obj(make_seller(Variant.V1).start())
    del wire["certificate"]
    with pytest.raises(ValueError, match="an Offer needs 'certificate'"):
        message_from_obj(wire)


def test_certificate_in_an_offer_carries_no_group():
    # The group follows from h2; even a group that agrees with it is refused.
    wire = message_to_obj(make_seller(Variant.V3).start())
    certificate = {**wire["certificate"], "group": "test"}
    with pytest.raises(ValueError, match="unknown keys for a Certificate: .'group'"):
        message_from_obj({**wire, "certificate": certificate})


@pytest.mark.parametrize("price", [60.9, 60.0, True, "60", None], ids=repr)
def test_offer_price_must_be_a_json_integer(price):
    # int() used to turn 60.9 into the agreed price of 60, and true into 1.
    wire = message_to_obj(make_seller(Variant.V1).start())
    with pytest.raises(ValueError):
        message_from_obj({**wire, "price": price})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
# Objects shaped like messages, so decoding gets past the first checks. Their
# byte strings come as hex, as parsed text holds them, or as bytes, as
# `message_to_obj` leaves them.
HEX = st.binary(max_size=16).map(bytes.hex) | st.binary(max_size=16)
GROUP_VALUES = st.fixed_dictionaries(
    {"group": st.sampled_from(["test", "modp4096"]), "value": st.integers(-2, 30)}
)
NEAR_VALUES = JSON_VALUES | HEX | GROUP_VALUES | st.fixed_dictionaries(
    {"type": st.sampled_from(["group_power", "hash_of_key"])},
    optional={"digest": HEX, "element": GROUP_VALUES | JSON_VALUES},
)
NEAR_CERTIFICATES = st.fixed_dictionaries(
    {},
    optional={key: NEAR_VALUES for key in ("h1", "h2", "seller_id", "notary_id", "sigma")},
)
NEAR_MISSES = st.fixed_dictionaries(
    {"type": st.sampled_from(["offer", "contract_ref", "abort", "mystery"])},
    optional={
        "certificate": NEAR_CERTIFICATES | NEAR_VALUES,
        **{key: NEAR_VALUES for key in ("ciphertext", "price", "r", "contract_id", "reason")},
    },
)
V3_OFFER = message_to_obj(make_seller(Variant.V3).start())


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES | NEAR_MISSES)
@example({})  # used to raise KeyError
@example([])  # used to raise TypeError
@example(  # an element outside the subgroup: DomainError, which is a ValueError
    {**V3_OFFER, "certificate": {
        **V3_OFFER["certificate"],
        "h2": {"type": "group_power", "element": {"group": "test", "value": 5}},
    }}
)
def test_message_decoder_raises_only_value_error(obj):
    try:
        message = message_from_obj(obj)
    except ValueError:
        return
    # Whatever decodes is a message that encodes back to the same data.
    assert message_from_obj(json.loads(codec.dumps(message_to_obj(message)))) == message


def test_bytes_keys_are_a_value_error_under_bb():
    # Under `python -bb` a bytes key met beside its str twin in a lookup
    # raises BytesWarning, so the decoder refuses such a dict before looking.
    code = "\n".join([
        "from sedg.protocol import message_from_obj",
        "for obj in (",
        "    {b'type': 'abort'},",
        "    {'type': 'abort', b'reason': 'x'},",
        "    {'type': 'contract_ref', b'contract_id': 1},",
        "    {'type': 'contract_ref', 'contract_id': 1, 'r': {'value': 1, b'group': 'test'}},",
        "):",
        "    try:",
        "        message_from_obj(obj)",
        "    except ValueError:",
        "        continue",
        "    raise AssertionError(f'decoded {obj!r}')",
    ])
    src = os.path.dirname(os.path.dirname(crypto.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-bb", "-c", code], check=True, env={**os.environ, "PYTHONPATH": path}
    )


HEXISH = st.text(alphabet="0123456789abcdefABCDEF \t\n\x00\u00e9")


@settings(max_examples=300, deadline=None)
@given(st.text() | HEXISH | st.binary(max_size=16).map(bytes.hex))
@example(" ab cd ")  # bytes.fromhex skipped the spaces
@example("ab\tcd")
@example("AB")
def test_bytes_decode_only_from_their_one_lowercase_hex(text):
    try:
        value = codec.decoder(bytes)(text)
    except ValueError:
        return
    assert value.hex() == text


# ---------------------------------------------------------------------------
# Data form: bytes in data, lowercase hex in text
# ---------------------------------------------------------------------------

def test_offer_data_holds_the_ciphertext_itself():
    offer = make_seller(Variant.V3).start()
    obj = message_to_obj(offer)
    assert obj["ciphertext"]["body"] is offer.ciphertext.body
    assert message_from_obj(obj).ciphertext.body is offer.ciphertext.body


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64))
def test_bytes_decode_alike_from_bytes_and_from_their_hex(value):
    decode = codec.decoder(bytes)
    assert decode(value) == decode(value.hex()) == value


@pytest.mark.parametrize(
    "obj",
    [
        "AB", "aB", "abc", "\u00e9\u00e9", "ab cd", bytearray(b"ab"),
        # repr(memoryview) holds an address, which would change the id per run.
        pytest.param(memoryview(b"ab"), id="memoryview(b'ab')"),
        171, None,
    ],
    ids=repr,
)
def test_bytes_decoder_rejects_every_other_spelling_and_type(obj):
    with pytest.raises(ValueError):
        codec.decoder(bytes)(obj)


def test_bytes_for_a_str_field_are_rejected():
    # Under -bb, an enum decoder that compared bytes with its str values
    # would raise BytesWarning here instead.
    with pytest.raises(ValueError):
        codec.decoder(str)(b"honest")
    with pytest.raises(ValueError):
        message_from_obj({"type": "abort", "reason": b"bad_signature"})
    with pytest.raises(ValueError):
        message_from_obj({"type": b"abort", "reason": "bad_signature"})


def test_null_decodes_only_where_a_field_may_be_none():
    with pytest.raises(ValueError):
        message_from_obj(None)
    honest = message_to_obj(make_seller(Variant.V1).start())
    with pytest.raises(ValueError, match="^certificate: h2: "):
        message_from_obj({**honest, "certificate": {**honest["certificate"], "h2": None}})


def test_a_type_with_no_json_form_has_no_codec():
    with pytest.raises(TypeError, match="^no JSON form for <class 'float'>$"):
        codec.encoder(float)


def test_dumps_writes_bytes_as_lowercase_hex_and_nothing_else_new():
    assert codec.dumps({"a": b"\x00\xab", "b": [b""]}) == '{"a":"00ab","b":[""]}'
    for value in (bytearray(b"ab"), {1, 2}, 1j):
        with pytest.raises(TypeError):
            codec.dumps({"a": value})


@pytest.mark.parametrize(
    "message, text",
    [
        (
            make_seller(Variant.V3).start(),
            '{"type":"offer","certificate":{"h1":"5267b86902926225b9f98d542745aec9e7d96d029516b'
            'ac5f3b806f09440d335","h2":{"type":"group_power","element":{"group":"test","value"'
            ':2}},"seller_id":"73656c6c65722d31","notary_id":"6e6f746172792d31","sigma":"3ada47'
            'b3318f6fb4330334bf82edff45400daba94013e10bbab5dd0b7c31bbfc68a071d4839503798c08a3a0'
            '759cbec41638efe8b750de7423baca6e7a1edf0c"},"ciphertext":{"nonce":"2441e3d54410492'
            'b788768bc","body":"89ca1ac6845245b1453f824b666c5a173ffe31ec8edef5fe02"},"price":60}',
        ),
        (ContractRef(3, None), '{"type":"contract_ref","contract_id":3,"r":null}'),
        (
            ContractRef(3, Scalar(5, TEST_GROUP)),
            '{"type":"contract_ref","contract_id":3,"r":{"group":"test","value":5}}',
        ),
        (Abort(AbortReason.BAD_SIGNATURE), '{"type":"abort","reason":"bad_signature"}'),
    ],
    ids=["offer", "contract_ref", "contract_ref_with_blind", "abort"],
)
def test_message_text_is_pinned_and_decodes_alike_from_data_and_text(message, text):
    obj = message_to_obj(message)
    assert codec.dumps(obj) == text
    assert message_from_obj(obj) == message_from_obj(json.loads(text)) == message
