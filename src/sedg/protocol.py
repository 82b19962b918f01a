"""Seller and buyer state machines for the transaction phase.

Sessions act on the chain they are handed: each handler consumes one
message or wake-up, performs its own ledger operations (the buyer publishes
and refunds, the seller claims), and returns the messages to send. Each
session's `on_message` picks the handler for a peer's message and ignores
a type it does not take. The harness owns what neither party controls:
delivery order, wake-ups and expiry. It decides what woke the buyer:
`on_claim` gets the claim event the harness found on the chain, and
`on_timer` asks the ledger for a refund, which the ledger grants only past
the deadline. So the same session code runs under the deterministic
scenario runner and under exhaustive adversarial scheduling.

Deviation policies model the classic failure modes of an unprotected trade:
a buyer who never pays or underpays, a seller who withholds the key, claims
with garbage, or ships corrupted goods. A buyer's abort names its
`AbortReason`, so a peer's reason outside that vocabulary fails at decode.

Sessions hold no random-number state. Each is given a function that builds
its random stream (the harness seeds it from the scenario seed and the
role), and every handler that needs randomness builds a fresh stream once
per call. In any run the harness drives, a handler that draws runs at most
once per session, so its values do not depend on the schedule. Nor do
sessions keep the chain: it is an argument of every handler that touches
it. So a checkpoint of a session is a shallow copy of its fields.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, ClassVar, Mapping, Union

from . import cert, codec, crypto, ledger
from .cert import (
    AbortReason,
    Certificate,
    CertificatePackage,
    Commitment2,
    GroupPower,
    HashOfKey,
    HashOfKeyAndNotary,
    PartyId,
    Variant,
)
from .crypto import Ciphertext, GroupParams, Scalar
from .ledger import (
    Condition,
    DlogLock,
    HashLock,
    Ledger,
    LedgerEvent,
    NotaryHashLock,
    Witness,
    address_for,
)


@dataclass(frozen=True)
class Terms:
    """What buyer and seller agree on before the offer; each session holds it."""

    variant: Variant
    price: int
    notary_fee: int
    deadline_offset: int
    group: GroupParams


class SellerPolicy(Enum):
    """How the seller plays. The sending deviations alter the genuine offer:
    one bit of the ciphertext, or the commitment `h2` (`_mismatched_h2`)."""

    HONEST = "honest"
    WITHHOLD_KEY = "withhold_key"
    CLAIM_WRONG_WITNESS = "claim_wrong_witness"
    SEND_CORRUPT_CIPHERTEXT = "send_corrupt_ciphertext"
    SEND_MISMATCHED_H2 = "send_mismatched_h2"


@dataclass(frozen=True)
class ScenarioReport:
    """Terminal-state summary of one run, the observable fairness is judged on.

    Every flag is computed from ledger events and session terminal states
    alone; balances are keyed by role name.
    """

    variant: str
    seed: int
    seller_state: str
    buyer_state: str
    buyer_has_plaintext: bool
    seller_paid: bool
    notary_paid: bool
    buyer_refunded: bool
    buyer_decrypt_failed: bool
    abort_reason: str | None
    balances: dict[str, int]
    price: int
    event_count: int
    event_log_path: str | None = None


class BuyerPolicy(Enum):
    HONEST = "honest"
    NEVER_PUBLISH_CONTRACT = "never_publish_contract"
    PUBLISH_UNDERPRICED_CONTRACT = "publish_underpriced_contract"
    REFUND_EAGERLY = "refund_eagerly"


# ---------------------------------------------------------------------------
# Off-chain messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Offer:
    """The notary's certificate, the ciphertext it binds, and the asking price.

    The seller forwards the certificate the notary signed, and the buyer
    verifies exactly what it received. The variant is the certificate's:
    it follows from the commitment `h2`, so an offer cannot claim one
    flavour while committing in another.
    """

    certificate: Certificate
    ciphertext: Ciphertext
    price: int


@dataclass(frozen=True)
class Blind:
    """The buyer's blinding scalar, sent over the private channel only."""

    r: Scalar


@dataclass(frozen=True)
class ContractRef:
    contract_id: int


@dataclass(frozen=True)
class AbortMessage:
    wire_tag: ClassVar[str] = "abort"

    reason: AbortReason


ProtocolMessage = Union[Offer, Blind, ContractRef, AbortMessage]


def message_to_obj(message: ProtocolMessage) -> dict:
    return _encode_message(message)


def message_from_obj(obj: object) -> ProtocolMessage:
    """Decode a peer's message; raises ValueError on anything malformed."""
    return _decode_message(obj)


_encode_message = codec.encoder(ProtocolMessage)
_decode_message = codec.decoder(ProtocolMessage)


# ---------------------------------------------------------------------------
# Buyer session
# ---------------------------------------------------------------------------

class BuyerState(Enum):
    INIT = "init"
    VERIFIED = "verified"
    CONTRACT_PUBLISHED = "contract_published"
    SETTLED = "settled"
    REFUNDED = "refunded"
    ABORTED = "aborted"


RngFactory = Callable[[], random.Random]


class _Session:
    """Checkpointing shared by both sessions.

    Handlers rebind fields and never mutate a field's value in place, and
    no field holds random-number state or the chain, so a shallow copy of
    the fields is a full checkpoint.
    """

    def checkpoint(self) -> dict:
        return dict(vars(self))

    def restore(self, saved: dict) -> None:
        vars(self).update(saved)


class BuyerSession(_Session):
    """The paying side: verify the offer, escrow the price, recover the key."""

    def __init__(
        self,
        terms: Terms,
        address: bytes,
        seller: PartyId,
        trusted_notaries: Mapping[bytes, bytes],
        policy: BuyerPolicy,
        new_rng: RngFactory,
    ) -> None:
        self.terms = terms
        self.address = address
        self.seller = seller
        self.trusted_notaries = trusted_notaries
        self.policy = policy
        self.new_rng = new_rng
        self.state = BuyerState.INIT
        self.offer: Offer | None = None
        self.contract_id: int | None = None
        self.blind: Scalar | None = None
        self.plaintext: bytes | None = None
        self.decrypt_failed = False
        self.abort_reason: AbortReason | None = None

    def on_offer(self, offer: Offer, chain: Ledger) -> list[ProtocolMessage]:
        """Verify and, unless policy or verification says otherwise, escrow the price.

        Returns the replies to send, in order: the blind first for a dlog
        offer, then the contract reference or the abort.
        """
        if self.state is not BuyerState.INIT:
            return []
        self.offer = offer
        certificate = offer.certificate
        h2 = certificate.h2

        terms = self.terms
        if offer.price != terms.price:
            return self._abort(AbortReason.PRICE_MISMATCH)
        if certificate.variant is not terms.variant:
            return self._abort(AbortReason.VARIANT_MISMATCH)
        rejection = cert.verify_certificate(
            certificate, self.trusted_notaries, self.seller, offer.ciphertext
        )
        if rejection is not None:
            return self._abort(rejection)
        if certificate.group not in (None, terms.group):
            return self._abort(AbortReason.GROUP_MISMATCH)
        self.state = BuyerState.VERIFIED

        if self.policy is BuyerPolicy.NEVER_PUBLISH_CONTRACT:
            return []

        amount = terms.price
        if self.policy is BuyerPolicy.PUBLISH_UNDERPRICED_CONTRACT:
            # Half the price, raised above the notary fee where the price
            # leaves room, but always below the price: legal and underpriced.
            amount = min(terms.price - 1, max(terms.notary_fee + 1, terms.price // 2))

        replies: list[ProtocolMessage] = []
        condition: Condition
        if isinstance(h2, HashOfKey):
            condition = HashLock(h2=h2.digest)
        elif isinstance(h2, HashOfKeyAndNotary):
            condition = NotaryHashLock(h2=h2.digest, fee=terms.notary_fee)
        else:
            self.blind = crypto.draw_scalar(self.new_rng(), terms.group)
            condition = DlogLock(c=crypto.element_pow(h2.element, self.blind))
            replies.append(Blind(self.blind))

        try:
            self.contract_id = chain.publish_contract(
                payer=self.address,
                payee=address_for(certificate.seller_id.id),
                amount=amount,
                condition=condition,
                deadline=chain.current_tick + terms.deadline_offset,
            )
        except ledger.InsufficientFunds:
            return replies + self._abort(AbortReason.INSUFFICIENT_FUNDS)
        self.state = BuyerState.CONTRACT_PUBLISHED
        return replies + [ContractRef(self.contract_id)]

    def on_message(self, message: ProtocolMessage, chain: Ledger) -> list[ProtocolMessage]:
        """Answer an offer; the buyer takes no other message."""
        return self.on_offer(message, chain) if isinstance(message, Offer) else []

    def on_claim(self, event: LedgerEvent) -> bytes | None:
        """Recover the key from the witness of the claim on this buyer's contract.

        The caller hands over the chain's `CLAIMED` event for the contract this
        session published. A failed authenticated decrypt marks the session
        rather than raising: the funds are already gone, which is exactly what
        the fairness report needs to surface. Unreachable when the notary was
        honest, since the ledger only accepts witnesses that open the
        committed key.
        """
        if self.state is not BuyerState.CONTRACT_PUBLISHED:
            return None
        witness = event.witness
        if isinstance(witness, ledger.Exponent):
            recovered = crypto.scalar_mul(witness.x, crypto.scalar_inv(self.blind))
            key = crypto.symmetric_key_for_scalar(recovered)
        else:
            key = witness.x
        try:
            self.plaintext = crypto.decrypt(key, self.offer.ciphertext)
        except (crypto.AuthenticationFailure, ValueError):
            self.decrypt_failed = True
            return None
        self.state = BuyerState.SETTLED
        return self.plaintext

    def on_timer(self, chain: Ledger) -> None:
        """Ask the chain for the escrow back while the contract is still published.

        The ledger alone decides whether the refund is due: before the
        deadline it raises NotExpired, after a claim AlreadySettled, and a
        rejected refund changes nothing.
        """
        if self.state is not BuyerState.CONTRACT_PUBLISHED:
            return
        try:
            chain.refund(self.contract_id, self.address)
        except ledger.LedgerError:
            return
        self.state = BuyerState.REFUNDED

    def _abort(self, reason: AbortReason) -> list[ProtocolMessage]:
        self.state = BuyerState.ABORTED
        self.abort_reason = reason
        return [AbortMessage(reason)]


# ---------------------------------------------------------------------------
# Seller session
# ---------------------------------------------------------------------------

class SellerState(Enum):
    """The states a seller's run can end in; it is done once it leaves OFFER_SENT."""

    OFFER_SENT = "offer_sent"
    CLAIMED = "claimed"
    EXPIRED = "expired"


class ContractMismatch(Exception):
    """The published contract does not pay the agreed terms; decline to claim."""


class SellerSession(_Session):
    """The selling side: make the offer, then claim by publishing the witness."""

    def __init__(
        self,
        package: CertificatePackage,
        terms: Terms,
        address: bytes,
        policy: SellerPolicy,
        new_rng: RngFactory,
    ) -> None:
        # The witness must open the package's commitment under the agreed lock.
        if terms.variant is not package.certificate.variant:
            raise ValueError(
                f"{terms.variant.value} terms for a {package.certificate.variant.value} package"
            )
        self.package = package
        self.terms = terms
        self.address = address
        self.policy = policy
        self.new_rng = new_rng
        self.state = SellerState.OFFER_SENT
        self.blind: Scalar | None = None
        self.contract_id: int | None = None
        self.claim_attempted = False
        self.outcome = ""

    @property
    def terminal(self) -> bool:
        return self.state is not SellerState.OFFER_SENT

    def start(self) -> Offer:
        """Produce the offer, faithful or corrupted according to policy."""
        certificate = self.package.certificate
        ciphertext = self.package.ciphertext
        if self.policy is SellerPolicy.SEND_CORRUPT_CIPHERTEXT:
            # Flip the low bit of byte 0, copying the body once.
            body = ciphertext.body
            flipped = b"".join((bytes((body[0] ^ 0x01,)), memoryview(body)[1:]))
            ciphertext = Ciphertext(nonce=ciphertext.nonce, body=flipped)
        elif self.policy is SellerPolicy.SEND_MISMATCHED_H2:
            certificate = replace(certificate, h2=self._mismatched_h2())
        return Offer(certificate, ciphertext, self.terms.price)

    def on_message(self, message: ProtocolMessage, chain: Ledger) -> list[ProtocolMessage]:
        """Act on the buyer's blind, contract reference or abort; the seller never replies."""
        if isinstance(message, Blind):
            self.on_blind(message.r, chain)
        elif isinstance(message, ContractRef):
            self.on_contract(message.contract_id, chain)
        elif isinstance(message, AbortMessage) and not self.terminal:
            self.state = SellerState.EXPIRED
            self.outcome = f"counterparty aborted: {message.reason.value}"
        return []

    def on_blind(self, r: Scalar, chain: Ledger) -> None:
        if self.terminal:
            return
        self.blind = r
        if self.contract_id is not None:
            self._claim(chain)

    def on_contract(self, contract_id: int, chain: Ledger) -> None:
        """Read the referenced contract and claim it, or wait for the blind (dlog)."""
        try:
            chain.get_contract(contract_id)
        except ledger.UnknownContract:
            return
        if self.terminal or self.claim_attempted:
            return
        self.contract_id = contract_id
        if self.terms.variant is not Variant.V3 or self.blind is not None:
            self._claim(chain)

    def on_timer(self) -> None:
        if not self.terminal:
            self.state = SellerState.EXPIRED
            if not self.outcome:
                self.outcome = "deadline passed without settlement"

    def build_witness(
        self, chain: Ledger, contract_id: int, blind: Scalar | None = None
    ) -> Witness:
        """The honest witness, once the chain shows a claim on the contract would pay.

        Raises ContractMismatch unless a claim with the witness pays the agreed
        split (for v2, the price less the fee, and the fee to the notary the
        witness names) and `chain.check_claim` accepts the witness.
        """
        witness = self._honest_witness(blind)
        agreed = (ledger.Payout(self.address, self.terms.price),)
        if self.terms.variant is Variant.V2:
            agreed = (
                ledger.Payout(self.address, self.terms.price - self.terms.notary_fee),
                ledger.Payout(address_for(witness.notary_id), self.terms.notary_fee),
            )
        try:
            # Compared first, so a contract that underpays costs no exponentiation.
            if ledger.claim_payouts(chain.get_contract(contract_id), witness) != agreed:
                raise ContractMismatch("contract does not pay the agreed split")
            chain.check_claim(contract_id, witness)
        except ledger.LedgerError as exc:
            raise ContractMismatch(str(exc)) from exc
        return witness

    def _honest_witness(self, blind: Scalar | None) -> Witness:
        """The witness that opens the certificate's commitment (v3: blinded by `blind`)."""
        certificate = self.package.certificate
        if self.terms.variant is Variant.V1:
            return ledger.Preimage(self.package.key)
        if self.terms.variant is Variant.V2:
            return ledger.PreimageWithNotary(self.package.key, certificate.notary_id.id)
        if blind is None:
            raise ContractMismatch("no blinding scalar received yet")
        group = certificate.group
        if blind.params != group:
            raise ContractMismatch("blinding scalar from a different group")
        exponent = crypto.scalar_from_key(self.package.key, group)
        # h2 = g^k and g has order q, so the buyer's h2^r is g^(k*r mod q) = g^x.
        return ledger.Exponent(crypto.scalar_mul(exponent, blind))

    def _claim(self, chain: Ledger) -> None:
        """Claim the stored contract, deciding on the chain's state at delivery."""
        if self.policy is SellerPolicy.WITHHOLD_KEY:
            self.outcome = "withheld the key"
            return
        try:
            if self.policy is SellerPolicy.CLAIM_WRONG_WITNESS:
                witness = self._garbage_witness()
            else:
                witness = self.build_witness(chain, self.contract_id, self.blind)
        except ContractMismatch as exc:
            self.outcome = f"declined: {exc}"
            return
        self.claim_attempted = True
        try:
            chain.claim(self.contract_id, witness)
        except ledger.LedgerError as exc:
            self.outcome = f"claim rejected: {exc}"
            return
        self.state = SellerState.CLAIMED

    def _mismatched_h2(self) -> Commitment2:
        """The certificate's `h2`, altered but still well formed and never unchanged.

        v3 multiplies the element by g; v1 and v2 flip one bit of the digest.
        """
        h2 = self.package.certificate.h2
        if isinstance(h2, GroupPower):
            return GroupPower(crypto.element_mul(h2.element, h2.element.params.generator))
        return replace(h2, digest=bytes([h2.digest[0] ^ 0x01]) + h2.digest[1:])

    def _garbage_witness(self) -> Witness:
        """The honest witness with a fresh `x` in place of the true one."""
        honest = self._honest_witness(self.blind)
        rng = self.new_rng()
        while True:
            if isinstance(honest, ledger.Exponent):
                x = crypto.draw_scalar(rng, honest.x.params)
            else:
                x = rng.randbytes(crypto.KEY_LEN)
            if x != honest.x:
                return replace(honest, x=x)
