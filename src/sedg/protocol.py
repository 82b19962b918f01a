"""Seller and buyer state machines for the transaction phase.

Sessions do no I/O. A handler takes one message or wake-up and the facts it
reads, the tick and for the seller the contract a reference names, and
returns the messages to send and its party's chain requests
(`ledger.Publish`, `Claim`, `Refund`); the harness makes each and hands the
answer, an event or a refusal, back through `on_answer`. The buyer answers
an offer with one message: its contract reference, which for v3 carries the
blinding scalar, or its abort. So the seller claims on the one message it
receives, from that reference alone, and never waits for a second or keeps
the reference. Each session's `on_message` picks the handler for a peer's
message and ignores a type it does not take. The harness owns what neither
party controls: delivery order, wake-ups and expiry. It decides what woke
the buyer: `on_claim` gets the claim event the harness found on the chain,
and `on_timer` asks for a refund, which the chain grants only past the
deadline. So the same session code runs under the deterministic scenario
runner and under exhaustive adversarial scheduling. The seller builds the
witness its certificate names, as the buyer picks its lock from the offer's
`h2`; from its terms the seller reads only price and fee.

Deviation policies model the classic failure modes of an unprotected trade:
a buyer who never pays or underpays, a seller who withholds the key, claims
with garbage, or ships corrupted goods. A buyer's abort names its
`AbortReason`, so a peer's reason outside that vocabulary fails at decode.

No session draws. Each is handed what its party holds: both the agreed terms,
the seller its certificate package and the buyer its id and v3 blind, which
the harness draws from the scenario seed. A party's account on the chain is
its id, and the seller's is the one its certificate names. Besides those
constants a session holds one `state`, a frozen record per state that holds
only the fields valid in it and names the `status` a report prints. A handler
replaces the record, so a session's checkpoint is its state record.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import ClassVar, Mapping, Union

from . import cert, codec, crypto, ledger
from .cert import (
    AbortReason,
    Certificate,
    CertificatePackage,
    Commitment2,
    GroupPower,
    HashOfKey,
    HashOfKeyAndNotary,
    Variant,
)
from .crypto import Ciphertext, GroupParams, Scalar
from .ledger import (
    Claimed,
    Condition,
    DlogLock,
    EscrowContract,
    HashLock,
    LedgerEvent,
    NotaryHashLock,
    Witness,
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
    """How the seller plays. Each deviation is a fixed edit of the honest offer
    or witness: `_flip` on the ciphertext's nonce, `_mismatched_h2`, `_garbage_witness`."""

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
class ContractRef:
    """The buyer's escrow contract and, for v3, the blinding scalar `r` the
    seller needs to claim it and the chain never sees; v1/v2 send `r=None`."""

    contract_id: int
    r: Scalar | None


@dataclass(frozen=True)
class Abort:
    reason: AbortReason


ProtocolMessage = Union[Offer, ContractRef, Abort]


message_to_obj = codec.encoder(ProtocolMessage)
# Decodes a peer's message; raises ValueError on anything malformed.
message_from_obj = codec.decoder(ProtocolMessage)


# What a handler returns: messages for the peer and requests for the chain.
Output = Union[ProtocolMessage, ledger.ChainRequest]


# ---------------------------------------------------------------------------
# Buyer session
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Init:
    status: ClassVar[str] = "init"


@dataclass(frozen=True)
class Verified:
    status: ClassVar[str] = "verified"
    offer: Offer


@dataclass(frozen=True)
class Published:
    status: ClassVar[str] = "contract_published"
    offer: Offer
    contract_id: int


@dataclass(frozen=True)
class Settled:
    status: ClassVar[str] = "settled"
    plaintext: bytes


@dataclass(frozen=True)
class DecryptFailed:
    """Paid, but the claim's witness did not decrypt the offer; final."""

    status: ClassVar[str] = "contract_published"


@dataclass(frozen=True)
class Reimbursed:
    status: ClassVar[str] = "refunded"


@dataclass(frozen=True)
class Aborted:
    status: ClassVar[str] = "aborted"
    reason: AbortReason


class BuyerSession:
    """The paying side: verify the offer, escrow the price, recover the key."""

    state: Init | Verified | Published | Settled | DecryptFailed | Reimbursed | Aborted

    def __init__(
        self,
        terms: Terms,
        party_id: bytes,
        seller: bytes,
        trusted_notaries: Mapping[bytes, bytes],
        policy: BuyerPolicy,
        blind: Scalar | None,
    ) -> None:
        self.terms = terms
        self.party_id = party_id
        self.seller = seller
        self.trusted_notaries = trusted_notaries
        self.policy = policy
        self.blind = blind
        self.state = Init()

    @property
    def abort_reason(self) -> AbortReason | None:
        return self.state.reason if isinstance(self.state, Aborted) else None

    @property
    def decrypt_failed(self) -> bool:
        return isinstance(self.state, DecryptFailed)

    def on_offer(self, offer: Offer, tick: int) -> list[Output]:
        """Verify and, unless policy or verification says otherwise, ask to escrow the price.

        Returns the abort, or the escrow's `Publish`, whose answer becomes
        the one reply.
        """
        if not isinstance(self.state, Init):
            return []
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
        self.state = Verified(offer)

        if self.policy is BuyerPolicy.NEVER_PUBLISH_CONTRACT:
            return []

        amount = terms.price
        if self.policy is BuyerPolicy.PUBLISH_UNDERPRICED_CONTRACT:
            # Half the price, raised above the notary fee where the price
            # leaves room, but always below the price: legal and underpriced.
            amount = min(terms.price - 1, max(terms.notary_fee + 1, terms.price // 2))

        condition: Condition
        if isinstance(h2, HashOfKey):
            condition = HashLock(h2=h2.digest)
        elif isinstance(h2, HashOfKeyAndNotary):
            condition = NotaryHashLock(h2=h2.digest, fee=terms.notary_fee)
        else:
            condition = DlogLock(c=crypto.element_pow(h2.element, self.blind))
        deadline = tick + terms.deadline_offset
        return [ledger.Publish(self.party_id, certificate.seller_id, amount, condition, deadline)]

    def on_message(
        self, message: ProtocolMessage, tick: int, contract: EscrowContract | None = None
    ) -> list[Output]:
        """Answer an offer; the buyer takes no other message."""
        return self.on_offer(message, tick) if isinstance(message, Offer) else []

    def on_answer(self, answer: LedgerEvent | Exception) -> list[Output]:
        """Take the chain's answer to this buyer's request: an event or a refusal.

        A published escrow is announced by the contract reference, so the v3
        blind leaves the buyer only with a contract on the chain. A refused
        one aborts: under terms `harness.make_config` accepts, only a short
        balance refuses it.
        """
        if isinstance(self.state, Verified):
            if not isinstance(answer, ledger.ContractPublished):
                return self._abort(AbortReason.INSUFFICIENT_FUNDS)
            self.state = Published(self.state.offer, answer.contract_id)
            return [ContractRef(answer.contract_id, self.blind)]
        if isinstance(self.state, Published) and isinstance(answer, ledger.Refunded):
            self.state = Reimbursed()
        return []

    def on_claim(self, event: Claimed) -> bytes | None:
        """Recover the key from the witness of the claim on this buyer's contract.

        The caller hands over the chain's `Claimed` event for the contract this
        session published. A failed authenticated decrypt ends the session in
        `DecryptFailed` rather than raising: the funds are already gone, which
        is exactly what the fairness report needs to surface. Unreachable when
        the notary was honest, since the ledger only accepts witnesses that
        open the committed key.
        """
        if not isinstance(self.state, Published):
            return None
        witness = event.witness
        if isinstance(witness, ledger.Exponent):
            recovered = crypto.scalar_mul(witness.x, crypto.scalar_inv(self.blind))
            key = crypto.symmetric_key_for_scalar(recovered)
        else:
            key = witness.x
        try:
            plaintext = crypto.decrypt(key, self.state.offer.ciphertext)
        except (crypto.AuthenticationFailure, ValueError):
            self.state = DecryptFailed()
            return None
        self.state = Settled(plaintext)
        return plaintext

    def on_timer(self) -> list[Output]:
        """Ask for the escrow back while the contract is still published.

        The chain alone decides whether the refund is due: it refuses one
        before the deadline or after a claim, and a refusal changes nothing.
        """
        if not isinstance(self.state, Published):
            return []
        return [ledger.Refund(self.state.contract_id, self.party_id)]

    def _abort(self, reason: AbortReason) -> list[Output]:
        self.state = Aborted(reason)
        return [Abort(reason)]


# ---------------------------------------------------------------------------
# Seller session
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Waiting:
    """No claim sent: nothing tried yet, the key withheld, or a contract declined."""

    status: ClassVar[str] = "offer_sent"
    outcome: str


@dataclass(frozen=True)
class Refused:
    """The chain refused the seller's one claim; no later reference is acted on."""

    status: ClassVar[str] = "offer_sent"
    outcome: str


@dataclass(frozen=True)
class Paid:
    status: ClassVar[str] = "claimed"


@dataclass(frozen=True)
class Expired:
    status: ClassVar[str] = "expired"
    outcome: str


class SellerSession:
    """The selling side: make the offer, then claim by publishing the witness."""

    state: Waiting | Refused | Paid | Expired

    def __init__(
        self,
        package: CertificatePackage,
        terms: Terms,
        policy: SellerPolicy,
    ) -> None:
        self.package = package
        self.terms = terms
        self.party_id = package.certificate.seller_id
        self.policy = policy
        self.state = Waiting("")

    @property
    def outcome(self) -> str:
        return "" if isinstance(self.state, Paid) else self.state.outcome

    def start(self) -> Offer:
        """Produce the offer, faithful or corrupted according to policy."""
        certificate = self.package.certificate
        ciphertext = self.package.ciphertext
        if self.policy is SellerPolicy.SEND_CORRUPT_CIPHERTEXT:
            ciphertext = Ciphertext(nonce=_flip(ciphertext.nonce), body=ciphertext.body)
        elif self.policy is SellerPolicy.SEND_MISMATCHED_H2:
            certificate = replace(certificate, h2=self._mismatched_h2())
        return Offer(certificate, ciphertext, self.terms.price)

    def on_message(
        self, message: ProtocolMessage, tick: int, contract: EscrowContract | None = None
    ) -> list[Output]:
        """Act on the buyer's contract reference, given the contract it names,
        or on its abort; the seller never replies."""
        if isinstance(message, ContractRef):
            return self.on_contract(message, contract, tick)
        if isinstance(message, Abort) and isinstance(self.state, (Waiting, Refused)):
            self.state = Expired(f"counterparty aborted: {message.reason.value}")
        return []

    def on_contract(
        self, ref: ContractRef, contract: EscrowContract | None, tick: int
    ) -> list[Output]:
        """Claim the referenced contract, deciding on its record at `tick`.

        Only a v3 witness uses the reference's blind; the seller keeps neither.
        """
        if contract is None:
            return []
        if not isinstance(self.state, Waiting):
            return []
        if self.policy is SellerPolicy.WITHHOLD_KEY:
            self.state = Waiting("withheld the key")
            return []
        if self.policy is SellerPolicy.CLAIM_WRONG_WITNESS:
            witness = self._garbage_witness(ref.r)
        else:
            witness = self.build_witness(contract, tick, ref.r)
        if isinstance(witness, str):
            self.state = Waiting(f"declined: {witness}")
            return []
        return [ledger.Claim(ref.contract_id, witness)]

    def on_answer(self, answer: LedgerEvent | Exception) -> list[Output]:
        """Take the chain's answer to this seller's one claim: paid, or refused for good."""
        if not isinstance(self.state, Waiting):
            return []
        claimed = isinstance(answer, Claimed)
        self.state = Paid() if claimed else Refused(f"claim rejected: {answer}")
        return []

    def on_timer(self) -> None:
        if isinstance(self.state, (Waiting, Refused)):
            self.state = Expired(self.state.outcome or "deadline passed without settlement")

    def build_witness(
        self, contract: EscrowContract, tick: int, blind: Scalar | None = None
    ) -> Witness | str:
        """The honest witness, if a claim with it on `contract` at `tick` would pay.

        Otherwise the reason to decline: a claim with the witness must pay
        the agreed split (for v2, the price less the fee, and the fee to the
        notary the witness names), and `ledger.claim_refusal` must accept it.
        """
        witness = self._honest_witness(blind)
        if isinstance(witness, str):
            return witness
        agreed = (ledger.Payout(self.party_id, self.terms.price),)
        if self.package.certificate.variant is Variant.V2:
            agreed = (
                ledger.Payout(self.party_id, self.terms.price - self.terms.notary_fee),
                ledger.Payout(witness.notary_id, self.terms.notary_fee),
            )
        # Compared first, so a contract that underpays costs no exponentiation.
        if ledger.claim_payouts(contract, witness) != agreed:
            return "contract does not pay the agreed split"
        return ledger.claim_refusal(contract, witness, tick) or witness

    def _honest_witness(self, blind: Scalar | None) -> Witness | str:
        """The witness that opens the certificate's commitment (v3: blinded by
        `blind`), or the reason no blind can be used."""
        certificate = self.package.certificate
        if certificate.variant is Variant.V1:
            return ledger.Preimage(self.package.key)
        if certificate.variant is Variant.V2:
            return ledger.PreimageWithNotary(self.package.key, certificate.notary_id)
        if blind is None:
            return "the contract reference carries no blinding scalar"
        group = certificate.group
        if blind.params != group:
            return "blinding scalar from a different group"
        exponent = crypto.scalar_from_key(self.package.key, group)
        # h2 = g^k and g has order q, so the buyer's h2^r is g^(k*r mod q) = g^x.
        return ledger.Exponent(crypto.scalar_mul(exponent, blind))

    def _mismatched_h2(self) -> Commitment2:
        """The certificate's `h2`, altered but still well formed and never unchanged.

        v3 multiplies the element by g; v1 and v2 flip one bit of the digest.
        """
        h2 = self.package.certificate.h2
        if isinstance(h2, GroupPower):
            return GroupPower(crypto.element_mul(h2.element, h2.element.params.generator))
        return replace(h2, digest=_flip(h2.digest))

    def _garbage_witness(self, blind: Scalar | None) -> Witness | str:
        """The honest witness for `blind` with `x` edited: v1 and v2 flip one bit
        of the key, and v3 takes the next scalar in [1, q-1], wrapping q-1 to 1."""
        honest = self._honest_witness(blind)
        if isinstance(honest, str):
            return honest
        x = honest.x
        if isinstance(x, Scalar):
            return replace(honest, x=crypto.scalar_from_int(x.value, x.params))
        return replace(honest, x=_flip(x))


def _flip(data: bytes) -> bytes:
    """`data` with the low bit of byte 0 flipped."""
    return bytes((data[0] ^ 0x01,)) + data[1:]
