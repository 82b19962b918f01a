"""Escrowed exchange of encrypted data over a simulated ledger.

Three protocol variants share one shape: a notary certifies an encrypted
payload off-chain, the buyer escrows the price behind a condition only the
real key can open, and the seller's on-chain claim simultaneously collects
payment and hands the buyer the key. The harness checks that atomicity
claim mechanically, under every message ordering an adversarial scheduler
can produce.
"""
from .cert import (
    Certificate,
    CertificatePackage,
    Variant,
    notarize,
    verify_certificate,
)
from .crypto import GROUPS, GroupParams, SigningKeyPair
from .harness import (
    ConfigError,
    ExplorationResult,
    ScenarioConfig,
    ScenarioReport,
    ScheduleError,
    World,
    config_from_dict,
    config_from_file,
    demo,
    emit_report,
    explore,
    make_config,
    run_scenario,
)
from .ledger import Ledger
from .protocol import BuyerPolicy, BuyerSession, SellerPolicy, SellerSession, Terms

__all__ = [
    "Certificate",
    "CertificatePackage",
    "Variant",
    "notarize",
    "verify_certificate",
    "GROUPS",
    "GroupParams",
    "SigningKeyPair",
    "ConfigError",
    "ExplorationResult",
    "ScenarioConfig",
    "ScenarioReport",
    "ScheduleError",
    "World",
    "config_from_dict",
    "config_from_file",
    "demo",
    "emit_report",
    "explore",
    "make_config",
    "run_scenario",
    "Ledger",
    "BuyerPolicy",
    "BuyerSession",
    "SellerPolicy",
    "SellerSession",
    "Terms",
]

__version__ = "0.1.0"
