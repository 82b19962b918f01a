"""Outside-in tracing: spans around the calls into each sedg layer.

The tracer patches the exact bindings callers use, so no program file
changes: module attributes that other modules reach through `module.name`,
the names `harness` imported with `from .cert import notarize`, methods on
the session, ledger, transport and world classes, and the builtin `pow`,
which `crypto` and `ledger` call and which is shadowed by a module global in
both. Spans (layer, function, start, end, parent, op) stay in memory; a
layer's self time is its spans' durations minus their direct children's.
"""
from __future__ import annotations

import builtins
import functools
import itertools
import json
import weakref
from collections import Counter
from time import perf_counter_ns
from typing import Callable

import workloads  # noqa: F401  (puts the sedg sources on sys.path)
from sedg import cert, crypto, harness, ledger, protocol, transport

_MISSING = object()
_builtin_pow = builtins.pow

MODEXP_MIN_BITS = 1024

# Counters each workload must see fire; a hook that stays silent means the
# tracer is patching a binding the program no longer uses.
_ALWAYS = (
    "crypto.group_check", "crypto.ed25519", "crypto.aead", "crypto.sha256",
    "cert.notarize", "cert.verify", "protocol.codec", "protocol.session",
    "transport.frame", "ledger.op", "harness.world", "harness.step",
)
REQUIRED = {
    "exchange_small": _ALWAYS + ("ledger.op_failed",),
    "exchange_bulk": _ALWAYS,
    "exchange_modp2048": _ALWAYS + ("crypto.modexp", "ledger.op_failed"),
    "explore_grid": _ALWAYS + ("ledger.op_failed", "ledger.codec", "harness.check"),
}

_LEDGER_OPS = ("fund", "publish_contract", "claim", "refund", "advance_time")
_LEDGER_READS = ("get_balance", "get_contract", "open_contracts", "read_events", "snapshot")


class HookSilent(RuntimeError):
    """A hook that must fire on the workload never did."""


class Tracer:
    """Install with `with tracer:`; bracket each op with begin_op/end_op."""

    def __init__(self, span_ops: int = 0) -> None:
        self.counts: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self._span_ops = span_ops  # spans are kept for this many first ops
        self._recording = False
        self._stack = [[0, None]]  # frames: [ns spent in children, span index]
        self._op = None
        self._patches: list[tuple[object, str, object]] = []
        self._world_serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self._paths: dict[int, list[int]] = {}
        self._terminals: set = set()
        self._ledgers: list[ledger.Ledger] = []

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._recording = self.counts["ops"] < self._span_ops
        self._paths.clear()
        self._terminals.clear()
        self._ledgers.clear()
        self._stack.append([0, self._record_start(), perf_counter_ns()])

    def end_op(self, schedules: int) -> None:
        """Close the op's root span and fold its tree and ledgers into the counts."""
        end = perf_counter_ns()
        _, index, start = self._stack.pop()
        self._record_end(index, "op", "op", start, end, None)
        nodes = set()
        for path in self._paths.values():
            nodes.update(tuple(path[:k]) for k in range(1, len(path) + 1))
        self.counts["harness.tree_nodes"] += len(nodes)
        self.counts["harness.schedules"] += schedules
        # run_scenario has no terminal hook: its single schedule ends in one state.
        self.counts["harness.terminal.distinct"] += len(self._terminals) or 1
        self.counts["ledger.event"] += sum(
            len(self._read_events(chain, 0)) for chain in self._ledgers
        )
        self.counts["ops"] += 1
        self._op = None

    def require(self, workload: str) -> None:
        silent = [name for name in REQUIRED[workload] if not self.counts[name]]
        if silent:
            raise HookSilent(f"{workload}: hooks never fired: {', '.join(silent)}")

    # -- spans --------------------------------------------------------------

    def _record_start(self) -> int | None:
        if not self._recording:
            return None
        self.spans.append(None)
        return len(self.spans) - 1

    def _record_end(self, index, layer, name, start, end, parent) -> None:
        if index is not None:
            self.spans[index] = (layer, name, start, end, parent, self._op)

    def _wrap(
        self,
        fn: Callable,
        layer: str,
        count: str | None = None,
        before: Callable | None = None,
        after: Callable | None = None,
        failed: Callable | None = None,
    ) -> Callable:
        stack, self_ns, counts = self._stack, self.self_ns, self.counts
        name = fn.__qualname__
        count = layer if count is None else count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[count] += 1
            if before is not None:
                before(args)
            parent = stack[-1]
            frame = [0, self._record_start()]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                parent[0] += end - start
                self_ns[layer] += end - start - frame[0]
                self._record_end(frame[1], layer, name, start, end, parent[1])
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def _patch_function(self, modules, attr: str, layer: str, **hooks) -> None:
        traced = self._wrap(getattr(modules[0], attr), layer, **hooks)
        for module in modules:
            self._patch(module, attr, traced)

    def _patch_method(self, cls: type, attr: str, layer: str, **hooks) -> None:
        self._patch(cls, attr, self._wrap(vars(cls)[attr], layer, **hooks))

    def __enter__(self) -> "Tracer":
        counts = self.counts
        self._read_events = ledger.Ledger.read_events

        modexp = self._wrap(_builtin_pow, "crypto.modexp")

        def pow(base, exp, mod=None):  # noqa: A001 - shadows the builtin on purpose
            if mod is not None and exp >= 1 and mod.bit_length() >= MODEXP_MIN_BITS:
                return modexp(base, exp, mod)
            return _builtin_pow(base, exp, mod)

        self._patch(crypto, "pow", pow)
        self._patch(ledger, "pow", pow)

        # crypto
        self._patch_method(crypto.GroupParams, "__post_init__", "crypto.group_check")
        self._patch_method(crypto.GroupParams, "contains", "crypto.group_check")
        for attr in ("sign", "verify"):
            self._patch_function([crypto], attr, "crypto.ed25519")
        from_seed = vars(crypto.SigningKeyPair)["from_seed"].__func__
        self._patch(
            crypto.SigningKeyPair,
            "from_seed",
            classmethod(self._wrap(from_seed, "crypto.ed25519")),
        )

        def plaintext_bytes(args):
            counts["crypto.aead.bytes"] += len(args[1])

        def ciphertext_bytes(args):
            counts["crypto.aead.bytes"] += len(args[1].body)

        self._patch_function([crypto], "encrypt", "crypto.aead", before=plaintext_bytes)
        self._patch_function([crypto], "decrypt", "crypto.aead", before=ciphertext_bytes)

        def sha_bytes(args):
            counts["crypto.sha256.bytes"] += len(args[0])

        self._patch_function([crypto], "sha256", "crypto.sha256", before=sha_bytes)

        # cert
        self._patch_function([cert, harness], "notarize", "cert.notarize")
        self._patch_function([cert], "verify_certificate", "cert.verify")

        # protocol
        for attr in ("message_to_obj", "message_from_obj"):
            self._patch_function([protocol], attr, "protocol.codec")
        for cls in (protocol.BuyerSession, protocol.SellerSession):
            for attr, value in list(vars(cls).items()):
                if callable(value) and not attr.startswith("_"):
                    self._patch_method(cls, attr, "protocol.session", count="protocol.session")

        # transport
        def frame_bytes(args, frame):
            counts["transport.frame.bytes"] += len(frame)

        self._patch_function(
            [transport], "frame_encode", "transport", count="transport.frame", after=frame_bytes
        )
        calls = "transport.call"
        self._patch_method(transport.InProcessNet, "deliver", "transport", count=calls)
        for attr in ("send", "recv"):
            self._patch_method(transport.MailboxEndpoint, attr, "transport", count=calls)

        # ledger
        def ledger_failed(exc):
            if isinstance(exc, ledger.LedgerError):
                counts["ledger.op_failed"] += 1

        def claim_attempted(args):
            counts["ledger.claim"] += 1

        def claim_accepted(args, event):
            counts["ledger.claim.accepted"] += 1

        for attr in _LEDGER_OPS:
            claim = attr == "claim"
            self._patch_method(
                ledger.Ledger, attr, "ledger", count="ledger.op", failed=ledger_failed,
                before=claim_attempted if claim else None,
                after=claim_accepted if claim else None,
            )
        for attr in _LEDGER_READS:
            self._patch_method(ledger.Ledger, attr, "ledger", count="ledger.read")
        self._patch_method(
            ledger.Ledger, "__init__", "ledger", count="ledger.instance",
            before=lambda args: self._ledgers.append(args[0]),
        )
        for attr in ("event_to_json", "event_from_json"):
            self._patch_function([ledger], attr, "ledger.codec")

        # harness
        def new_world(args):
            serial = next(self._serials)
            self._world_serial[args[0]] = serial
            self._paths[serial] = []

        def step(args):
            self._paths[self._world_serial[args[0]]].append(args[1])

        def terminal(args, violations):
            world = args[0]
            self._terminals.add(
                (
                    tuple(self._read_events(world.ledger, 0)),
                    world.seller.state,
                    world.seller.outcome,
                    world.buyer.state,
                    world.buyer.abort_reason,
                    world.buyer.decrypt_failed,
                )
            )

        self._patch_method(harness.World, "__init__", "harness.world", before=new_world)
        self._patch_method(harness.World, "step", "harness.step", before=step)
        self._patch_function([harness], "fairness_violations", "harness.check", after=terminal)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write the recorded spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as fh:
            for layer, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"layer": layer, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op},
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")
        return len(self.spans)

    def metrics(self, traced_ns: int, untraced_ns: int) -> dict[str, float]:
        """Per-op layer metrics.

        `traced_ns` is the traced ops' total time and `untraced_ns` the same
        ops' time with tracing off; their ratio is the tracing overhead.
        """
        c, s = self.counts, self.self_ns
        ops = c["ops"]
        if not ops:
            raise ValueError("no traced op")

        def per_op(n):
            return n / ops

        def ms(layer):
            return s[layer] / 1e6 / ops

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "crypto.modexp.count": per_op(c["crypto.modexp"]),
            "crypto.modexp.self_ms": ms("crypto.modexp"),
            "crypto.group_check.count": per_op(c["crypto.group_check"]),
            "crypto.ed25519.count": per_op(c["crypto.ed25519"]),
            "crypto.ed25519.self_ms": ms("crypto.ed25519"),
            "crypto.aead.bytes": per_op(c["crypto.aead.bytes"]),
            "crypto.aead.self_ms": ms("crypto.aead"),
            "crypto.sha256.bytes": per_op(c["crypto.sha256.bytes"]),
            "crypto.sha256.self_ms": ms("crypto.sha256"),
            "cert.notarize.count": per_op(c["cert.notarize"]),
            "cert.notarize.self_ms": ms("cert.notarize"),
            "cert.verify.count": per_op(c["cert.verify"]),
            "cert.verify.self_ms": ms("cert.verify"),
            "protocol.codec.count": per_op(c["protocol.codec"]),
            "protocol.codec.self_ms": ms("protocol.codec"),
            "protocol.session.self_ms": ms("protocol.session"),
            "transport.frame.count": per_op(c["transport.frame"]),
            "transport.frame.bytes": per_op(c["transport.frame.bytes"]),
            "transport.self_ms": ms("transport"),
            "ledger.op.count": per_op(c["ledger.op"]),
            "ledger.op_failed.count": per_op(c["ledger.op_failed"]),
            "ledger.claim.success_ratio": ratio(c["ledger.claim.accepted"], c["ledger.claim"]),
            "ledger.event.count": per_op(c["ledger.event"]),
            "ledger.self_ms": ms("ledger"),
            "ledger.codec.count": per_op(c["ledger.codec"]),
            "ledger.codec.self_ms": ms("ledger.codec"),
            "harness.world.count": per_op(c["harness.world"]),
            "harness.world.self_ms": ms("harness.world"),
            "harness.step.count": per_op(c["harness.step"]),
            "harness.tree_nodes.count": per_op(c["harness.tree_nodes"]),
            "harness.replay_ratio": ratio(c["harness.step"], c["harness.tree_nodes"]),
            "harness.schedules.count": per_op(c["harness.schedules"]),
            "harness.terminal.distinct": per_op(c["harness.terminal.distinct"]),
            "harness.terminal.yield": ratio(
                c["harness.terminal.distinct"], c["harness.schedules"]
            ),
            "harness.check.self_ms": ms("harness.check"),
            "harness.ms_per_node": ratio(untraced_ns / 1e6, c["harness.tree_nodes"]),
            "trace.overhead_ratio": ratio(traced_ns, untraced_ns),
        }
