"""Per-layer attribution of host time, measured from outside.

The traced pass wraps the public functions at each layer boundary — from
here, not from ``src/`` — and records one span per call inside the timed
region: ``(boundary, start_ns, end_ns, parent)``. The root span is one
``Scheduler.step``; children nest by call stack, the enclosing span being
the cause. A layer's *self time* is its spans' duration minus the part
their child spans cover, so self times over all layers plus the time under
no span add up to the traced region's host time. Counts are taken at the
same boundaries and must repeat bit for bit.

Only the traced pass imports this module; the untraced runs that produce
the end-to-end metrics run unwrapped code. ``trace.overhead_x`` is the
price of the wrappers.

Request-level causality across nodes stays with ``repro.obs``.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from array import array
from collections import Counter

import repro.consensus.messages as consensus_messages
import repro.crypto.ecdsa as ecdsa
import repro.crypto.hashing as hashing
import repro.kv.serialization as serialization
import repro.ledger.statetransfer as statetransfer
import repro.node.auth as auth
import repro.obs.checker as obs_checker
import repro.obs.profile as obs_profile
import repro.tee.attestation as attestation
from repro.app.application import Application
from repro.consensus.raft import ConsensusNode
from repro.crypto.aead import AEADKey
from repro.crypto.fastaead import FastAEADKey
from repro.crypto.merkle import MerkleTree
from repro.kv.store import KVStore
from repro.ledger.entry import LedgerEntry
from repro.ledger.ledger import Ledger
from repro.net.channels import NodeChannels
from repro.net.network import Network
from repro.node.node import CCFNode
from repro.obs.collector import ObsCollector, estimate_wire_size
from repro.obs.metrics import RUNTIME_STATS
from repro.service.client import ServiceClient
from repro.sim.scheduler import Scheduler
from repro.storage.host_storage import HostStorage
from repro.tee.enclave import Enclave
from repro.tee.ringbuffer import HostInterface

from benchmarks.e2e.runner import quartile_spread
from benchmarks.e2e.workloads import WORKLOADS, Rep, Write5n

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# The groups self time is reported for; each is ``<group>_self_us_per_op``.
# They partition the wrapped boundaries, so their self times are disjoint.
GROUPS = (
    "crypto.aead", "crypto.ecdsa", "crypto.hash", "crypto.merkle",
    "kv.encode", "kv.decode", "kv.store",
    "ledger", "ledger.statetransfer",
    "consensus", "net", "node", "node.auth", "app", "sim", "obs",
    "storage", "tee", "service.client",
)

# A scheduled event's self time (what its callback does outside any wrapped
# boundary) belongs to the layer whose code scheduled it.
EVENT_GROUPS = (
    ("repro.node", "node"),
    ("repro.consensus", "consensus"),
    ("repro.net", "net"),
    ("repro.service", "service.client"),
    ("benchmarks.e2e", "service.client"),  # the load generators
)

def self_metric(group: str) -> str:
    """``crypto.aead`` -> ``crypto.aead_self_us_per_op``, ``ledger`` ->
    ``ledger.self_us_per_op``."""
    return f"{group}_self_us_per_op" if "." in group else f"{group}.self_us_per_op"


# Byte and item counts taken at a boundary: ``measure(counts, args, result)``.
def _aead_bytes(counts, args, _result):
    counts["crypto.aead_bytes"] += len(args[2])


def _encode_bytes(counts, _args, result):
    counts["kv.encode_bytes"] += len(result)


def _append_one(counts, _args, _result):
    counts["ledger.entries_appended"] += 1


def _append_many(counts, args, _result):
    counts["ledger.entries_appended"] += len(args[1])


def _append_entries(counts, args, _result):
    counts["consensus.entries_received"] += len(args[1].entries)


def _sent_bytes(counts, args, _result):
    counts["net.bytes"] += estimate_wire_size(args[3])


def _sealed_one(counts, _args, _result):
    counts["net.sealed_messages"] += 1


def _sealed_frame(counts, args, _result):
    counts["net.sealed_messages"] += len(args[2])


def _stored_bytes(counts, args, _result):
    counts["storage.bytes"] += len(args[2])


# (group, owner, attribute names, measure). A class owner is patched on the
# class; a module owner in every loaded module that imported the function.
BOUNDARIES = (
    ("crypto.aead", FastAEADKey, ("seal", "open"), _aead_bytes),
    ("crypto.aead", AEADKey, ("seal", "open"), _aead_bytes),
    ("crypto.ecdsa", ecdsa.SigningKey, ("sign",), None),
    ("crypto.ecdsa", ecdsa.VerifyingKey, ("verify",), None),
    ("crypto.hash", hashing, ("sha256", "hmac_sha256"), None),
    ("crypto.merkle", MerkleTree, ("append", "extend", "root", "proof"), None),
    ("kv.encode", serialization, ("encode_value", "encode_dict_from_encoded"), _encode_bytes),
    ("kv.decode", serialization, ("decode_value",), None),
    ("kv.store", KVStore,
     ("begin", "commit", "apply_write_set", "compact", "get", "serialize_at", "from_map_rows"),
     None),
    ("ledger", Ledger, ("append",), _append_one),
    ("ledger", Ledger, ("append_batch",), _append_many),
    ("ledger", Ledger,
     ("build_entry", "decrypt_private", "build_signature_entry", "verify_signature_entry"),
     None),
    ("ledger", LedgerEntry, ("encode", "decode"), None),
    ("ledger.statetransfer", statetransfer,
     ("build_chunked_snapshot", "assemble_store", "seal_state_chunk", "open_state_chunk"),
     None),
    ("consensus", ConsensusNode, ("on_append_entries",), _append_entries),
    ("consensus", ConsensusNode,
     ("dispatch", "on_append_entries_response", "replicate_now", "note_local_append"), None),
    ("net", Network, ("send",), _sent_bytes),
    ("net", NodeChannels, ("seal",), _sealed_one),
    ("net", NodeChannels, ("seal_frame",), _sealed_frame),
    ("net", NodeChannels, ("open", "open_frame"), None),
    ("node.auth", auth, ("authenticate",), None),
    ("sim", Scheduler, ("step",), None),
    ("obs", obs_profile, ("profile_spans",), None),
    ("obs", obs_checker, ("check_trace",), None),
    ("storage", HostStorage, ("write", "write_buffered"), _stored_bytes),
    ("storage", HostStorage,
     ("fsync", "write_chunk", "write_state_chunk", "read_state_chunk"), None),
    ("tee", HostInterface, ("host_send", "enclave_send", "enclave_poll", "host_poll"), None),
    ("tee", Enclave, ("attest",), None),
    ("tee", attestation, ("verify_quote",), None),
    ("service.client", ServiceClient, ("send",), None),
)
STORAGE_WRITES = (
    "HostStorage.write", "HostStorage.write_buffered",
    "HostStorage.write_chunk", "HostStorage.write_state_chunk",
)


def _name(owner, attribute: str) -> str:
    return f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attribute}"


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []  # boundary id -> name
        self.groups: list[str] = []  # boundary id -> group
        self._ids: dict[str, int] = {}
        self.boundary = array("i")
        self.parent = array("i")
        self.owner = array("i")  # the node or client the span ran on behalf of
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.owners: dict[str, int] = {"": 0}
        self.current_owner = 0
        self.counts: Counter = Counter()
        self.program: Counter = Counter()  # the program's own counters, over the region
        self.window_ns = 0
        self._resumed_at = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- the timed region -------------------------------------------------

    def resume(self) -> None:
        self._add_program_counters(-1)
        self.on = True
        self._resumed_at = time.perf_counter_ns()

    def pause(self) -> None:
        self.window_ns += time.perf_counter_ns() - self._resumed_at
        self.on = False
        self._add_program_counters(+1)

    def _add_program_counters(self, sign: int) -> None:
        for stats in (
            RUNTIME_STATS.snapshot(),
            consensus_messages.ENCODE_STATS,
            ecdsa.MEMO_STATS,
            auth.AUTH_STATS,
        ):
            for key, value in stats.items():
                self.program[key] += sign * value

    # -- wrappers ----------------------------------------------------------

    def boundary_id(self, name: str, group: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return self._ids[name]

    def owner_id(self, name: str) -> int:
        return self.owners.setdefault(name, len(self.owners))

    def wrap(self, fn, name: str, group: str, measure=None, owner: int | None = None):
        """``fn`` with a span around each call made while the region is
        timed. ``owner`` switches whom the work inside is done on behalf
        of (a message handler's endpoint, an event's scheduler)."""
        bid = self.boundary_id(name, group)
        tracer = self
        boundary, parent, owners = self.boundary, self.parent, self.owner
        start, end, stack, counts = self.start, self.end, self.stack, self.counts
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = len(boundary)
            boundary.append(bid)
            parent.append(stack[-1])
            owners.append(tracer.current_owner)
            end.append(0)
            stack.append(index)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = now()
                stack.pop()
            if measure is not None:
                measure(counts, args, result)
            return result

        if owner is None:
            return traced

        @functools.wraps(fn)
        def switching(*args, **kwargs):
            previous = tracer.current_owner
            tracer.current_owner = owner
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.current_owner = previous

        return switching

    def _wrap_event(self, callback):
        module = getattr(callback, "__module__", None) or ""
        group = next((g for prefix, g in EVENT_GROUPS if module.startswith(prefix)), "sim")
        # A timer bound to a consensus engine runs for that node; anything
        # else runs for whoever scheduled it.
        bound_to = getattr(getattr(callback, "__self__", None), "node_id", None)
        owner = self.current_owner if bound_to is None else self.owner_id(bound_to)
        return self.wrap(callback, f"event:{group}", group, owner=owner)

    # -- installation ------------------------------------------------------

    def _set(self, holder, attribute: str, value) -> None:
        self._undo.append((holder, attribute, holder.__dict__[attribute]))
        setattr(holder, attribute, value)

    def _patch_class(self, cls, attribute: str, group: str, measure) -> None:
        raw = cls.__dict__[attribute]
        name = _name(cls, attribute)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, name, group, measure))
        else:
            wrapped = self.wrap(raw, name, group, measure)
        self._set(cls, attribute, wrapped)

    def _patch_function(self, module, attribute: str, group: str, measure) -> None:
        """Replace a module-level function wherever it is bound: the
        defining module and every ``from x import f`` of it."""
        original = getattr(module, attribute)
        wrapped = self.wrap(original, _name(module, attribute), group, measure)
        for loaded in list(sys.modules.values()):
            if loaded is None or not getattr(loaded, "__name__", "").startswith(
                ("repro", "benchmarks.e2e")
            ):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapped)

    def install(self) -> None:
        for group, owner, attributes, measure in BOUNDARIES:
            for attribute in attributes:
                if isinstance(owner, type):
                    self._patch_class(owner, attribute, group, measure)
                else:
                    self._patch_function(owner, attribute, group, measure)
        for attribute, raw in list(vars(ObsCollector).items()):
            if not attribute.startswith("_") and callable(raw):
                self._patch_class(ObsCollector, attribute, "obs", None)

        tracer = self
        register, at, add_endpoint = Network.register, Scheduler.at, Application.add_endpoint

        @functools.wraps(register)
        def traced_register(network, name, handler):
            group = (
                "node" if isinstance(getattr(handler, "__self__", None), CCFNode)
                else "service.client"
            )
            register(network, name, tracer.wrap(
                handler, f"deliver:{group}", group, owner=tracer.owner_id(name)
            ))

        @functools.wraps(at)
        def traced_at(scheduler, when, callback):
            return at(scheduler, when, tracer._wrap_event(callback))

        @functools.wraps(add_endpoint)
        def traced_add_endpoint(app, name, handler, *args, **kwargs):
            wrapped = tracer.wrap(handler, "app.handler", "app")
            add_endpoint(app, name, wrapped, *args, **kwargs)

        self._set(Network, "register", traced_register)
        self._set(Scheduler, "at", traced_at)
        self._set(Application, "add_endpoint", traced_add_endpoint)

    def uninstall(self) -> None:
        while self._undo:
            holder, attribute, original = self._undo.pop()
            setattr(holder, attribute, original)

    # -- arithmetic --------------------------------------------------------

    def summarize(self) -> dict:
        """Self time per group and per owner, calls and inclusive time per
        boundary, and the time under no span."""
        n = len(self.names)
        self_ns = [0] * n
        inclusive_ns = [0] * n
        calls = [0] * n
        owner_ns: Counter = Counter()
        covered = 0
        boundary, parent, owner = self.boundary, self.parent, self.owner
        for index in range(len(boundary)):
            duration = self.end[index] - self.start[index]
            bid = boundary[index]
            calls[bid] += 1
            inclusive_ns[bid] += duration
            self_ns[bid] += duration
            owner_ns[owner[index]] += duration
            above = parent[index]
            if above < 0:
                covered += duration
            else:
                self_ns[boundary[above]] -= duration
                owner_ns[owner[above]] -= duration
        by_group: Counter = Counter()
        for bid, group in enumerate(self.groups):
            by_group[group] += self_ns[bid]
        ids = {index: name for name, index in self.owners.items()}
        return {
            "window_ns": self.window_ns,
            "unattributed_ns": self.window_ns - covered,
            "spans": len(boundary),
            "self_ns": dict(by_group),
            "calls": {name: calls[bid] for bid, name in enumerate(self.names)},
            "inclusive_ns": {name: inclusive_ns[bid] for bid, name in enumerate(self.names)},
            "owner_ns": {ids[index]: ns for index, ns in owner_ns.items()},
        }

    def outermost_calls(self, names: tuple[str, ...]) -> int:
        """Calls of any of ``names`` not made from inside another of them."""
        ids = {self._ids[name] for name in names if name in self._ids}
        boundary, parent = self.boundary, self.parent
        return sum(
            1
            for index, bid in enumerate(boundary)
            if bid in ids and (parent[index] < 0 or boundary[parent[index]] not in ids)
        )

    def write(self, path: str) -> None:
        """One line per span: ``[boundary, start_ns, end_ns, parent]``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            for index in range(len(self.boundary)):
                out.write(
                    f'["{self.names[self.boundary[index]]}",{self.start[index]},'
                    f"{self.end[index]},{self.parent[index]}]\n"
                )


# ----------------------------------------------------------------------
# The traced pass and its metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    summary: dict, counts: Counter, program: Counter, rep: Rep,
    untraced: list[Rep], tax_x: float, import_s: float,
) -> dict[str, float]:
    ops = max(rep.ops, 1)
    window_ns = summary["window_ns"]
    calls, inclusive = Counter(summary["calls"]), Counter(summary["inclusive_ns"])
    facts = rep.facts

    def per_op(*boundaries: str) -> float:
        return sum(calls[name] for name in boundaries) / ops

    metrics = {
        self_metric(group): summary["self_ns"].get(group, 0) / 1e3 / ops for group in GROUPS
    }
    aead_seals = ("FastAEADKey.seal", "AEADKey.seal")
    aead_opens = ("FastAEADKey.open", "AEADKey.open")
    encodes = ("serialization.encode_value", "serialization.encode_dict_from_encoded")
    seals = calls["NodeChannels.seal"] + calls["NodeChannels.seal_frame"]
    fastest = min(r.window_ns for r in untraced)

    metrics.update({
        "crypto.aead_seals_per_op": per_op(*aead_seals),
        "crypto.aead_opens_per_op": per_op(*aead_opens),
        "crypto.aead_bytes_per_op": counts["crypto.aead_bytes"] / ops,
        "crypto.ecdsa_signs_per_op": per_op("SigningKey.sign"),
        "crypto.ecdsa_verifies_per_op": per_op("VerifyingKey.verify"),
        "crypto.verify_memo_hit_ratio": _ratio(
            program["verify_memo.hits"],
            program["verify_memo.hits"] + program["verify_memo.misses"],
        ),
        "kv.encode_calls_per_op": per_op(*encodes),
        "kv.decode_calls_per_op": per_op("serialization.decode_value"),
        "kv.encode_bytes_per_op": counts["kv.encode_bytes"] / ops,
        "kv.map_encode_hit_ratio": _ratio(
            program["kv.map_encode.hits"],
            program["kv.map_encode.hits"] + program["kv.map_encode.misses"],
        ),
        "ledger.decrypts_per_entry": _ratio(
            calls["Ledger.decrypt_private"], counts["ledger.entries_appended"]
        ),
        "ledger.appends_per_op": counts["ledger.entries_appended"] / ops,
        "ledger.chunks_fetched": facts.get("chunks_fetched", 0),
        "consensus.backup_append_share": inclusive["ConsensusNode.on_append_entries"]
        / window_ns,
        "consensus.append_entries_per_op": per_op("ConsensusNode.on_append_entries"),
        "consensus.entries_per_append": _ratio(
            counts["consensus.entries_received"], calls["ConsensusNode.on_append_entries"]
        ),
        "consensus.ae_encode_reuse_ratio": _ratio(
            program["ae_encode.reuses"],
            program["ae_encode.reuses"] + program["ae_encode.encodes"],
        ),
        "consensus.elections": facts.get("elections", 0),
        "consensus.elections_no_winner": facts.get("elections_no_winner", 0),
        "net.msgs_per_op": per_op("Network.send"),
        "net.bytes_per_op": counts["net.bytes"] / ops,
        "net.seals_per_op": seals / ops,
        "net.msgs_per_seal": _ratio(counts["net.sealed_messages"], seals),
        "node.primary_share": sum(
            summary["owner_ns"].get(node, 0) for node in facts["primaries"]
        ) / window_ns,
        "node.cert_cache_hit_ratio": _ratio(
            program["cert_verify_cache.hits"],
            program["cert_verify_cache.hits"] + program["cert_verify_cache.misses"],
        ),
        "sim.events_per_op": facts["events"] / ops,
        "sim.host_us_per_event": fastest / 1e3 / max(facts["events"], 1),
        "obs.spans_per_op": facts.get("obs_spans", 0) / ops,
        "obs.check_s": inclusive["checker.check_trace"] / 1e9,
        "obs.profile_s": inclusive["profile.profile_spans"] / 1e9,
        "obs.tax_x": tax_x,
        "storage.writes_per_op": counts["storage.outer_writes"] / ops,
        "storage.fsyncs_per_op": per_op("HostStorage.fsync"),
        "storage.bytes_per_op": counts["storage.bytes"] / ops,
        "service.generator_late_ms": facts.get("generator_late_ms", 0.0),
        "trace.unattributed_share": summary["unattributed_ns"] / window_ns,
        "trace.overhead_x": window_ns / fastest,
        "trace.spans": summary["spans"],
        "bench.rep_spread": quartile_spread([r.window_ns / 1e9 for r in untraced]),
        "bench.import_s": import_s,
    })
    return metrics


def cross_checks(summary: dict, counts: Counter, program: Counter) -> list[str]:
    """Wrapper counts against the program's own counters where both exist,
    so that a binding the wrappers missed is caught."""
    calls = Counter(summary["calls"])
    pairs = (
        ("channel seals", calls["NodeChannels.seal"] + calls["NodeChannels.seal_frame"],
         program["channel.seal.calls"]),
        ("sealed messages", counts["net.sealed_messages"], program["channel.seal.messages"]),
        ("signature verifications", calls["VerifyingKey.verify"],
         program["verify_memo.hits"] + program["verify_memo.misses"]),
    )
    problems = [
        f"wrappers saw {seen} {what}, the program counted {counted}"
        for what, seen, counted in pairs
        if seen != counted
    ]
    certificate_checks = program["cert_verify_cache.hits"] + program["cert_verify_cache.misses"]
    if calls["auth.authenticate"] < certificate_checks:
        problems.append(
            f"wrappers saw {calls['auth.authenticate']} authentications, "
            f"the program checked {certificate_checks} certificates"
        )
    return problems


def traced_pass(
    name: str, seed: int, quick: bool, untraced: list[Rep], reference: Rep | None,
    import_s: float,
) -> tuple[dict[str, float], list[str]]:
    """One more repetition of ``name`` with the wrappers installed."""
    tracer = Tracer()
    tracer.install()
    try:
        rep = WORKLOADS[name](seed, quick, tracer=tracer).rep(0)
    finally:
        tracer.uninstall()
    problems = [f"traced repetition: {problem}" for problem in rep.problems]
    if rep.fingerprint != untraced[0].fingerprint:
        problems.append("tracing perturbed the run: fingerprint differs from the untraced one")
    summary = tracer.summarize()
    counts = tracer.counts
    # A storage write made from inside another (write_chunk calls write) is
    # one write to the user.
    counts["storage.outer_writes"] = tracer.outermost_calls(STORAGE_WRITES)
    tax_x = 1.0
    if reference is not None:
        # The observer tax: plain write_5n over observed, fastest of each.
        plain = [reference] + ([] if quick else [Write5n(seed, quick).rep(0) for _ in range(2)])
        tax_x = max(r.ops / r.window_ns for r in plain) / max(
            r.ops / r.window_ns for r in untraced
        )
    metrics = layer_metrics(
        summary, counts, tracer.program, rep, untraced, tax_x, import_s
    )
    problems += cross_checks(summary, counts, tracer.program)
    attributed = sum(
        value * max(rep.ops, 1) * 1e3 for key, value in metrics.items()
        if key.endswith("self_us_per_op")
    ) + summary["unattributed_ns"]
    if abs(attributed - summary["window_ns"]) > 0.01 * summary["window_ns"]:
        problems.append(
            f"attribution sums to {attributed / 1e9:.4f} s of a "
            f"{summary['window_ns'] / 1e9:.4f} s traced region"
        )
    tracer.write(os.path.join(OUT_DIR, f"trace_{name}.jsonl.gz"))
    return metrics, problems
