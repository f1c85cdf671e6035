"""Untrusted-host sinks and approved declassifiers.

A *sink* is a program point where a value becomes visible to the untrusted
host (paper §2 threat model): the simulated network, host storage, log and
exception text, observability exports (span attributes, metrics labels),
JSON serialization, and public-map KV writes (which the ledger persists in
plain text). A secret reaching a sink without passing through an approved
*declassifier* is a confidentiality violation.

Declassifiers are the approved exits from the secret world: AEAD sealing,
ECIES encryption, signature production, constant-time comparison results,
certificate issuance, and plain sizes. Hashing is deliberately NOT a
declassifier — a digest of a secret is only safe when the preimage space
is large, which is a human judgement recorded with an explicit
``# repro-taint: declassify=REASON`` annotation at the site.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_ARGS = -1  # sentinel: every positional argument is sink-relevant


@dataclass(frozen=True)
class Sink:
    """One class of host-visible output."""

    sink_id: str
    rule: str  # TAINTnnn rule id reported for this sink
    description: str
    # Matchers (any may be empty): resolved dotted names, bare callable
    # names, method names, and receiver terminal-name hints. A method
    # matcher with hints requires the receiver's terminal name to end with
    # one of the hints; without hints the method name alone matches.
    qualnames: frozenset[str] = frozenset()
    names: frozenset[str] = frozenset()
    methods: frozenset[str] = frozenset()
    receiver_hints: frozenset[str] = frozenset()
    args: tuple[int, ...] = (ALL_ARGS,)  # positional indices that leak
    kwargs_leak: bool = True  # do keyword arguments leak too?


SINKS: tuple[Sink, ...] = (
    Sink(
        sink_id="network-send", rule="TAINT001",
        description="payload handed to the simulated (untrusted) network",
        qualnames=frozenset({"repro.net.network.Network.send"}),
        methods=frozenset({"send"}),
        receiver_hints=frozenset({"network"}),
        args=(2,), kwargs_leak=True,
    ),
    Sink(
        sink_id="host-storage-write", rule="TAINT002",
        description="bytes written to untrusted host storage",
        qualnames=frozenset({
            "repro.storage.host_storage.HostStorage.write",
            "repro.storage.host_storage.HostStorage.write_buffered",
            "repro.storage.host_storage.HostStorage.write_chunk",
        }),
        methods=frozenset({"write", "write_buffered", "write_chunk"}),
        receiver_hints=frozenset({"storage"}),
    ),
    Sink(
        sink_id="log-text", rule="TAINT003",
        description="log/console text readable by the host",
        names=frozenset({"print"}),
        methods=frozenset({"debug", "info", "warning", "error", "critical",
                           "exception", "log"}),
    ),
    Sink(
        sink_id="exception-text", rule="TAINT004",
        description="exception message (host-visible crash/trace text)",
        # Matched structurally at `raise` statements by the engine.
    ),
    Sink(
        sink_id="obs-span-attr", rule="TAINT005",
        description="span attribute / event payload exported by the tracer",
        receiver_hints=frozenset({"obs"}),
    ),
    Sink(
        sink_id="metrics-label", rule="TAINT006",
        description="metrics label exported in registry snapshots",
        methods=frozenset({"counter", "gauge", "histogram"}),
        receiver_hints=frozenset({"registry"}),
        args=(),  # the metric name is a literal; only labels leak
    ),
    Sink(
        sink_id="wire-serialization", rule="TAINT007",
        description="JSON text (wire/report serialization readable by the host)",
        qualnames=frozenset({"json.dumps", "json.dump"}),
        args=(0,), kwargs_leak=False,
    ),
    Sink(
        sink_id="public-kv-write", rule="TAINT008",
        description="value written to a public: map (persisted in plain text)",
        methods=frozenset({"put"}),
        # Applies only when the map-name argument resolves to "public:*";
        # the engine checks that, then treats the value argument as leaked.
        args=(2,), kwargs_leak=False,
    ),
)

SINKS_BY_ID: dict[str, Sink] = {sink.sink_id: sink for sink in SINKS}


@dataclass(frozen=True)
class Declassifier:
    """One approved way a secret-derived value becomes public."""

    category: str
    rationale: str
    qualnames: frozenset[str] = frozenset()
    methods: frozenset[str] = frozenset()
    names: frozenset[str] = frozenset()


DECLASSIFIERS: tuple[Declassifier, ...] = (
    Declassifier(
        category="aead-seal",
        rationale="AEAD ciphertext is indistinguishable without the key",
        methods=frozenset({"seal", "seal_chunk"}),
    ),
    Declassifier(
        category="ecies-encrypt",
        rationale="ECIES box opens only with the member's private key",
        qualnames=frozenset({"repro.crypto.ecies.encrypt"}),
        methods=frozenset({"encrypt"}),
    ),
    Declassifier(
        category="signature",
        rationale="ECDSA signatures do not reveal the signing scalar",
        methods=frozenset({"sign"}),
    ),
    Declassifier(
        category="certificate",
        rationale="certificates carry only public keys and signatures",
        qualnames=frozenset({"repro.crypto.certs.issue",
                             "repro.crypto.certs.self_signed"}),
        names=frozenset({"issue", "self_signed"}),
    ),
    Declassifier(
        category="constant-time-compare",
        rationale="a boolean equality verdict, compared in constant time",
        qualnames=frozenset({"repro.crypto.ct.ct_eq"}),
        names=frozenset({"ct_eq"}),
    ),
    Declassifier(
        category="decrypt-reentry",
        rationale="decrypted payloads re-enter as application data, which "
                  "has its own (non-key-material) classification",
        methods=frozenset({"open", "open_chunk"}),
    ),
    Declassifier(
        category="size",
        rationale="lengths/counts of secrets are public in this model",
        names=frozenset({"len", "bool", "isinstance", "type"}),
    ),
)


def declassifier_for(qualname: str | None, method: str | None,
                     bare_name: str | None) -> Declassifier | None:
    for decl in DECLASSIFIERS:
        if qualname is not None and qualname in decl.qualnames:
            return decl
        if method is not None and method in decl.methods:
            return decl
        if bare_name is not None and bare_name in decl.names:
            return decl
    return None


def catalog() -> dict[str, list[dict]]:
    """The sinks + declassifiers halves of the boundary map."""
    sinks = [
        {
            "sink_id": sink.sink_id,
            "rule": sink.rule,
            "description": sink.description,
            "matches": sorted(
                [*sink.qualnames, *(f"{n}()" for n in sink.names)]
                + [
                    (f"<{'|'.join(sorted(sink.receiver_hints))}>.{m}()"
                     if sink.receiver_hints else f".{m}()")
                    for m in sorted(sink.methods)
                ]
                + ([f"<{'|'.join(sorted(sink.receiver_hints))}>.*()"]
                   if sink.receiver_hints and not sink.methods else [])
                + (["raise <tainted>"] if sink.sink_id == "exception-text" else [])
            ),
        }
        for sink in SINKS
    ]
    declassifiers = [
        {
            "category": decl.category,
            "rationale": decl.rationale,
            "matches": sorted(
                [*decl.qualnames, *(f"{n}()" for n in decl.names)]
                + [f".{m}()" for m in sorted(decl.methods)]
            ),
        }
        for decl in DECLASSIFIERS
    ]
    return {"sinks": sinks, "declassifiers": declassifiers}
