"""Causal spans: the unit of the request-lifecycle trace.

A :class:`Span` is one timed step of one request's journey (queue, execute,
ledger append, replication wait, signature, commit, receipt), linked to its
parent by id so an exported trace reconstructs the full causal tree. Span
ids come from a dedicated RNG seeded independently of the scheduler's —
recording a trace never consumes a draw from the simulation's stream, so a
traced run is byte-identical to the untraced run it observes.

Exports are JSONL: one span per line, in creation order, serialized with
sorted keys — equal seeds produce byte-identical files. Process-global
counters (request ids, client ids) are deliberately *not* exported; span
and trace ids are the stable correlation handles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


def redact(value):
    """Replace byte strings with a length + digest-prefix placeholder.

    Span attributes and metrics labels are exported to the untrusted host,
    so raw bytes — the representation of every key, share, and sealed blob
    in this codebase — must never appear in them. The placeholder keeps
    traces debuggable (equal secrets redact equally, lengths survive)
    without revealing the bytes. Non-bytes values pass through untouched;
    containers are redacted recursively.
    """
    if isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        digest = hashlib.sha256(raw).hexdigest()[:8]
        return f"[redacted {len(raw)}B sha256:{digest}]"
    if isinstance(value, dict):
        return {k: redact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        out = [redact(v) for v in value]
        return tuple(out) if isinstance(value, tuple) else out
    return value


# Values ``redact`` passes through untouched, by exact type: a mapping of
# only these is already safe to export.
_PLAIN = frozenset((int, str, bool, float, type(None)))


def sanitize_attrs(attrs: dict) -> dict:
    """Redact every value of a span-attribute / label mapping. A mapping
    whose values are all plain (``int``, ``str``, ``bool``, ``float``,
    ``None``) is returned as is."""
    for value in attrs.values():
        if type(value) not in _PLAIN:
            return {key: redact(value) for key, value in attrs.items()}
    return attrs


@dataclass(slots=True)
class Span:
    """One timed, attributed step in a causal trace."""

    index: int  # creation order within the collector (total order)
    span_id: str
    name: str
    start: float  # simulated seconds
    trace_id: str  # span_id of the root span of this tree
    parent_id: str | None = None
    end: float | None = None
    node: str | None = None
    attrs: dict = field(default_factory=dict)
    costs: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    def charge(self, category: str, seconds: float) -> None:
        """Attribute ``seconds`` of cost-model time to this span."""
        self.costs[category] = self.costs.get(category, 0.0) + seconds

    def to_dict(self) -> dict:
        out: dict = {
            "i": self.index,
            "id": self.span_id,
            "trace": self.trace_id,
            "name": self.name,
            "start": self.start,
        }
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        if self.end is not None:
            out["end"] = self.end
        if self.node is not None:
            out["node"] = self.node
        if self.attrs:
            # Defense in depth: attrs are sanitized at creation, but any
            # bytes smuggled in by direct mutation are redacted at export.
            out["attrs"] = sanitize_attrs(dict(sorted(self.attrs.items())))
        if self.costs:
            out["costs"] = dict(sorted(self.costs.items()))
        return out


def span_to_json(span: Span) -> str:
    return json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))


def span_from_json(line: str) -> Span:
    data = json.loads(line)
    return Span(
        index=data["i"],
        span_id=data["id"],
        trace_id=data["trace"],
        name=data["name"],
        start=data["start"],
        parent_id=data.get("parent"),
        end=data.get("end"),
        node=data.get("node"),
        attrs=data.get("attrs", {}),
        costs=data.get("costs", {}),
    )


def export_jsonl(spans: list[Span]) -> str:
    """Serialize spans (creation order) to a deterministic JSONL document."""
    return "".join(span_to_json(span) + "\n" for span in spans)


def load_jsonl(text: str) -> list[Span]:
    return [span_from_json(line) for line in text.splitlines() if line.strip()]


def build_tree(spans: list[Span]) -> dict[str, list[Span]]:
    """parent span_id -> children (creation order); roots under ``\"\"``."""
    children: dict[str, list[Span]] = {"": []}
    for span in spans:
        children.setdefault(span.span_id, [])
        key = span.parent_id if span.parent_id is not None else ""
        children.setdefault(key, []).append(span)
    return children
