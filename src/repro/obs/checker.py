"""Trace conformance checking: replay an exported trace against the model.

"Smart Casual Verification of CCF" (PAPERS.md) validates live execution
traces against the TLA+ spec. This is the reproduction's version of that
loop: every traced run emits ledger/consensus events (via
:mod:`repro.obs.collector`), and this module folds those events back into
the abstract states of :mod:`repro.verification.model`, checking the model's
safety invariants — election safety, commit agreement, commit at a
signature, committed-prefix stability — at every event. A passing chaos run
is therefore not just "nothing crashed" but "every observed state
transition was one the spec allows".

Event vocabulary (span names; all zero-duration events with a ``node``):

- ``ledger.append``   attrs: view, seqno, kind, sig
- ``ledger.truncate`` attrs: seqno
- ``consensus.commit`` attrs: view, seqno
- ``consensus.become_primary`` / ``consensus.step_down`` /
  ``consensus.election`` attrs: view

What each event is checked for — only what it can have changed, so the
cost is linear in the trace:

- *The fold's guards*, on the event's own node: an append lands only at
  ``len(log) + 1``, a truncate may not cut below the commit, a commit may
  neither pass the observed log nor regress.
- *Election safety*, over every node's ``(view, role)`` pair: O(nodes).
- *Commit agreement* and *commit at a signature*, only when a node's
  commit advances: the entry it now commits must be a signature, and its
  newly committed slice is compared with the longest committed prefix seen
  so far, which it then extends. The guards make every committed prefix
  append-only, so pairwise agreement is exactly "each is a prefix of the
  longest", and a commit point's entry never changes under it.
- *Committed-prefix stability and commit monotonicity* (``model.check_edge``)
  need no per-event comparison: the same guards are those two invariants,
  node by node.

A violation is worded by ``model.check_state`` over the abstract state,
built only then. The whole-state fold this replaces is kept as the
differential oracle in ``tests/oracles/trace_checker.py``.

A trace recorded from mid-run attachment (or from a node that joined via
snapshot) has *log gaps*: the entries below the snapshot base were never
observed. Gapped traces degrade gracefully — election safety is still
checked exactly, while log-prefix invariants (which need the full prefix)
are skipped and reported via ``has_gaps``. The gap must show on a node's
first event: a node already in the trace that skips seqnos while commits
are being checked is a violation, not a gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.spans import Span, load_jsonl
from repro.verification import model

EVENT_NAMES = frozenset(
    (
        "ledger.append",
        "ledger.truncate",
        "consensus.commit",
        "consensus.become_primary",
        "consensus.step_down",
        "consensus.election",
    )
)


@dataclass
class CheckResult:
    """Outcome of one trace conformance check."""

    violation: str | None = None
    events_checked: int = 0
    states_checked: int = 0
    nodes: list[str] = field(default_factory=list)
    has_gaps: bool = False

    @property
    def ok(self) -> bool:
        return self.violation is None

    def describe(self) -> str:
        if self.ok:
            suffix = " (log invariants skipped: gapped trace)" if self.has_gaps else ""
            return (
                f"conformant: {self.events_checked} events over "
                f"{len(self.nodes)} nodes{suffix}"
            )
        return f"violation after {self.events_checked} events: {self.violation}"


class _NodeFold:
    """One node's abstract state, folded from its trace events."""

    __slots__ = ("view", "role", "log", "commit", "gapped")

    def __init__(self) -> None:
        self.view = 1
        self.role = model.BACKUP
        self.log: list[tuple[int, bool]] = []
        self.commit = 0
        self.gapped = False


class TraceChecker:
    """Feed trace events in order; each event is checked for what it changed."""

    def __init__(self) -> None:
        self._nodes: dict[str, _NodeFold] = {}  # first-seen order
        # The longest committed prefix seen so far. Committed prefixes only
        # grow, so commit agreement holds iff each is a prefix of this one.
        self._committed: list[tuple[int, bool]] = []
        self.result = CheckResult()

    @property
    def has_gaps(self) -> bool:
        return self.result.has_gaps

    def _abstract_state(self) -> model.State:
        """The current global abstract state, built only to word a violation
        (``model.check_state`` reports election safety first, so a gapped
        trace's partial logs never reach the message)."""
        return tuple(
            (f.view, f.role, tuple(f.log), f.commit) for f in self._nodes.values()
        )

    def _two_primaries(self) -> bool:
        views = [f.view for f in self._nodes.values() if f.role == model.PRIMARY]
        return len(views) != len(set(views))

    def _extends_committed(self, log: list, old: int, new: int) -> bool:
        """Does ``log[:new]`` agree with the longest committed prefix, given
        that ``log[:old]`` already did? Extends that prefix if it is longer."""
        committed = self._committed
        shared = min(new, len(committed))
        if old < shared and log[old:shared] != committed[old:shared]:
            return False
        if new > len(committed):
            committed.extend(log[len(committed):new])
        return True

    def feed(self, span: Span) -> str | None:
        """Fold one event span; returns a violation description (and records
        it) or None. Non-event spans are ignored."""
        if self.result.violation is not None:
            return self.result.violation
        if span.name not in EVENT_NAMES or span.node is None:
            return None
        fold = self._nodes.get(span.node)
        seen = fold is not None
        if fold is None:
            fold = self._nodes[span.node] = _NodeFold()
            self.result.nodes.append(span.node)
        attrs = span.attrs
        self.result.events_checked += 1
        agrees = True

        if span.name == "ledger.append":
            seqno, view = attrs["seqno"], attrs["view"]
            expected = len(fold.log) + 1
            if fold.gapped or seqno > expected:
                # Snapshot-based ledger (or mid-run attach): prefix unseen.
                skips = seen and not self.result.has_gaps
                fold.gapped = True
                self.result.has_gaps = True
                if skips and any(f.commit for f in self._nodes.values()):
                    # A node already in the trace skips ahead while
                    # commits are being checked: the prefix invariants
                    # would silently switch off.
                    self.result.states_checked += 1
                    return self._fail(
                        span,
                        f"{span.node}: append at seqno {seqno} skips past "
                        f"observed log length {len(fold.log)}",
                    )
            elif seqno < expected:
                return self._fail(
                    span,
                    f"append at seqno {seqno} but log already has "
                    f"{len(fold.log)} entries (no truncate observed)",
                )
            else:
                fold.log.append((view, bool(attrs.get("sig", False))))
        elif span.name == "ledger.truncate":
            seqno = attrs["seqno"]
            if not fold.gapped:
                if seqno < fold.commit:
                    return self._fail(
                        span,
                        f"truncate to {seqno} below commit {fold.commit}",
                    )
                del fold.log[seqno:]
        elif span.name == "consensus.commit":
            seqno, view = attrs["seqno"], attrs["view"]
            fold.view = max(fold.view, view)
            if not fold.gapped and seqno > len(fold.log):
                return self._fail(
                    span,
                    f"commit {seqno} beyond observed log length {len(fold.log)}",
                )
            if seqno < fold.commit:
                return self._fail(
                    span, f"commit regressed {fold.commit} -> {seqno}"
                )
            if seqno > fold.commit and not self.result.has_gaps:
                agrees = fold.log[seqno - 1][1] and self._extends_committed(
                    fold.log, fold.commit, seqno
                )
            fold.commit = seqno
        elif span.name == "consensus.become_primary":
            fold.role = model.PRIMARY
            fold.view = attrs["view"]
        elif span.name == "consensus.step_down":
            fold.role = model.BACKUP
            fold.view = max(fold.view, attrs["view"])
        elif span.name == "consensus.election":
            fold.role = model.BACKUP  # candidate: not a primary yet
            fold.view = max(fold.view, attrs["view"])

        self.result.states_checked += 1
        if not agrees or self._two_primaries():
            return self._fail(span, model.check_state(self._abstract_state()))
        return None

    def _fail(self, span: Span, description: str) -> str:
        violation = f"[span {span.index} {span.name} node={span.node}] {description}"
        self.result.violation = violation
        return violation


def check_trace(spans: list[Span]) -> CheckResult:
    """Replay a full trace (span list, creation order) through the checker."""
    checker = TraceChecker()
    for span in sorted(spans, key=lambda s: s.index):
        checker.feed(span)
        if checker.result.violation is not None:
            break
    return checker.result


def check_trace_text(jsonl: str) -> CheckResult:
    """Check a JSONL trace export (as produced by ``export_jsonl``)."""
    return check_trace(load_jsonl(jsonl))
