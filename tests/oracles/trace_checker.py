"""The whole-state trace checker, kept as the differential oracle.

After every event it rebuilds the global abstract state (every node's full
log tuple) and runs ``model.check_state`` over it, then ``model.check_edge``
against the previous state — quadratic in the trace, but a direct
transcription of "every observed state is one the spec allows".
``repro.obs.checker`` checks only what each event changed;
``tests/obs/test_checker_differential.py`` holds it to this fold verdict
for verdict on seeded mutants. Keep it boring.
"""

from repro.obs.checker import EVENT_NAMES, CheckResult
from repro.obs.spans import Span
from repro.verification import model


class _NodeFold:
    __slots__ = ("view", "role", "log", "commit", "gapped")

    def __init__(self) -> None:
        self.view = 1
        self.role = model.BACKUP
        self.log: list[tuple[int, bool]] = []
        self.commit = 0
        self.gapped = False


class WholeStateChecker:
    def __init__(self) -> None:
        self._nodes: dict[str, _NodeFold] = {}
        self._order: list[str] = []
        self._prev_state: model.State | None = None
        self.result = CheckResult()

    def _node(self, node_id: str) -> _NodeFold:
        fold = self._nodes.get(node_id)
        if fold is None:
            fold = _NodeFold()
            self._nodes[node_id] = fold
            self._order.append(node_id)
            self.result.nodes.append(node_id)
            # The node set changed shape: restart the edge chain.
            self._prev_state = None
        return fold

    def _abstract_state(self) -> model.State:
        nodes = []
        for node_id in self._order:
            fold = self._nodes[node_id]
            if self.result.has_gaps:
                nodes.append((fold.view, fold.role, (), 0))
            else:
                nodes.append((fold.view, fold.role, tuple(fold.log), fold.commit))
        return tuple(nodes)

    def feed(self, span: Span) -> str | None:
        if self.result.violation is not None:
            return self.result.violation
        if span.name not in EVENT_NAMES or span.node is None:
            return None
        fold = self._node(span.node)
        attrs = span.attrs
        self.result.events_checked += 1

        if span.name == "ledger.append":
            seqno, view = attrs["seqno"], attrs["view"]
            expected = len(fold.log) + 1
            if fold.gapped or seqno > expected:
                fold.gapped = True
                self.result.has_gaps = True
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
                        span, f"truncate to {seqno} below commit {fold.commit}"
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
                return self._fail(span, f"commit regressed {fold.commit} -> {seqno}")
            fold.commit = seqno
        elif span.name == "consensus.become_primary":
            fold.role = model.PRIMARY
            fold.view = attrs["view"]
        elif span.name == "consensus.step_down":
            fold.role = model.BACKUP
            fold.view = max(fold.view, attrs["view"])
        elif span.name == "consensus.election":
            fold.role = model.BACKUP
            fold.view = max(fold.view, attrs["view"])

        state = self._abstract_state()
        self.result.states_checked += 1
        violation = model.check_state(state)
        if violation is None and self._prev_state is not None:
            violation = model.check_edge(self._prev_state, state)
        if violation is not None:
            return self._fail(span, violation)
        self._prev_state = state
        return None

    def _fail(self, span: Span, description: str) -> str:
        violation = f"[span {span.index} {span.name} node={span.node}] {description}"
        self.result.violation = violation
        return violation


def check_trace_whole_state(spans: list[Span]) -> CheckResult:
    checker = WholeStateChecker()
    for span in sorted(spans, key=lambda s: s.index):
        checker.feed(span)
        if checker.result.violation is not None:
            break
    return checker.result
