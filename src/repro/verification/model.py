"""Exhaustive bounded model checking of an abstract CCF consensus model.

The paper model-checks CCF's consensus in TLA+ [68, 88]. This module is the
reproduction's equivalent: a small-state abstraction of the protocol whose
*entire* reachable state space (under explicit bounds) is explored by BFS,
checking safety at every state. Unlike :mod:`repro.verification.explorer`
(randomized schedules over the real implementation), this explores **all**
interleavings of the abstract model — the classic trade of fidelity for
exhaustiveness.

The abstraction (mirroring the shape of the TLA+ spec):

- per-node state: view, role, log (tuple of ``(view, is_signature)``
  entries), commit index;
- atomic quorum actions instead of individual messages (a standard
  abstraction): an election happens in one step with an explicit voter set,
  each voter checked against CCF's last-signature voting rule; replication
  copies the primary's log prefix to one follower in one step;
- commit advances to the highest current-view signature entry whose prefix
  is replicated on a quorum.

Checked invariants: election safety, commit agreement, commit at a
signature (``check_state``), and — the central one — **committed-prefix
stability** (``check_edge``): once any state commits entry ``e`` at
position ``i``, no reachable successor ever commits a different entry at
``i``.

``buggy_ack=True`` re-introduces the match-index bug the randomized
explorer found in this repository's own implementation (a follower's stale
log suffix counted as replicated): the checker then produces a concrete
violation trace, demonstrating that the state space genuinely contains the
bug and that the fixed rule excludes it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

BACKUP, PRIMARY = 0, 1

# A node: (view, role, log, commit) with log = tuple of (view, is_sig);
# a live ledger's positions below its snapshot base are None.
NodeState = tuple[int, int, tuple[tuple[int, bool], ...], int]
# Global state: tuple of nodes.
State = tuple[NodeState, ...]


@dataclass
class ModelResult:
    """Outcome of one bounded exhaustive exploration."""

    states_explored: int = 0
    transitions: int = 0
    violation: str | None = None
    trace: list[str] = field(default_factory=list)
    hit_bounds: bool = False

    @property
    def ok(self) -> bool:
        return self.violation is None


def _last_sig(log: tuple) -> tuple[int, int]:
    """(view, seqno) of the last signature entry; (0, 0) if none."""
    for index in range(len(log) - 1, -1, -1):
        view, is_sig = log[index]
        if is_sig:
            return (view, index + 1)
    return (0, 0)


def _quorums(n: int) -> list[frozenset[int]]:
    majority = n // 2 + 1
    result = []
    for mask in range(1 << n):
        members = frozenset(i for i in range(n) if mask >> i & 1)
        if len(members) >= majority:
            result.append(members)
    return result


def initial_state(n_nodes: int) -> State:
    """Node 0 starts as the view-1 primary with its opening signature."""
    nodes = []
    for i in range(n_nodes):
        if i == 0:
            nodes.append((1, PRIMARY, ((1, True),), 1))
        else:
            nodes.append((1, BACKUP, ((1, True),), 0))
    return tuple(nodes)


def successors(state: State, max_view: int, max_log: int, buggy_ack: bool):
    """Yield (action description, next state) pairs."""
    n = len(state)
    quorums = _quorums(n)

    # --- primary appends an entry (user or signature) -------------------
    for i, (view, role, log, commit) in enumerate(state):
        if role is not PRIMARY or len(log) >= max_log:
            continue
        for is_sig in (False, True):
            new_log = log + ((view, is_sig),)
            new_node = (view, role, new_log, commit)
            yield (
                f"append({i}, {'sig' if is_sig else 'user'})",
                state[:i] + (new_node,) + state[i + 1:],
            )

    # --- replication: primary overwrites one follower's divergent suffix
    for i, (p_view, p_role, p_log, p_commit) in enumerate(state):
        if p_role is not PRIMARY:
            continue
        for j, (f_view, f_role, f_log, f_commit) in enumerate(state):
            if i == j or f_view > p_view:
                continue
            if f_log == p_log and f_view == p_view:
                continue
            new_follower = (p_view, BACKUP, p_log, f_commit)
            yield (
                f"replicate({i}->{j})",
                state[:j] + (new_follower,) + state[j + 1:],
            )

    # --- commit: highest current-view signature replicated on a quorum --
    for i, (view, role, log, commit) in enumerate(state):
        if role is not PRIMARY:
            continue
        for seqno in range(len(log), commit, -1):
            entry_view, is_sig = log[seqno - 1]
            if not is_sig or entry_view != view:
                continue
            prefix = log[:seqno]
            for quorum in quorums:
                if i not in quorum:
                    continue
                if all(
                    _acks(state[m], prefix, buggy_ack) for m in quorum if m != i
                ):
                    new_node = (view, role, log, seqno)
                    yield (
                        f"commit({i}, {seqno})",
                        state[:i] + (new_node,) + state[i + 1:],
                    )
                    break  # one quorum suffices; others yield same state
            break  # only the highest eligible signature matters

    # --- election: atomic quorum vote per the last-signature rule -------
    for i, (view, role, log, commit) in enumerate(state):
        new_view = max(node[0] for node in state) + 1
        if new_view > max_view:
            continue
        candidate_sig = _last_sig(log)
        for quorum in quorums:
            if i not in quorum:
                continue
            if not all(
                _would_vote(state[m], candidate_sig) for m in quorum if m != i
            ):
                continue
            # Winner truncates to its last signature and opens the view
            # with a fresh signature transaction.
            sig_seqno = candidate_sig[1]
            new_log = log[:sig_seqno] + ((new_view, True),)
            if len(new_log) > max_log:
                continue
            nodes = list(state)
            nodes[i] = (new_view, PRIMARY, new_log, commit)
            for m in quorum:
                if m != i:
                    m_view, _m_role, m_log, m_commit = state[m]
                    nodes[m] = (new_view, BACKUP, m_log, m_commit)
            # Old primaries outside the quorum eventually observe the new
            # view; model that eagerly to keep the state space small, but
            # only for primaries (their role is what matters for safety).
            yield (f"election({i}, view {new_view}, voters {sorted(quorum)})",
                   tuple(nodes))


def _would_vote(voter: NodeState, candidate_sig: tuple[int, int]) -> bool:
    voter_sig = _last_sig(voter[2])
    return candidate_sig[0] > voter_sig[0] or (
        candidate_sig[0] == voter_sig[0] and candidate_sig[1] >= voter_sig[1]
    )


def _acks(follower: NodeState, prefix: tuple, buggy_ack: bool) -> bool:
    """Does this follower count as having replicated ``prefix``?

    Correct rule: its log must literally start with the prefix.
    Buggy rule (the bug the explorer found in our implementation): the
    follower acks its *log length*, so any log at least as long counts —
    even if the suffix diverges.
    """
    f_log = follower[2]
    if buggy_ack:
        return len(f_log) >= len(prefix)
    return f_log[: len(prefix)] == prefix


def check_state(state: State) -> str | None:
    """Election safety, commit agreement and commit-at-signature over one
    state, for the BFS, traces (:mod:`repro.obs.checker`) and live engines
    (:mod:`repro.verification.invariants`) alike. Returns a violation or
    None. A ``None`` log position (unseen, below a snapshot base) is skipped."""
    # Election safety: at most one primary per view.
    primaries: dict[int, int] = {}
    for i, (view, role, _log, _commit) in enumerate(state):
        if role is PRIMARY:
            if view in primaries:
                return (
                    f"election safety: two primaries in view {view}: "
                    f"{primaries[view]} and {i}"
                )
            primaries[view] = i
    # Commit agreement: any two nodes' committed prefixes coincide (an equal
    # slice is the fast path; the BFS never produces None).
    for i, (_vi, _ri, log_i, commit_i) in enumerate(state):
        for j in range(i + 1, len(state)):
            _vj, _rj, log_j, commit_j = state[j]
            common = min(commit_i, commit_j)
            if log_i[:common] != log_j[:common] and any(
                a is not None and b is not None and a != b
                for a, b in zip(log_i[:common], log_j[:common])
            ):
                return (
                    f"commit safety: nodes {i} and {j} disagree within their "
                    f"committed prefixes ({log_i[:common]} vs {log_j[:common]})"
                )
    # Commit at signature: a commit point is a signature transaction.
    for i, (_view, _role, log, commit) in enumerate(state):
        if commit > len(log):
            return f"commit at signature: node {i} commits {commit} past its log end"
        if commit and log[commit - 1] is not None and not log[commit - 1][1]:
            return f"commit at signature: node {i} commits {commit}, not a signature"
    return None


def check_edge(parent: State, child: State) -> str | None:
    """Over a transition: committed entries are never replaced and commit
    never regresses. Returns a violation description or None."""
    for i, (parent_node, child_node) in enumerate(zip(parent, child)):
        _pv, _pr, p_log, p_commit = parent_node
        _cv, _cr, c_log, c_commit = child_node
        if c_commit < p_commit:
            return f"node {i}: commit regressed {p_commit} -> {c_commit}"
        if c_log[:p_commit] != p_log[:p_commit]:
            return (
                f"node {i}: committed prefix rewritten "
                f"({p_log[:p_commit]} -> {c_log[:p_commit]})"
            )
    return None


def check(
    n_nodes: int = 3,
    max_view: int = 3,
    max_log: int = 4,
    max_states: int = 300_000,
    buggy_ack: bool = False,
) -> ModelResult:
    """BFS the abstract model's reachable states under the given bounds."""
    result = ModelResult()
    start = initial_state(n_nodes)
    parents: dict[State, tuple[State | None, str]] = {start: (None, "init")}
    queue: deque[State] = deque([start])
    seen = {start}

    def report(state: State, violation: str) -> ModelResult:
        result.violation = violation
        trace = []
        cursor: State | None = state
        while cursor is not None:
            parent, action = parents[cursor]
            trace.append(action)
            cursor = parent
        result.trace = list(reversed(trace))
        return result

    while queue:
        state = queue.popleft()
        result.states_explored += 1
        violation = check_state(state)
        if violation is not None:
            return report(state, violation)
        if result.states_explored >= max_states:
            result.hit_bounds = True
            return result
        for action, next_state in successors(state, max_view, max_log, buggy_ack):
            result.transitions += 1
            edge_violation = check_edge(state, next_state)
            if edge_violation is not None:
                if next_state not in parents:
                    parents[next_state] = (state, action)
                return report(next_state, edge_violation)
            if next_state not in seen:
                seen.add(next_state)
                parents[next_state] = (state, action)
                queue.append(next_state)
    return result
