"""Executable safety invariants for CCF's consensus (section 4), over the
consensus engines of all (live and dead) nodes; a violation raises
:class:`InvariantViolation`.

Election safety, commit agreement and commit-at-signature are stated once,
in :func:`repro.verification.model.check_state`, over each engine abstracted
to the model's ``(view, role, log, commit)`` — the state the trace checker
folds to, so a live violation and a trace violation read the same. Checked
here are the two properties the abstraction cannot see:

- **Log matching, byte for byte** — nodes that hold the same transaction ID
  hold the same entry bytes and the same previous transaction ID (section
  4.1's prev-txid induction), so by induction the same ledger up to it.
- **Configuration agreement** — nodes agree on the configuration
  established at any committed reconfiguration seqno.
"""

from __future__ import annotations

from repro.consensus.raft import ConsensusNode
from repro.consensus.state import Role
from repro.errors import CCFError
from repro.verification import model


class InvariantViolation(CCFError):
    """A consensus safety property was violated (this is a bug, not an
    environmental failure)."""


def abstract(node: ConsensusNode) -> model.NodeState:
    """The model's view of one engine: its log as ``(view, is_signature)``
    per seqno, ``None`` at or below the ledger's snapshot base."""
    ledger = node.ledger
    log = (None,) * ledger.base_seqno + tuple(
        (entry.txid.view, entry.is_signature) for entry in ledger.entries()
    )
    role = model.PRIMARY if node.role is Role.PRIMARY else model.BACKUP
    return (node.view, role, log, node.commit_seqno)


def check_log_matching(nodes: list[ConsensusNode]) -> None:
    """One pass per seqno: the nodes holding an entry there, grouped by its
    txid, must agree on the entry's bytes and on the txid before it."""
    last = max((node.ledger.last_seqno for node in nodes), default=0)
    for seqno in range(1, last + 1):
        groups: dict = {}
        for node in nodes:
            ledger = node.ledger
            if ledger.base_seqno < seqno <= ledger.last_seqno:
                groups.setdefault(ledger.txid_at(seqno), []).append(node)
        for txid, holders in groups.items():
            first = holders[0].ledger
            for other in holders[1:]:
                if other.ledger.entry_at(seqno).encode() != first.entry_at(seqno).encode():
                    differ = f"entry bytes at seqno {seqno}"
                elif other.ledger.txid_at(seqno - 1) != first.txid_at(seqno - 1):
                    differ = f"previous txid at seqno {seqno - 1}"
                else:
                    continue
                raise InvariantViolation(
                    f"log matching: {holders[0].node_id} and {other.node_id} share "
                    f"txid {txid} but differ in {differ}"
                )


def check_configuration_agreement(nodes: list[ConsensusNode]) -> None:
    established: dict[int, tuple[str, frozenset]] = {}
    for node in nodes:
        for config in node.configurations.active:
            if config.seqno > node.commit_seqno:
                continue  # pending configs may legitimately differ
            seen = established.get(config.seqno)
            if seen is None:
                established[config.seqno] = (node.node_id, config.nodes)
            elif seen[1] != config.nodes:
                raise InvariantViolation(
                    f"configuration agreement: seqno {config.seqno} is "
                    f"{sorted(seen[1])} on {seen[0]} but "
                    f"{sorted(config.nodes)} on {node.node_id}"
                )


def check_all_invariants(nodes: list[ConsensusNode]) -> None:
    """Check every invariant; raises on the first violation."""
    live = [node for node in nodes if node is not None]
    violation = model.check_state(tuple(abstract(node) for node in live))
    if violation is not None:
        # The model numbers nodes by position; name them.
        names = ", ".join(node.node_id for node in live)
        raise InvariantViolation(f"{violation} (nodes by position: {names})")
    check_log_matching(live)
    check_configuration_agreement(live)
