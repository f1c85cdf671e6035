"""The operator: the untrusted party that runs the machines (section 2).

Operators deploy nodes, watch for failures, and drive replacement — but
hold no keys and cannot read any private state. :class:`Operator`
implements the paper's Figure 9 test-infrastructure behaviour: detect the
failed primary (A), prepare and join a replacement node (B), open a
governance proposal to trust the new node and remove the old one (C),
collect ballots (D), and retire the old node once reconfiguration completes
(E).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.node import maps
from repro.node.node import CCFNode
from repro.service.service import CCFService, trust_actions
from repro.storage.host_storage import HostStorage


@dataclass
class ReplacementTimeline:
    """Timestamps of the Figure 9 events for one node replacement."""

    failure_detected: float = 0.0  # ~A
    joined: float = 0.0  # B
    proposal_submitted: float = 0.0  # C
    proposal_accepted: float = 0.0  # D
    reconfiguration_complete: float = 0.0  # E
    events: list[tuple[str, float]] = field(default_factory=list)

    def mark(self, name: str, time: float) -> None:
        self.events.append((name, time))
        setattr(self, name, time)


@dataclass
class SalvagedDisk:
    """One dead host's disk as the operator pulled it: the power loss has
    resolved every un-synced write, so this is untrusted, possibly torn
    bytes — exactly what §5.2 recovery starts from."""

    node_id: str
    storage: HostStorage
    synced_ledger_seqno: int
    power_loss_events: list[str] = field(default_factory=list)
    corrupted: bool = False  # set by whoever tampers with it afterwards


class Operator:
    """Automates node replacement against a running service."""

    def __init__(self, service: CCFService):
        self.service = service

    def salvage_disk(self, node_id: str, rng: random.Random) -> SalvagedDisk:
        """Pull the disk out of a dead (or dying) host. If the host never
        went through a power loss — the operator yanks the disk from a
        machine that is down but was never power-cycled through
        :meth:`HostStorage.power_loss` — the un-synced buffer is resolved
        now, with the same seeded fates. Operators hold no keys: what they
        get is bytes, not state."""
        node = self.service.nodes[node_id]
        storage = node.storage
        if not storage.crashed:
            storage.power_loss(rng)
        return SalvagedDisk(
            node_id=node_id,
            storage=storage,
            synced_ledger_seqno=storage.synced_ledger_seqno,
            power_loss_events=list(storage.crash_log),
        )

    def replace_node(self, failed_node_id: str) -> tuple[CCFNode, ReplacementTimeline]:
        """Replace ``failed_node_id`` with a fresh node, following the
        Figure 9 sequence. Returns the new node and the event timeline."""
        service = self.service
        timeline = ReplacementTimeline()
        timeline.mark("failure_detected", service.scheduler.now)

        # B: prepare a new host (snapshots are copied implicitly via the
        # join protocol) and join it through the current primary, once the
        # election has produced one.
        node, _ = service.join_node(timeout=10.0)
        node_id = node.node_id
        timeline.mark("joined", service.scheduler.now)

        # C: one proposal trusts the new node and removes the failed one.
        proposal_id, state = service.propose(
            trust_actions(node_id, replacing=failed_node_id), timeout=10.0
        )
        timeline.mark("proposal_submitted", service.scheduler.now)

        # D: members ballot until accepted.
        service.collect_ballots(proposal_id, state, timeout=10.0)
        timeline.mark("proposal_accepted", service.scheduler.now)

        # E: wait for the reconfiguration to commit — the new node is in
        # the current configuration and the old one is Retired.
        def reconfigured() -> bool:
            current_primary = service.primary_node()
            if current_primary is None:
                return False
            in_config = node_id in current_primary.consensus.configurations.current.nodes
            row = current_primary.store.get(maps.NODES_INFO, failed_node_id)
            retired = isinstance(row, dict) and row.get("status") == "Retired"
            return in_config and retired

        service.run_until(reconfigured, timeout=10.0)
        timeline.mark("reconfiguration_complete", service.scheduler.now)
        return node, timeline
