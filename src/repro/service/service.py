"""Service bootstrap and orchestration for simulations.

:class:`CCFService` performs the full, realistic startup dance of a CCF
network (Figure 1): the first node creates the service and its genesis
state; every other node joins with a verified attestation quote, becomes
PENDING, and is promoted to TRUSTED through member governance; finally a
member proposal opens the service to users. Everything runs through the
same endpoints and governance machinery a real deployment would use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.app.application import Application
from repro.app.context import RequestContext
from repro.app.logging_app import build_logging_app
from repro.crypto.certs import Identity
from repro.crypto.ecies import EncryptionKeyPair
from repro.errors import CCFError
from repro.governance.proposals import build_governance_app
from repro.ledger.secrets import LedgerSecretStore
from repro.net.network import LinkConfig, Network
from repro.node import maps
from repro.node.config import NodeConfig
from repro.node.node import CCFNode
from repro.node.start import start_new_service
from repro.recovery.shares import provision_recovery_shares
from repro.service.client import ServiceClient
from repro.sim.scheduler import Scheduler
from repro.tee.attestation import HardwareRoot
from repro.tee.enclave import code_id_for


@dataclass
class MemberHandle:
    """A consortium member: signing identity + encryption key pair."""

    identity: Identity
    encryption: EncryptionKeyPair
    client: ServiceClient | None = None

    @property
    def subject(self) -> str:
        return self.identity.subject


@dataclass
class ServiceSetup:
    """Parameters of a simulated service."""

    n_nodes: int = 3
    n_members: int = 3
    n_users: int = 1
    node_config: NodeConfig = field(default_factory=NodeConfig)
    app_factory: Callable[[], Application] | None = None
    constitution: dict = field(default_factory=lambda: {"kind": "default"})
    recovery_threshold: int = 2
    code_name: str = "ccf-app"
    code_version: int = 1
    service_subject: str = "ccf-service"
    link: LinkConfig = field(default_factory=LinkConfig)
    seed: int = 42


class CCFService:
    """A fully bootstrapped simulated CCF service."""

    def __init__(self, setup: ServiceSetup):
        self.setup = setup
        self.scheduler = Scheduler(seed=setup.seed)
        self.network = Network(self.scheduler, setup.link)
        self.hardware = HardwareRoot(seed=b"hw|%d" % setup.seed)
        self.code_id = code_id_for(setup.code_name, setup.code_version)
        self.nodes: dict[str, CCFNode] = {}
        self.members: list[MemberHandle] = []
        self.users: list[Identity] = []
        self.user_clients: list[ServiceClient] = []
        self._next_node_index = 0

        self._app_factory = setup.app_factory or build_logging_app

        for i in range(setup.n_members):
            identity = Identity.create(f"m{i}", b"member|%d|%d" % (setup.seed, i))
            encryption = EncryptionKeyPair.generate(b"member-enc|%d|%d" % (setup.seed, i))
            self.members.append(MemberHandle(identity=identity, encryption=encryption))
        for i in range(setup.n_users):
            self.users.append(Identity.create(f"u{i}", b"user|%d|%d" % (setup.seed, i)))

    # ------------------------------------------------------------------
    # Node construction

    def new_node(self) -> CCFNode:
        """A fresh node on this service's network, not yet part of it."""
        node_id = self.new_node_id()
        node = CCFNode(
            node_id=node_id,
            scheduler=self.scheduler,
            network=self.network,
            hardware=self.hardware,
            app=self._app_factory(),
            config=self.setup.node_config,
            code_id=self.code_id,
            governance_app=build_governance_app(),
        )
        self.nodes[node_id] = node
        return node

    def new_node_id(self) -> str:
        node_id = f"n{self._next_node_index}"
        self._next_node_index += 1
        return node_id

    # ------------------------------------------------------------------
    # Bootstrap

    def _genesis(self, ctx: RequestContext) -> None:
        """The genesis transaction's governance state."""
        for member in self.members:
            ctx.put(
                maps.MEMBERS_CERTS,
                member.subject,
                {"certificate": member.identity.certificate.to_dict(), "data": {}},
            )
            ctx.put(
                maps.MEMBERS_KEYS,
                member.subject,
                {"public_key": member.encryption.public.hex()},
            )
        for user in self.users:
            ctx.put(
                maps.USERS_CERTS,
                user.subject,
                {"certificate": user.certificate.to_dict(), "data": {}},
            )
        ctx.put(maps.CONSTITUTION, "constitution", dict(self.setup.constitution))
        ctx.put(maps.NODES_CODE_IDS, self.code_id, "AllowedToJoin")
        # Recovery shares for the initial ledger secret (section 5.2).
        node0 = self.nodes["n0"]
        secrets: LedgerSecretStore = node0.enclave.memory.get("ledger_secrets")
        provision_recovery_shares(
            ctx,
            secrets.current(),
            {m.subject: m.encryption.public for m in self.members},
            self.setup.recovery_threshold,
            self.scheduler.rng,
        )

    def bootstrap(self, open_service: bool = True) -> None:
        """Run the full startup sequence to a service open for users."""
        start_new_service(self.new_node(), self.setup.service_subject, self._genesis)

        for member in self.members:
            member.client = ServiceClient(
                self.scheduler, self.network,
                name=f"member:{member.subject}", identity=member.identity,
            )
        for user in self.users:
            self.user_clients.append(
                ServiceClient(
                    self.scheduler, self.network,
                    name=f"user:{user.subject}", identity=user,
                )
            )

        for _ in range(1, self.setup.n_nodes):
            self.add_node()

        if open_service:
            self.open_service()
        # Don't declare the service ready until every node has learned that
        # the bootstrap reconfigurations committed (its active-configuration
        # list collapsed to one entry). Killing the primary inside that
        # window would leave stale configurations requiring dead nodes for
        # quorum — the reconfiguration window of vulnerability the paper
        # aims to minimize (section 6.3).
        self.run_until(self._configurations_settled, timeout=5.0)

    def _configurations_settled(self) -> bool:
        primary = self.primary_node()
        if primary is None:
            return False
        if primary.unsigned_entries > 0:
            # Nudge a signature so bootstrap converges even under configs
            # with very long signature intervals / disabled flushing.
            primary.request_signature(immediate=True)
            return False
        target = primary.ledger.last_seqno
        for node in self.nodes.values():
            if node.stopped or node.consensus is None:
                continue
            if len(node.consensus.configurations) != 1:
                return False
            if node.consensus.commit_seqno < target:
                return False
        return True

    def add_node(self) -> CCFNode:
        """Start a new node, join it, and promote it to TRUSTED through
        governance (the section 4.4 / Figure 9 path)."""
        node = self.new_node()
        node_id = node.node_id
        primary = self.primary_node()
        if primary is None:
            raise CCFError("no primary to join through")
        node.request_join(primary.node_id, primary.service_certificate)
        self.run_until(lambda: node.consensus is not None, timeout=5.0)
        self.run_governance(
            [{"name": "transition_node_to_trusted", "args": {"node_id": node_id}}]
        )
        self.run_until(
            lambda: node_id in self.primary_node().consensus.configurations.current.nodes,
            timeout=5.0,
        )
        return node

    def open_service(self) -> None:
        self.run_governance([{"name": "transition_service_to_open", "args": {}}])
        self.run_until(
            lambda: (self.primary_node().store.get(maps.SERVICE_INFO, "service") or {})
            .get("status") == maps.SERVICE_OPEN,
            timeout=5.0,
        )

    # ------------------------------------------------------------------
    # Governance driving

    def _require_primary(self) -> CCFNode:
        primary = self.primary_node()
        if primary is None:
            raise CCFError("no primary available")
        return primary

    def run_governance(self, actions: list[dict], timeout: float = 5.0) -> str:
        """Submit a proposal as m0 and vote with members until accepted."""
        proposal_id, state = self.propose(actions, timeout)
        self.collect_ballots(proposal_id, state, timeout)
        return proposal_id

    def propose(self, actions: list[dict], timeout: float = 5.0) -> tuple[str, str]:
        """Submit a proposal as m0. Returns its id and its state."""
        primary = self._require_primary()
        proposer = self.members[0]
        response = proposer.client.call(
            primary.node_id, "/gov/propose", {"actions": actions}, signed=True,
            timeout=timeout,
        )
        if response.ok:
            proposal_id = response.body["proposal_id"]
            state = response.body["state"]
        else:
            # Proposal ids are content-derived, so a retry after a lost
            # response collides with the proposal that did land — resume
            # voting on it instead of failing.
            match = re.search(r"duplicate proposal ([0-9a-f]+)", response.error or "")
            if match is None:
                raise CCFError(f"proposal failed: {response.error}")
            proposal_id = match.group(1)
            status = proposer.client.call(
                self._require_primary().node_id, "/gov/proposal",
                {"proposal_id": proposal_id}, timeout=timeout,
            )
            if not status.ok:
                raise CCFError(f"proposal failed: {response.error}")
            state = status.body["info"]["state"]
        return proposal_id, state

    def collect_ballots(self, proposal_id: str, state: str, timeout: float = 5.0) -> None:
        """The members other than the proposer approve until accepted."""
        for member in self.members[1:]:
            if state == "Accepted":
                break
            vote = member.client.call(
                self._require_primary().node_id,
                "/gov/vote",
                {"proposal_id": proposal_id, "ballot": {"approve": True}},
                signed=True,
                timeout=timeout,
            )
            if not vote.ok:
                raise CCFError(f"ballot failed: {vote.error}")
            state = vote.body["state"]
        if state != "Accepted":
            raise CCFError(f"proposal {proposal_id} ended {state}")

    # ------------------------------------------------------------------
    # Simulation helpers

    def run(self, seconds: float) -> None:
        self.scheduler.run_until(self.scheduler.now + seconds)

    def run_until(self, predicate: Callable[[], bool], timeout: float = 5.0) -> None:
        deadline = self.scheduler.now + timeout
        while not predicate():
            if self.scheduler.now >= deadline:
                raise CCFError(f"condition not reached within {timeout}s (sim time)")
            if not self.scheduler.step():
                raise CCFError("scheduler drained before the condition held")

    def primary_node(self) -> CCFNode | None:
        primaries = [
            node
            for node in self.nodes.values()
            if not node.stopped and node.consensus is not None and node.consensus.is_primary
        ]
        if not primaries:
            return None
        return max(primaries, key=lambda node: node.consensus.view)

    def backup_nodes(self) -> list[CCFNode]:
        primary = self.primary_node()
        return [
            node
            for node in self.nodes.values()
            if not node.stopped and node is not primary and node.consensus is not None
        ]

    def any_user_client(self) -> ServiceClient:
        return self.user_clients[0]

    def kill_node(self, node_id: str) -> None:
        self.nodes[node_id].crash()
