"""Service bootstrap and orchestration for simulations.

:class:`CCFService` performs the full, realistic startup dance of a CCF
network (Figure 1): the first node creates the service and its genesis
state; every other node joins with a verified attestation quote, becomes
PENDING, and is promoted to TRUSTED through member governance; finally a
member proposal opens the service to users. Everything runs through the
same endpoints and governance machinery a real deployment would use.

This is also the one place a running cluster is *driven*: every move the
paper gives the operator (join a node, trust it in place of a failed one)
and the members (submit a recovery share, vote the service open) is a
method here, on :class:`MemberHandle` or on
:class:`repro.service.operator.Operator`; the examples, the benchmarks and
the chaos and disaster schedules of :mod:`repro.sim` all call these.
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
from repro.errors import CCFError, IntegrityError, RecoveryError
from repro.governance.proposals import build_governance_app
from repro.ledger.secrets import LedgerSecretStore
from repro.net.network import LinkConfig, Network
from repro.node import maps
from repro.node.config import NodeConfig
from repro.node.node import CCFNode
from repro.node.start import start_new_service
from repro.recovery.shares import provision_recovery_shares
from repro.service.client import Response, ServiceClient
from repro.sim.scheduler import Scheduler
from repro.storage.host_storage import HostStorage
from repro.tee.attestation import HardwareRoot
from repro.tee.enclave import code_id_for

# The application every node runs: its code id is ``code_id_for(APP_CODE_NAME, 1)``.
APP_CODE_NAME = "ccf-app"
# The subject of the service certificate a new service mints.
SERVICE_SUBJECT = "ccf-service"


@dataclass
class MemberHandle:
    """A consortium member: signing identity + encryption key pair."""

    identity: Identity
    encryption: EncryptionKeyPair
    client: ServiceClient | None = None

    @property
    def subject(self) -> str:
        return self.identity.subject

    def fetch_share(self, node_id: str) -> bytes:
        """Fetch and decrypt this member's recovery share (section 5.2)."""
        response = self.client.call(
            node_id, "/gov/encrypted_recovery_share", {},
            credentials={"certificate": self.identity.certificate.to_dict()},
        )
        if not response.ok:
            raise RecoveryError(f"share fetch failed: {response.error}")
        return self.encryption.decrypt(bytes.fromhex(response.body["encrypted_share"]))

    def submit_share(self, node_id: str, share: bytes) -> Response:
        """Submit a decrypted share over this member's signed session."""
        return self.client.call(
            node_id, "/gov/submit_recovery_share", {"share": share.hex()}, signed=True
        )


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
    link: LinkConfig = field(default_factory=LinkConfig)
    seed: int = 42


def bootstrap_service(setup: ServiceSetup, tracer=None, obs=None) -> CCFService:
    """A bootstrapped service, observed from its first event: a
    :class:`repro.sim.trace.TraceRecorder` and/or an
    :class:`repro.obs.ObsCollector` attached *before* bootstrap, so the
    bootstrap events and every RNG draw land in the trace, and the nodes
    created during bootstrap wire themselves to the collector."""
    service = CCFService(setup)
    if tracer is not None:
        service.scheduler.attach_tracer(tracer)
    if obs is not None:
        obs.attach_to_service(service)
    service.bootstrap()
    return service


def trust_actions(node_id: str, replacing: str | None = None) -> list[dict]:
    """The proposal that trusts a joined node and, in the same breath,
    removes the node it replaces (Figure 9, C)."""
    actions = [{"name": "transition_node_to_trusted", "args": {"node_id": node_id}}]
    if replacing is not None:
        actions.append({"name": "remove_node", "args": {"node_id": replacing}})
    return actions


class CCFService:
    """A fully bootstrapped simulated CCF service."""

    def __init__(self, setup: ServiceSetup):
        self.setup = setup
        self.scheduler = Scheduler(seed=setup.seed)
        self.network = Network(self.scheduler, setup.link)
        self.hardware = HardwareRoot(seed=b"hw|%d" % setup.seed)
        self.code_id = code_id_for(APP_CODE_NAME, 1)
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
        start_new_service(self.new_node(), SERVICE_SUBJECT, self._genesis)

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
        for node in self.live_nodes():
            if len(node.consensus.configurations) != 1:
                return False
            if node.consensus.commit_seqno < target:
                return False
        return True

    def add_node(self) -> CCFNode:
        """Start a new node, join it, and promote it to TRUSTED through
        governance (the section 4.4 / Figure 9 path)."""
        node, _ = self.join_node()
        node_id = node.node_id
        self.trust_node(node_id)
        self.run_until(
            lambda: node_id in self.primary_node().consensus.configurations.current.nodes,
            timeout=5.0,
        )
        return node

    def join_node(
        self,
        disk: HostStorage | None = None,
        expected_seqno: int | None = None,
        timeout: float = 5.0,
    ) -> tuple[CCFNode, IntegrityError | None]:
        """Start a new node and bring it as far as running consensus: the
        attested join of section 4.4 through the current primary, waiting
        out an election first.

        With ``disk`` the machine came back with its old disk (section
        6.2): the node validates that ledger, up to ``expected_seqno`` when
        the operator knows how far it had persisted, and rejoins over it.
        A node that rejects its disk joins with an empty one instead, like
        a new machine, and its verdict is returned beside it."""
        node = self.new_node()
        self.run_until(lambda: self.primary_node() is not None, timeout)
        primary = self.primary_node()
        rejected = None
        if disk is not None:
            try:
                node.join.restart_from_disk(
                    disk, primary.node_id, primary.service_certificate,
                    expected_seqno=expected_seqno,
                )
            except IntegrityError as exc:
                rejected = exc
        if disk is None or rejected is not None:
            node.request_join(primary.node_id, primary.service_certificate)
        self.run_until(lambda: node.consensus is not None, timeout)
        return node, rejected

    def trust_node(
        self, node_id: str, replacing: str | None = None, timeout: float = 5.0
    ) -> None:
        """Members trust a joined node, removing the node it replaces in
        the same proposal (Figure 9, C-D).

        An election in mid-round takes the primary out from under the
        proposal, and can roll back the node's PENDING record after its
        join response was already delivered. The joiner re-sends until the
        record sticks, so wait for it on whoever is primary *now* and run
        the round again rather than fail."""

        def recorded() -> bool:
            primary = self.primary_node()
            return (
                primary is not None
                and primary.store.get(maps.NODES_INFO, node_id) is not None
            )

        error = None
        for _attempt in range(3):
            try:
                self.run_until(recorded, timeout)
                self.run_governance(trust_actions(node_id, replacing), timeout)
                return
            except CCFError as exc:
                error = exc
        raise error

    def open_service(self, summary: dict | None = None, timeout: float = 5.0) -> None:
        """Members vote the service open, and it opens. After a recovery
        pass its ``summary``: the proposal then names the previous and the
        new service identity, binding it to exactly this recovery (section
        5.2)."""
        args = {}
        if summary is not None:
            args = {
                "previous_service_identity":
                    summary["previous_service_identity"]["public_key"],
                "next_service_identity": summary["new_service_identity"]["public_key"],
            }
        self.run_governance([{"name": "transition_service_to_open", "args": args}], timeout)
        self.run_until(
            lambda: (self.primary_node().store.get(maps.SERVICE_INFO, "service") or {})
            .get("status") == maps.SERVICE_OPEN,
            timeout,
        )

    def submit_recovery_shares(self, members: list[MemberHandle] | None = None) -> bool:
        """Members fetch, decrypt and submit their shares to the recovery
        node until the threshold reconstructs the ledger secret (section
        5.2). Returns whether it did."""
        node_id = self._require_primary().node_id
        for member in members if members is not None else self.members:
            result = member.submit_share(node_id, member.fetch_share(node_id))
            if not result.ok:
                raise RecoveryError(f"share submission failed: {result.error}")
            if result.body.get("recovered"):
                return True
        return False

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
        why_not = self.scheduler.step_until(predicate, timeout)
        if why_not is not None:
            raise CCFError(f"condition {why_not} (sim time)")

    def live_nodes(self) -> list[CCFNode]:
        """The nodes that are up and running consensus."""
        return [
            node for node in self.nodes.values()
            if not node.stopped and node.consensus is not None
        ]

    def primary_node(self) -> CCFNode | None:
        primaries = [node for node in self.live_nodes() if node.consensus.is_primary]
        if not primaries:
            return None
        return max(primaries, key=lambda node: node.consensus.view)

    def backup_nodes(self) -> list[CCFNode]:
        primary = self.primary_node()
        return [node for node in self.live_nodes() if node is not primary]

    def any_user_client(self) -> ServiceClient:
        return self.user_clients[0]

    def kill_node(self, node_id: str) -> None:
        self.nodes[node_id].crash()
