"""Service construction for the end-to-end benchmark.

Deliberately a copy of the ~30 lines in ``benchmarks/harness.py`` rather
than an import of it: everything the benchmark's numbers depend on has to
live under ``benchmarks/e2e`` so that it is frozen with the benchmark.
Only public APIs of ``repro`` are used.
"""

from __future__ import annotations

from repro.app.logging_app import build_logging_app
from repro.node.config import NodeConfig
from repro.node.node import CCFNode
from repro.service.client import ServiceClient
from repro.service.service import CCFService, ServiceSetup

KEY_SPACE = 1000
KEY_GRID = 20  # reads hit the 50 pre-populated keys 0, 20, 40, ...
SIGNATURE_INTERVAL = 20
SIGNATURE_FLUSH_TIME = 0.01


def message_for(index: int) -> str:
    """The paper's 20-character private message, distinct per request so a
    read-back can tell which write it sees."""
    return f"m{index:019d}"


def build_service(
    n_nodes: int, seed: int, snapshot_interval: int = 0, observer=None
) -> CCFService:
    """Bootstrap the paper's experiment setup: logging app, native runtime,
    ``sgx`` cost model, default link, every other knob at its default.

    ``observer`` (an ``ObsCollector``) is attached before bootstrap so the
    genesis appends land in its trace, as ``repro.obs`` documents."""
    config = NodeConfig(
        signature_interval=SIGNATURE_INTERVAL,
        signature_flush_time=SIGNATURE_FLUSH_TIME,
        snapshot_interval=snapshot_interval,
    )
    service = CCFService(
        ServiceSetup(
            n_nodes=n_nodes,
            node_config=config,
            app_factory=build_logging_app,
            seed=seed,
        )
    )
    if observer is not None:
        observer.attach_to_service(service)
    service.bootstrap()
    return service


def user_credentials(service: CCFService) -> dict:
    return {"certificate": service.users[0].certificate.to_dict()}


def new_client(service: CCFService, name: str) -> ServiceClient:
    return ServiceClient(
        service.scheduler, service.network, name=name, identity=service.users[0]
    )


def preload(service: CCFService) -> dict[int, tuple[int, str]]:
    """Write the 50-key grid through the primary so reads always hit.
    Returns ``key -> (seqno, message)`` for the read-back check."""
    primary = service.primary_node()
    client = new_client(service, "e2e-preload")
    credentials = user_credentials(service)
    written: dict[int, tuple[int, str]] = {}
    for index, key in enumerate(range(0, KEY_SPACE, KEY_GRID)):
        message = message_for(10**18 + index)
        response = client.call(
            primary.node_id,
            "/app/write_message",
            {"id": key, "msg": message},
            credentials=credentials,
        )
        if not response.ok:
            raise RuntimeError(f"preload write failed: {response.error}")
        written[key] = (int(response.txid.split(".")[1]), message)
    service.run(0.05)  # let the trailing signature flush and commit
    return written


def live_nodes(service: CCFService) -> list[CCFNode]:
    return [
        node
        for node in service.nodes.values()
        if not node.stopped and node.consensus is not None
    ]


def new_joiner(service: CCFService) -> CCFNode:
    """A fresh, not yet joined node on the service's network (what
    ``CCFService.add_node`` builds, minus the governance that follows)."""
    return CCFNode(
        node_id=service.new_node_id(),
        scheduler=service.scheduler,
        network=service.network,
        hardware=service.hardware,
        app=build_logging_app(),
        config=service.setup.node_config,
        code_id=service.code_id,
    )
