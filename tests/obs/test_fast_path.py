"""The observer's fast paths are engaged, and agree with the slow ones.

- After the first writes on each node, the hooks a write runs through
  update instruments they resolved earlier: no ``MetricsRegistry._get``
  call at all.
- ``estimate_wire_size`` (exact-type dispatch, per-class field cache)
  returns what the plain isinstance walker in ``tests/oracles/wire_size.py``
  returns, for every payload type a run sends and for the value shapes
  the dispatch table treats specially (subclasses, depth cut-off).
"""

from __future__ import annotations

import collections
import dataclasses
import enum
from collections import OrderedDict, namedtuple

from repro.app.logging_app import build_logging_app
from repro.net.network import Network
from repro.node.config import NodeConfig
from repro.obs import ObsCollector
from repro.obs.collector import estimate_wire_size
from repro.service.service import ServiceSetup, bootstrap_service
from tests.oracles import wire_size

PAYLOAD_TYPES = {
    "ClientRequest", "ClientResponse", "ForwardedRequest", "ForwardedResponse",
    "JoinRequest", "JoinResponse", "StateChunkResponse", "SealedMessage",
}


def _service(n_nodes: int, obs: ObsCollector, **config):
    setup = ServiceSetup(
        n_nodes=n_nodes,
        node_config=NodeConfig(signature_interval=10, signature_flush_time=0.01, **config),
        app_factory=build_logging_app,
        seed=7,
    )
    return bootstrap_service(setup, obs=obs)


def _writes(service, n: int, first: int = 0) -> None:
    """``n`` writes, alternately at the primary and forwarded by a backup."""
    credentials = {"certificate": service.users[0].certificate.to_dict()}
    client = service.any_user_client()
    targets = [service.primary_node().node_id, service.backup_nodes()[0].node_id]
    for i in range(first, first + n):
        client.send(
            targets[i % 2], "/app/write_message", {"id": i, "msg": f"msg-{i}"},
            credentials=credentials,
        )
    service.run(0.1)


def test_write_path_hooks_resolve_their_instruments_once():
    collector = ObsCollector(seed=7)
    service = _service(5, collector)
    _writes(service, 20)
    calls = collections.Counter()
    resolve = collector.registry._get

    def counting_get(kind, name, labels):
        calls[name] += 1
        return resolve(kind, name, labels)

    collector.registry._get = counting_get
    spans_before = len(collector.spans)
    _writes(service, 40, first=20)
    names = {span.name for span in collector.spans[spans_before:]}
    # The measured writes ran the whole write path: execution, forwarding,
    # appends on every node, signatures and commits.
    assert {"execute", "forward", "ledger.append", "signature_tx",
            "consensus.commit"} <= names
    assert calls == {}


def test_every_payload_a_run_sends_sizes_as_the_reference_walker():
    sizes: dict[str, int] = collections.Counter()
    mismatches = []
    send = Network.send

    def checking_send(network, src, dst, payload, *args, **kwargs):
        sizes[type(payload).__name__] += 1
        expected = wire_size.estimate_wire_size(payload)
        if estimate_wire_size(payload) != expected:
            mismatches.append((type(payload).__name__, expected))
        return send(network, src, dst, payload, *args, **kwargs)

    Network.send = checking_send
    try:
        service = _service(3, ObsCollector(seed=7), snapshot_interval=20)
        _writes(service, 40)
        service.add_node()  # a snapshot join: join messages and chunks
        service.run(0.1)
    finally:
        Network.send = send
    assert PAYLOAD_TYPES <= set(sizes), sizes
    assert mismatches == []


class Colour(enum.Enum):
    RED = 1


class Kind(str, enum.Enum):
    USER = "user"


class Level(enum.IntEnum):
    HIGH = 3


Pair = namedtuple("Pair", "left right")


@dataclasses.dataclass
class Leaf:
    name: str
    blob: bytes
    level: Level = Level.HIGH


@dataclasses.dataclass
class Tree:
    leaves: list
    meta: dict
    child: object = None


def test_value_shapes_size_as_the_reference_walker():
    deep: object = "bottom"
    for _ in range(9):
        deep = {"k": [deep, 1, 2.5]}
    values = [
        None, True, 0, -3, 2.5, b"", b"\x00" * 9, "", "text",
        Colour.RED, Kind.USER, Level.HIGH, bytearray(b"ab"), memoryview(b"abc"),
        OrderedDict(a=1, b="x"), Pair(1, "two"), (1, "a", b"b"), [None, [True]],
        {1: "a", "b": b"cc", (1, 2): None},
        Leaf("n", b"x"), Tree([Leaf("a", b"1"), "s", 7], {"x": Kind.USER}),
        Tree([], {}, Tree([], {}, Tree([], {}, Tree([], {}, deep)))),
        deep, object(),
    ]
    for value in values:
        assert estimate_wire_size(value) == wire_size.estimate_wire_size(value), value
