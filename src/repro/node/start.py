"""Starting a brand-new service on its first node (Figure 1). The other two
ways into a service are :mod:`repro.node.join` and, from salvaged ledger
files, :mod:`repro.recovery.recovery`.
"""

from __future__ import annotations

from typing import Callable

from repro.app.context import Caller, Request, RequestContext
from repro.consensus.state import NodeStatus
from repro.crypto.certs import issue, self_signed
from repro.crypto.ecdsa import SigningKey
from repro.kv.store import KVStore
from repro.kv.tx import WriteSet
from repro.ledger.ledger import Ledger
from repro.ledger.secrets import LedgerSecret, LedgerSecretStore
from repro.node import maps


def mint_service_identity(
    node,
    service_subject: str,
    key_label: bytes,
    generation: int = 0,
) -> LedgerSecretStore:
    """Mint a service identity and a first ledger secret inside ``node``'s
    enclave and endorse the node's key with it. A brand-new service and a
    recovered one differ in ``key_label`` and the secret's ``generation``."""
    seed = node.node_id.encode() + node.scheduler.rng.getrandbits(128).to_bytes(16, "big")
    service_key = SigningKey.generate(seed + key_label)
    secrets = LedgerSecretStore(
        LedgerSecret.generate(seed + b"|ledger-secret", generation=generation)
    )
    node.adopt_identity(
        self_signed(service_subject, service_key),
        issue(node.node_id, node.node_key.public_key, service_subject, service_key),
        service_key,
        secrets,
    )
    return secrets


def start_new_service(
    node,
    service_subject: str,
    genesis: Callable[[RequestContext], None],
) -> None:
    """Create a brand-new service on ``node``: mint the service identity
    and ledger secret inside the enclave, write the genesis transaction
    (what ``genesis`` puts — constitution, members, users, code ids — plus
    this node's row and the service's), and become the initial primary."""
    secrets = mint_service_identity(node, service_subject, b"|service-identity")
    node.install(KVStore(), Ledger(secrets), {node.node_id}).start_as_initial_primary()
    tx = node.store.begin()
    genesis(RequestContext(Request(path="/genesis"), tx, Caller("member", "genesis"), node=node))
    service_row = tx.write_set.updates.get(maps.SERVICE_INFO, {}).get("service") or {}
    append_first_entry(node, tx.write_set, dict(service_row, status=maps.SERVICE_OPENING))


def append_first_entry(node, write_set: WriteSet, service_row: dict) -> None:
    """The first transaction of a service on its only node, new or
    recovered: ``write_set`` plus the node's own row and the service's row
    under the identity just minted, with a signature right behind."""
    write_set.put(
        maps.NODES_INFO, node.node_id, node.node_info_row(NodeStatus.TRUSTED.value)
    )
    write_set.put(maps.SERVICE_INFO, "service", dict(
        service_row, certificate=node.service_certificate.to_dict()
    ))
    node.append_local_entry(write_set)
    node.append_signature_now()
