"""Output checks: is what the service produced under the benchmark correct?

Every function returns a list of problems (empty: the check passed). They
run outside the timed regions, through public APIs, and a problem marks
the workload's result incorrect. A check that exposes a real defect in
``src/`` is recorded in the README, not patched here.
"""

from __future__ import annotations

import hashlib
import random

from repro.errors import CCFError
from repro.ledger.audit import audit_ledger
from repro.ledger.entry import TxID
from repro.obs.spans import build_tree

from benchmarks.e2e.cluster import live_nodes, new_client, user_credentials

READ_BACK_SAMPLE = 20


def ledgers_agree(service) -> list[str]:
    """Committed ledger prefixes are byte-identical across live nodes."""
    nodes = live_nodes(service)
    upto = min(node.consensus.commit_seqno for node in nodes)
    first = max(node.ledger.base_seqno for node in nodes) + 1
    digests = set()
    for node in nodes:
        digest = hashlib.sha256()
        for entry in node.ledger.entries(first, upto):
            digest.update(entry.encode())
        digests.add(digest.hexdigest())
    if len(digests) != 1:
        return [f"committed prefixes [{first}, {upto}] differ across live nodes"]
    return []


def ledger_audits(service) -> list[str]:
    """The primary's persisted ledger passes the offline audit."""
    primary = service.primary_node()
    report = audit_ledger(primary.storage, primary.service_certificate)
    problems = [
        f"audit: seqno {finding.seqno} {finding.kind}: {finding.detail}"
        for finding in report.findings[:5]
    ]
    if report.signatures_verified == 0:
        problems.append("audit verified no signature transaction")
    return problems


def reads_back(service, records, preloaded: dict, seed: int) -> list[str]:
    """A sample of keys reads back the value of the last acknowledged
    write to it (the one with the highest seqno)."""
    latest: dict[int, tuple[int, str]] = dict(preloaded)
    for record in records:
        if record.ok and record.path == "/app/write_message":
            key, seqno = record.body["id"], record.seqno
            if key not in latest or seqno > latest[key][0]:
                latest[key] = (seqno, record.body["msg"])
    keys = sorted(latest)
    sample = random.Random(seed).sample(keys, min(READ_BACK_SAMPLE, len(keys)))
    primary = service.primary_node()
    client = new_client(service, "e2e-readback")
    credentials = user_credentials(service)
    problems = []
    for key in sample:
        response = client.call(
            primary.node_id, "/app/read_message", {"id": key}, credentials=credentials
        )
        got = (response.body or {}).get("msg") if response.ok else response.error
        if got != latest[key][1]:
            problems.append(f"key {key} reads {got!r}, last acked write was {latest[key][1]!r}")
    return problems[:5]


def reads_match(records, preloaded: dict) -> list[str]:
    """Every read reply in a read-only run carries the pre-loaded value."""
    wrong = sum(
        1
        for record in records
        if record.ok and record.reply.get("msg") != preloaded[record.body["id"]][1]
    )
    return [f"{wrong} reads returned a value other than the one written"] if wrong else []


def joiner_matches(service, joiner) -> list[str]:
    """A caught-up joiner holds the primary's state and Merkle root. Run
    on until both are at the same seqno, then compare at that version."""
    primary = service.primary_node()
    try:
        service.run_until(
            lambda: joiner.ledger.last_seqno == primary.ledger.last_seqno
            and primary.consensus.commit_seqno == primary.ledger.last_seqno,
            timeout=1.0,
        )
    except CCFError as exc:
        return [f"joiner never level with the primary: {exc}"]
    version = primary.ledger.last_seqno
    problems = []
    if joiner.ledger.root() != primary.ledger.root():
        problems.append(f"joiner's Merkle root differs from the primary's at {version}")
    if joiner.store.serialize_at(version) != primary.store.serialize_at(version):
        problems.append(f"joiner's store differs from the primary's at {version}")
    return problems


def committed_before_kill_survives(new_primary, committed: int, old_primary) -> list[str]:
    """Every entry the old primary had committed before it was killed is
    COMMITTED, with the same transaction id, on the new primary."""
    lost = 0
    for seqno in range(max(1, old_primary.ledger.base_seqno + 1), committed + 1):
        txid: TxID = old_primary.ledger.txid_at(seqno)
        if new_primary.tx_status(txid) != "Committed":
            lost += 1
    if committed == 0:
        return ["the old primary committed nothing before the kill"]
    return [f"{lost} of {committed} committed entries lost in the failover"] if lost else []


def causal_trees(spans) -> list[str]:
    """Every committed write has a complete causal tree: a ``request`` root
    with an ``execute`` child that holds the ``ledger.append`` for the
    committed seqno. (The rule ``repro.obs.bench`` applies, re-stated on
    ``build_tree`` because that module is slated for removal.)"""
    by_id = {span.span_id: span for span in spans}
    children = build_tree(spans)
    committed = incomplete = 0
    for span in spans:
        if span.name != "commit_wait" or span.end is None:
            continue
        if span.attrs.get("rolled_back") or span.attrs.get("detached"):
            continue
        committed += 1
        seqno = span.attrs.get("seqno")
        root = by_id.get(span.parent_id or "")
        appended = root is not None and root.name == "request" and any(
            grandchild.name == "ledger.append" and grandchild.attrs.get("seqno") == seqno
            for child in children.get(root.span_id, [])
            if child.name == "execute"
            for grandchild in children.get(child.span_id, [])
        )
        if not appended:
            incomplete += 1
    if committed == 0:
        return ["the trace holds no committed write"]
    if incomplete:
        return [f"{incomplete} of {committed} committed writes lack a complete causal tree"]
    return []
