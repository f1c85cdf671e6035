"""Ablation benchmarks for the design choices DESIGN.md calls out.

- Forwarding vs writing directly to the primary (section 4.3 / 7).
- Snapshot join vs full-replay join (section 4.4).
- Commit latency vs signature interval (the flip side of Figure 8 right).
"""

from benchmarks.harness import MESSAGE, build_service, print_table
from repro.ledger.entry import TxID
from repro.service.client import ServiceClient


class TestForwardingAblation:
    def test_direct_vs_forwarded_writes(self, benchmark):
        """The paper measures with users writing directly to the primary;
        quantify what backup-side forwarding costs instead."""

        def run():
            results = {}
            for mode in ("direct", "forwarded"):
                service = build_service(n_nodes=3, seed=500 + len(mode))
                primary = service.primary_node()
                target = primary if mode == "direct" else service.backup_nodes()[0]
                user = service.users[0]
                credentials = {"certificate": user.certificate.to_dict()}
                client = ServiceClient(service.scheduler, service.network,
                                       name=f"abl-{mode}", identity=user)
                latencies = []
                for i in range(60):
                    sent = service.scheduler.now
                    response = client.call(target.node_id, "/app/write_message",
                                           {"id": i, "msg": MESSAGE},
                                           credentials=credentials)
                    assert response.ok, response.error
                    latencies.append(service.scheduler.now - sent)
                results[mode] = sum(latencies) / len(latencies)
            return results

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "Ablation: direct-to-primary vs forwarded writes (mean latency, ms)",
            ["mode", "latency (ms)"],
            [[mode, value * 1000] for mode, value in results.items()],
        )
        # Forwarding adds an extra hop: strictly slower, but same order.
        assert results["forwarded"] > results["direct"]
        assert results["forwarded"] < 3 * results["direct"]


class TestJoinAblation:
    def test_snapshot_join_vs_full_replay(self, benchmark):
        """Snapshot-based join transfers state in O(state) instead of
        O(history) (section 4.4)."""

        def run():
            results = {}
            for mode, snapshot_interval in (("replay", 0), ("snapshot", 50)):
                service = build_service(
                    n_nodes=3, seed=600 + snapshot_interval,
                    snapshot_interval=snapshot_interval, signature_interval=20,
                )
                user = service.users[0]
                credentials = {"certificate": user.certificate.to_dict()}
                client = ServiceClient(service.scheduler, service.network,
                                       name=f"join-abl-{mode}", identity=user)
                primary = service.primary_node()
                # Overwrite one hot key many times: history ≫ state.
                for i in range(600):
                    client.call(primary.node_id, "/app/write_message",
                                {"id": i % 10, "msg": MESSAGE},
                                credentials=credentials)
                service.run(0.3)
                start = service.scheduler.now
                node = service.add_node()
                service.run_until(
                    lambda: node.ledger.last_seqno
                    >= service.primary_node().ledger.last_seqno,
                    timeout=30.0,
                )
                results[mode] = {
                    "join_time": service.scheduler.now - start,
                    "entries_replayed": node.ledger.last_seqno - node.ledger.base_seqno,
                }
            return results

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "Ablation: node join — full replay vs snapshot (section 4.4)",
            ["mode", "join time (s)", "entries replayed"],
            [[mode, row["join_time"], row["entries_replayed"]]
             for mode, row in results.items()],
        )
        assert results["snapshot"]["entries_replayed"] < \
            0.5 * results["replay"]["entries_replayed"]


class TestCommitLatencyAblation:
    def test_commit_latency_vs_signature_interval(self, benchmark):
        """The other half of Figure 8's tradeoff: larger signature
        intervals mean longer waits for global commit."""

        def run():
            rows = []
            for interval in (1, 10, 100):
                service = build_service(n_nodes=3, signature_interval=interval,
                                        seed=800 + interval)
                primary = service.primary_node()
                user = service.users[0]
                credentials = {"certificate": user.certificate.to_dict()}
                client = ServiceClient(service.scheduler, service.network,
                                       name=f"commit-abl-{interval}", identity=user)
                samples = []
                for i in range(20):
                    response = client.call(primary.node_id, "/app/write_message",
                                           {"id": i, "msg": MESSAGE},
                                           credentials=credentials)
                    txid = TxID.parse(response.txid)
                    sent = service.scheduler.now
                    service.run_until(
                        lambda: primary.consensus.commit_seqno >= txid.seqno,
                        timeout=10.0,
                    )
                    samples.append(service.scheduler.now - sent)
                    # Keep background traffic flowing so intervals fill up.
                    for j in range(3):
                        client.send(primary.node_id, "/app/write_message",
                                    {"id": 1000 + i * 3 + j, "msg": MESSAGE},
                                    credentials)
                rows.append((interval, sum(samples) / len(samples)))
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "Ablation: time to global commit vs signature interval",
            ["interval (txs)", "mean commit latency (ms)"],
            [[interval, latency * 1000] for interval, latency in rows],
        )
        latencies = dict(rows)
        # Signing every transaction commits fastest.
        assert latencies[1] <= latencies[100]
