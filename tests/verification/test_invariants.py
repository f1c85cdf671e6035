"""Tests for the consensus invariant checks and the adversarial explorer."""

import pytest

from repro.consensus.state import Role
from repro.kv.tx import WriteSet
from repro.ledger.entry import TxID
from repro.ledger.ledger import Ledger
from repro.obs import ObsCollector, check_trace
from repro.verification.explorer import ExplorerEngine, ExploreSpec
from repro.verification.harness import Cluster
from repro.verification.invariants import (
    InvariantViolation,
    abstract,
    check_all_invariants,
)


def engines(cluster):
    return [host.consensus for host in cluster.hosts.values()]


def write(value) -> WriteSet:
    write_set = WriteSet()
    write_set.put("data", "k", value)
    return write_set


class TestInvariantsOnHealthyCluster:
    def test_healthy_cluster_passes(self):
        cluster = Cluster(3)
        cluster.start()
        primary = cluster.primary()
        for i in range(5):
            primary.submit_write(i, i)
        primary.sign_now()
        cluster.run(0.5)
        check_all_invariants(engines(cluster))

    def test_invariants_hold_through_failover(self):
        cluster = Cluster(5)
        cluster.start()
        primary = cluster.primary()
        primary.submit_write("k", 1)
        primary.sign_now()
        cluster.run(0.5)
        cluster.crash(primary.node_id)
        cluster.run(2.0)
        check_all_invariants([host.consensus for host in cluster.alive_hosts()])

    def test_snapshot_based_node_beside_full_histories_passes(self):
        """A node whose ledger starts at a snapshot base is abstracted with
        its unseen prefix as None, which the model's checks skip."""
        cluster = Cluster(3)
        cluster.start()
        primary = cluster.primary()
        primary.submit_write("a", 1)
        primary.sign_now()
        cluster.run(0.5)
        base = primary.consensus.commit_seqno
        primary.submit_write("b", 2)
        primary.sign_now()
        cluster.run(0.5)
        assert primary.consensus.commit_seqno > base > 0

        # Swap a backup's ledger for one joined from a snapshot at ``base``.
        source = primary.ledger
        metadata = source.snapshot_metadata(base)
        joined = Ledger.from_snapshot_metadata(
            source.secrets,
            base_seqno=base,
            view_starts=metadata["view_starts"],
            merkle_frontier=metadata["merkle_frontier"],
            last_signature_txid=TxID(*metadata["last_signature_txid"]),
        )
        for entry in source.entries(base + 1):
            joined.append(entry)
        backup = next(h for h in cluster.hosts.values() if h is not primary)
        backup.consensus.ledger = joined
        backup.consensus.commit_seqno = primary.consensus.commit_seqno

        _view, _role, log, _commit = abstract(backup.consensus)
        assert log[:base] == (None,) * base
        assert None not in log[base:]
        check_all_invariants(engines(cluster))


class TestInvariantsCatchViolations:
    def test_election_safety_detects_two_primaries(self):
        cluster = Cluster(3)
        cluster.start()
        # Forge an illegal state: a second primary in the same view.
        other = [h for h in cluster.hosts.values() if not h.consensus.is_primary][0]
        other.consensus.role = Role.PRIMARY
        other.consensus.view = cluster.primary().consensus.view
        with pytest.raises(InvariantViolation, match="election safety"):
            check_all_invariants(engines(cluster))

    def test_commit_at_signature_detects_bad_commit(self):
        cluster = Cluster(1)
        cluster.start()
        primary = cluster.primary()
        primary.submit_write("k", 1)  # non-signature entry
        primary.consensus.commit_seqno = primary.ledger.last_seqno
        with pytest.raises(InvariantViolation, match="signature"):
            check_all_invariants([primary.consensus])

    def test_log_matching_detects_different_history_below_shared_txid(self):
        """The induction case: two ledgers hold the same entry under the
        same txid at seqno 2, but different entries before it."""
        cluster = Cluster(2)
        a, b = (host.ledger for host in cluster.hosts.values())
        a.append(a.build_entry(1, write("x")))  # txid 1.1
        b.append(b.build_entry(2, write("y")))  # txid 2.1
        shared = a.build_entry(2, write("z"))  # txid 2.2
        a.append(shared)
        b.append(shared)
        with pytest.raises(InvariantViolation, match="previous txid at seqno 1"):
            check_all_invariants(engines(cluster))

    def test_log_matching_detects_different_bytes_under_one_txid(self):
        cluster = Cluster(2)
        a, b = (host.ledger for host in cluster.hosts.values())
        a.append(a.build_entry(1, write("x")))
        b.append(b.build_entry(1, write("y")))
        with pytest.raises(InvariantViolation, match="entry bytes at seqno 1"):
            check_all_invariants(engines(cluster))


class CommitBreaksSafety(ExplorerEngine):
    """A deliberately broken safety check: nothing may ever commit."""

    def check_safety(self, engines):
        super().check_safety(engines)
        if max(engine.commit_seqno for engine in engines) > 0:
            raise InvariantViolation("deliberately broken: commit advanced")


class TestExplorer:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_adversarial_schedules_hold_invariants(self, seed):
        report = ExplorerEngine(ExploreSpec(n_nodes=3, steps=25)).run(4, seed)
        assert report.ok, report.summary()
        assert [s.seed for s in report.schedules] == list(range(seed, seed + 4))
        assert all(s.steps_checked == 25 for s in report.schedules)

    def test_explorer_exercises_elections_and_commits(self):
        report = ExplorerEngine(ExploreSpec(n_nodes=3, steps=30)).run(6, 7)
        assert report.ok, report.summary()
        assert sum(s.elections for s in report.schedules) > 0
        assert sum(s.commit_seqno for s in report.schedules) > 0
        assert sum(len(s.fault_log) for s in report.schedules) > 0

    def test_five_node_exploration(self):
        report = ExplorerEngine(ExploreSpec(n_nodes=5, steps=20)).run(3, 3)
        assert report.ok, report.summary()

    def test_cli_runs_batch_and_replay_check(self, capsys):
        argv = ["--schedules", "2", "--steps", "10", "--replay-check", "1"]
        assert ExplorerEngine.main(argv) == 0
        out = capsys.readouterr().out
        assert "explorer: 2 schedules over 3 nodes" in out
        assert "replay-check ok: seed 0" in out

    def test_broken_invariant_reproduces_from_reported_seed(self, capsys):
        """A broken safety check fails the batch, and the printed REPRODUCE
        line — a batch of one — replays the failing schedule exactly."""
        argv = ["--schedules", "2", "--seed", "3", "--steps", "10"]
        assert CommitBreaksSafety.main(argv) == 1
        reproduce = [
            line.removeprefix("REPRODUCE with: ")
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("REPRODUCE with: ")
        ]
        assert len(reproduce) == 2

        batch = CommitBreaksSafety(ExploreSpec(steps=10)).run(2, 3)
        failing = batch.schedules[1]
        assert "deliberately broken" in failing.failures[0]
        command = reproduce[1].split()
        assert command[:3] == ["python", "-m", CommitBreaksSafety.prog]
        parser = CommitBreaksSafety.cli_parser(
            CommitBreaksSafety.prog, CommitBreaksSafety.description, schedules=5
        )
        args = parser.parse_args(command[3:])
        engine, _ = CommitBreaksSafety.from_cli(args)
        (again,) = engine.run(args.schedules, args.seed).schedules
        assert again.seed == failing.seed
        assert again.fingerprint() == failing.fingerprint()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_schedule_traces_conform(self, seed):
        """Explorer schedules record a trace the conformance checker
        validates, and observing a schedule does not change it."""
        engine = ExplorerEngine(ExploreSpec(steps=25))
        collector = ObsCollector(seed=seed)
        report = engine.run_schedule(seed, obs=collector)
        assert report.ok, report.failures
        result = check_trace(collector.spans)
        assert result.ok, result.describe()
        assert not result.has_gaps
        assert len(result.nodes) == 3
        assert report.fingerprint() == engine.run_schedule(seed).fingerprint()
