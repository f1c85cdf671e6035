"""Consensus scenario tests on the MiniHost cluster harness.

These exercise the protocol end-to-end over the simulated network:
replication, commit at signature transactions, elections, rollback of
unsigned suffixes, reconfiguration, and the Table 2 voting matrix.
"""

import pytest

from repro.consensus import raft
from repro.consensus.messages import RequestVote, RequestVoteResponse
from repro.consensus.state import Role
from repro.ledger.entry import TxID
from repro.verification.harness import Cluster


def converge(cluster, seconds=1.0):
    cluster.run(seconds)


class TestReplicationAndCommit:
    def test_single_node_commits_alone(self):
        cluster = Cluster(1)
        cluster.start()
        primary = cluster.primary()
        primary.submit_write("k", "v")
        primary.sign_now()
        converge(cluster, 0.2)
        assert primary.consensus.commit_seqno == 3  # opening sig, write, sig

    def test_writes_replicate_to_all_backups(self):
        cluster = Cluster(3)
        cluster.start()
        primary = cluster.primary()
        for i in range(5):
            primary.submit_write(i, f"value-{i}")
        primary.sign_now()
        converge(cluster, 0.5)
        for host in cluster.hosts.values():
            assert host.ledger.last_seqno == 7
            for i in range(5):
                assert host.store.get("data", i) == f"value-{i}"

    def test_commit_requires_signature_transaction(self):
        """User entries replicate but only commit once a signature follows."""
        cluster = Cluster(3)
        cluster.start()
        primary = cluster.primary()
        converge(cluster, 0.3)
        base_commit = primary.consensus.commit_seqno
        primary.submit_write("k", "v")
        converge(cluster, 0.3)
        assert primary.consensus.commit_seqno == base_commit  # no new signature yet
        primary.sign_now()
        converge(cluster, 0.3)
        assert primary.consensus.commit_seqno == primary.ledger.last_seqno

    def test_backups_learn_commit_from_heartbeats(self):
        cluster = Cluster(3)
        cluster.start()
        primary = cluster.primary()
        primary.submit_write("k", "v")
        primary.sign_now()
        converge(cluster, 0.5)
        for host in cluster.hosts.values():
            assert host.consensus.commit_seqno == primary.consensus.commit_seqno

    def test_commit_with_minority_down(self):
        cluster = Cluster(5)
        cluster.start()
        converge(cluster, 0.2)
        cluster.crash("n3")
        cluster.crash("n4")
        primary = cluster.primary()
        primary.submit_write("k", "v")
        primary.sign_now()
        converge(cluster, 0.5)
        assert primary.consensus.commit_seqno == primary.ledger.last_seqno

    def test_no_commit_without_majority(self, monkeypatch):
        monkeypatch.setattr(raft, "STEP_DOWN_WINDOW", 10.0)
        cluster = Cluster(5)
        cluster.start()
        converge(cluster, 0.2)
        committed_before = cluster.primary().consensus.commit_seqno
        cluster.crash("n2")
        cluster.crash("n3")
        cluster.crash("n4")
        primary = cluster.primary()
        primary.submit_write("k", "v")
        primary.sign_now()
        converge(cluster, 0.5)
        assert primary.consensus.commit_seqno == committed_before

    def test_ledgers_are_byte_identical_after_convergence(self):
        cluster = Cluster(3)
        cluster.start()
        primary = cluster.primary()
        for i in range(10):
            primary.submit_write(i, i * 100)
            if i % 3 == 2:
                primary.sign_now()
        primary.sign_now()
        converge(cluster, 0.5)
        reference = [e.encode() for e in cluster.hosts["n0"].ledger.entries()]
        for host in cluster.hosts.values():
            assert [e.encode() for e in host.ledger.entries()] == reference


class TestElections:
    def test_primary_failure_triggers_election(self):
        cluster = Cluster(3)
        cluster.start()
        converge(cluster, 0.2)
        old_primary = cluster.primary()
        cluster.crash(old_primary.node_id)
        converge(cluster, 2.0)
        new_primary = cluster.primary()
        assert new_primary is not None
        assert new_primary.node_id != old_primary.node_id
        assert new_primary.consensus.view > old_primary.consensus.view

    def test_new_primary_can_commit(self):
        cluster = Cluster(3)
        cluster.start()
        primary = cluster.primary()
        primary.submit_write("pre", "fail")
        primary.sign_now()
        converge(cluster, 0.3)
        cluster.crash(primary.node_id)
        converge(cluster, 2.0)
        new_primary = cluster.primary()
        new_primary.submit_write("post", "fail")
        new_primary.sign_now()
        converge(cluster, 0.5)
        assert new_primary.consensus.commit_seqno == new_primary.ledger.last_seqno
        for host in cluster.alive_hosts():
            assert host.store.get("data", "pre") == "fail"
            assert host.store.get("data", "post") == "fail"

    def test_committed_entries_survive_failover(self):
        cluster = Cluster(5)
        cluster.start()
        primary = cluster.primary()
        for i in range(6):
            primary.submit_write(i, i)
        primary.sign_now()
        converge(cluster, 0.5)
        committed = primary.consensus.commit_seqno
        cluster.crash(primary.node_id)
        converge(cluster, 2.0)
        new_primary = cluster.primary()
        assert new_primary.consensus.commit_seqno >= committed
        for i in range(6):
            assert new_primary.store.get("data", i) == i

    def test_unsigned_suffix_rolled_back_after_election(self):
        """Entries after the last signature are discarded by a new primary
        (section 4.2) and by backups that receive the new view's entries."""
        cluster = Cluster(3)
        cluster.start()
        primary = cluster.primary()
        primary.submit_write("committed", 1)
        primary.sign_now()
        converge(cluster, 0.3)
        # Unsigned writes: replicated but never committable.
        primary.submit_write("unsigned-a", 2)
        primary.submit_write("unsigned-b", 3)
        converge(cluster, 0.2)
        cluster.crash(primary.node_id)
        converge(cluster, 2.0)
        new_primary = cluster.primary()
        assert new_primary is not None
        # The new primary rolled back to its last signature transaction and
        # opened the view with a fresh signature.
        assert new_primary.store.get("data", "committed") == 1
        assert new_primary.store.get("data", "unsigned-a") is None
        converge(cluster, 1.0)
        for host in cluster.alive_hosts():
            assert host.store.get("data", "unsigned-a") is None

    def test_old_primary_steps_down_on_higher_view(self, monkeypatch):
        monkeypatch.setattr(raft, "STEP_DOWN_WINDOW", 30.0)
        cluster = Cluster(3)
        cluster.start()
        primary = cluster.primary()
        # Partition the primary away, let a new one emerge, then heal.
        others = [n for n in cluster.node_ids if n != primary.node_id]
        cluster.network.partition_groups([primary.node_id], others)
        converge(cluster, 2.0)
        new_primary = cluster.primary()
        assert new_primary.node_id != primary.node_id
        cluster.network.heal()
        converge(cluster, 2.0)
        assert primary.consensus.role is not Role.PRIMARY
        assert primary.consensus.view >= new_primary.consensus.view

    def test_partitioned_primary_steps_down_by_itself(self, monkeypatch):
        """Section 4.2: a primary that cannot reach a majority steps down
        cleanly instead of growing an uncommittable suffix."""
        monkeypatch.setattr(raft, "STEP_DOWN_WINDOW", 0.4)
        cluster = Cluster(3)
        cluster.start()
        primary = cluster.primary()
        others = [n for n in cluster.node_ids if n != primary.node_id]
        cluster.network.partition_groups([primary.node_id], others)
        converge(cluster, 1.5)
        assert primary.consensus.role is not Role.PRIMARY

    def test_at_most_one_primary_per_view(self):
        cluster = Cluster(5)
        cluster.start()
        converge(cluster, 0.3)
        cluster.crash(cluster.primary().node_id)
        converge(cluster, 3.0)
        views = {}
        for host in cluster.alive_hosts():
            if host.consensus.role is Role.PRIMARY:
                view = host.consensus.view
                assert view not in views, "two primaries in one view"
                views[view] = host.node_id


class TestVotingRule:
    """The last-signature-transaction voting criterion, including the exact
    Table 2 scenario from the paper (Figure 5, left)."""

    # Last signature transaction of each node's ledger, reconstructed from
    # Figure 5 (left) so that the vote matrix matches Table 2.
    LAST_SIGS = {
        "n0": TxID(1, 2),
        "n1": TxID(2, 3),
        "n2": TxID(3, 6),
        "n3": TxID(3, 4),
        "n4": TxID(3, 4),
    }
    # Table 2: for each candidate, which nodes might vote for it.
    EXPECTED_VOTES = {
        "n0": {"n0"},
        "n1": {"n0", "n1"},
        "n2": {"n0", "n1", "n2", "n3", "n4"},
        "n3": {"n0", "n1", "n3", "n4"},
        "n4": {"n0", "n1", "n3", "n4"},
    }
    EXPECTED_COULD_WIN = {"n0": False, "n1": False, "n2": True, "n3": True, "n4": True}

    @staticmethod
    def _would_vote(voter_sig: TxID, candidate_sig: TxID) -> bool:
        return candidate_sig.view > voter_sig.view or (
            candidate_sig.view == voter_sig.view
            and candidate_sig.seqno >= voter_sig.seqno
        )

    def test_table2_vote_matrix(self):
        for candidate, candidate_sig in self.LAST_SIGS.items():
            voters = {
                voter
                for voter, voter_sig in self.LAST_SIGS.items()
                if self._would_vote(voter_sig, candidate_sig)
            }
            assert voters == self.EXPECTED_VOTES[candidate], candidate

    def test_table2_could_win(self):
        majority = len(self.LAST_SIGS) // 2 + 1
        for candidate, voters in self.EXPECTED_VOTES.items():
            assert (len(voters) >= majority) == self.EXPECTED_COULD_WIN[candidate]

    def test_vote_rule_in_protocol(self):
        """Drive on_request_vote directly against constructed ledgers."""
        cluster = Cluster(2)
        voter = cluster.hosts["n0"]
        # Give the voter a ledger whose last signature is at view 2, seqno 2.
        voter.consensus.view = 2
        voter.ledger.append(voter.ledger.build_signature_entry(2, "n0", voter.signing_key))
        voter.store.apply_write_set(voter.ledger.entry_at(1).public_writes, 1)

        sent = []
        voter.send_consensus_message = lambda to, msg: sent.append((to, msg))
        voter.consensus.host = voter

        # A candidate with an older signature is refused.
        voter.consensus.on_request_vote(
            RequestVote(view=3, candidate_id="n1", last_signature_txid=TxID(1, 9))
        )
        assert isinstance(sent[-1][1], RequestVoteResponse)
        assert not sent[-1][1].granted

        # A candidate with an equal-view, equal-seqno signature is granted.
        voter.consensus.voted_for = None
        voter.consensus.on_request_vote(
            RequestVote(view=4, candidate_id="n1", last_signature_txid=TxID(2, 2))
        )
        assert sent[-1][1].granted

        # Only one vote per view.
        voter.consensus.on_request_vote(
            RequestVote(view=4, candidate_id="n9", last_signature_txid=TxID(3, 50))
        )
        assert not sent[-1][1].granted


class TestReconfiguration:
    def test_add_node_single_transaction(self):
        """Grow 3 → 4 nodes with one reconfiguration transaction."""
        cluster = Cluster(4)
        # Start with only n0..n2 in the configuration; n3 is outside.
        for node_id in cluster.node_ids:
            cluster.hosts[node_id].consensus.configurations = (
                type(cluster.hosts[node_id].consensus.configurations)
                .resuming_from(0, frozenset({"n0", "n1", "n2"}))
            )
        cluster.start()
        primary = cluster.primary()
        converge(cluster, 0.3)
        # Statuses: existing nodes trusted, n3 becomes trusted now.
        primary.consensus.add_learner("n3", 1)
        converge(cluster, 0.5)  # let n3 catch up as a learner
        primary.submit_reconfiguration(
            {"n0": "Trusted", "n1": "Trusted", "n2": "Trusted", "n3": "Trusted"}
        )
        primary.sign_now()
        converge(cluster, 1.0)
        assert primary.consensus.configurations.current.nodes == frozenset(
            {"n0", "n1", "n2", "n3"}
        )
        assert cluster.hosts["n3"].ledger.last_seqno == primary.ledger.last_seqno

    def test_remove_node_two_step_retirement(self):
        cluster = Cluster(3)
        cluster.start()
        primary = cluster.primary()
        converge(cluster, 0.3)
        victim = [n for n in cluster.node_ids if n != primary.node_id][0]
        statuses = {n: "Trusted" for n in cluster.node_ids}
        statuses[victim] = "Retiring"
        primary.submit_reconfiguration(statuses)
        primary.sign_now()
        converge(cluster, 0.5)
        expected = frozenset(n for n in cluster.node_ids if n != victim)
        assert primary.consensus.configurations.current.nodes == expected
        # Second transaction marks the node Retired (safe to shut down).
        statuses[victim] = "Retired"
        primary.submit_reconfiguration(statuses)
        primary.sign_now()
        converge(cluster, 0.5)
        assert primary.store.get(
            "public:ccf.gov.nodes.info", victim
        ) == {"status": "Retired"}

    def test_quorum_spans_old_and_new_during_reconfig(self, monkeypatch):
        """While a reconfiguration is pending, commit needs majorities in
        both configurations."""
        monkeypatch.setattr(raft, "STEP_DOWN_WINDOW", 10.0)
        cluster = Cluster(5)
        for node_id in cluster.node_ids:
            cluster.hosts[node_id].consensus.configurations = (
                type(cluster.hosts[node_id].consensus.configurations)
                .resuming_from(0, frozenset({"n0", "n1", "n2"}))
            )
        cluster.start()
        primary = cluster.primary()
        converge(cluster, 0.3)
        # Swap to {n2, n3, n4}: the old majority {n0, n1, n2} is NOT a
        # majority of the new configuration. Cut off the incoming nodes.
        cluster.network.partition_groups(["n0", "n1", "n2"], ["n3", "n4"])
        primary.consensus.add_learner("n3", 1)
        primary.consensus.add_learner("n4", 1)
        primary.submit_reconfiguration(
            {
                "n0": "Retiring",
                "n1": "Retiring",
                "n2": "Trusted",
                "n3": "Trusted",
                "n4": "Trusted",
            }
        )
        before = primary.consensus.commit_seqno
        primary.sign_now()
        converge(cluster, 1.0)
        # Old config has quorum but the new one does not: no commit.
        assert primary.consensus.commit_seqno == before
        cluster.network.heal()
        converge(cluster, 1.5)
        assert primary.consensus.commit_seqno == primary.ledger.last_seqno


class TestMatchIndexRegression:
    def test_stale_suffix_does_not_count_toward_commit(self):
        """Regression for a bug found by the bounded explorer: a backup
        holding a stale uncommitted suffix acked its full ledger length on
        an empty heartbeat, letting the leader 'commit' entries the backup
        never received."""
        from repro.consensus.messages import AppendEntries, AppendEntriesResponse
        from repro.kv.tx import WriteSet

        cluster = Cluster(3)
        cluster.start()
        converge(cluster, 0.3)
        primary = cluster.primary()
        backup = [h for h in cluster.hosts.values() if h is not primary][0]
        # Craft a stale suffix on the backup: entries it appended from a
        # hypothetical earlier exchange that the primary doesn't know about.
        for i in range(3):
            ws = WriteSet()
            ws.put("stale", i, i)
            entry = backup.ledger.build_entry(backup.consensus.view, ws)
            backup.ledger.append(entry)
            backup.store.apply_write_set(ws, entry.txid.seqno)
            backup.consensus.view_history.note_append(entry.txid)
        assert backup.ledger.last_seqno > primary.ledger.last_seqno
        # An empty heartbeat covering only the primary's prefix must not
        # yield an ack for the stale suffix.
        responses = []
        backup.send_consensus_message = lambda to, msg: responses.append(msg)
        backup.consensus.host = backup
        prev = primary.ledger.last_txid()
        backup.consensus.on_append_entries(AppendEntries(
            view=primary.consensus.view,
            leader_id=primary.node_id,
            prev_txid=prev,
            entries=(),
            leader_commit=primary.consensus.commit_seqno,
        ))
        ack = [m for m in responses if isinstance(m, AppendEntriesResponse)][-1]
        assert ack.success
        assert ack.last_seqno == prev.seqno  # covered prefix only


class TestSafetyInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_log_matching_across_failovers(self, seed):
        """After repeated failovers, committed prefixes on all live nodes
        agree entry-for-entry (Log Matching + Leader Completeness)."""
        cluster = Cluster(5, seed=seed)
        cluster.start()
        killed = []
        for round_number in range(2):
            converge(cluster, 1.0)
            primary = cluster.primary()
            if primary is None:
                continue
            for i in range(4):
                primary.submit_write((round_number, i), i)
            primary.sign_now()
            converge(cluster, 0.5)
            killed.append(primary.node_id)
            cluster.crash(primary.node_id)
        converge(cluster, 3.0)
        live = cluster.alive_hosts()
        commit = max(host.consensus.commit_seqno for host in live)
        reference = None
        for host in live:
            if host.ledger.last_seqno >= commit:
                prefix = [host.ledger.entry_at(s).encode() for s in range(1, commit + 1)]
                if reference is None:
                    reference = prefix
                else:
                    assert prefix == reference
        assert reference is not None


class TestCatchUpCommitRounding:
    def test_catching_up_backup_commits_only_at_signatures(self, monkeypatch):
        """A backup fed one entry per append_entries must round the
        leader's commit index down to the last signature it holds — its
        commit point may never rest on a user transaction. Regression for
        a bug found by the chaos engine (repro.sim.chaos)."""
        from repro.verification.invariants import check_all_invariants

        monkeypatch.setattr(raft, "MAX_BATCH_ENTRIES", 1)
        cluster = Cluster(3, seed=11)
        cluster.start()
        converge(cluster, 0.2)
        primary = cluster.primary()
        straggler = next(
            h for h in cluster.hosts.values() if h.node_id != primary.node_id
        )
        for peer in cluster.hosts:
            if peer != straggler.node_id:
                cluster.network.partition(straggler.node_id, peer)
        # Two signature windows with user transactions in between: the
        # majority side commits well past the straggler.
        for batch in range(2):
            for i in range(3):
                primary.submit_write(("k", batch, i), i)
            primary.sign_now()
        converge(cluster, 0.5)
        assert primary.consensus.commit_seqno > straggler.consensus.commit_seqno

        cluster.network.heal()
        engines = [h.consensus for h in cluster.hosts.values()]
        target = primary.consensus.commit_seqno
        for _ in range(20_000):
            if not cluster.scheduler.step():
                break
            # Commit at a signature (with the other safety invariants) must
            # hold at *every* intermediate step of the one-entry-at-a-time
            # catch-up, not just at quiescence.
            check_all_invariants(engines)
            if straggler.consensus.commit_seqno >= target:
                break
        assert straggler.consensus.commit_seqno >= target


class TestNotPrimaryError:
    def test_backup_submissions_raise_typed_error(self):
        from repro.errors import NotPrimaryError

        cluster = Cluster(3, seed=5)
        cluster.start()
        converge(cluster, 0.2)
        backup = next(
            h for h in cluster.hosts.values() if not h.consensus.is_primary
        )
        with pytest.raises(NotPrimaryError):
            backup.submit_write("k", 1)
        with pytest.raises(NotPrimaryError):
            backup.sign_now()
        with pytest.raises(NotPrimaryError):
            backup.submit_reconfiguration({"n9": "Trusted"})

    def test_not_primary_error_is_consensus_error(self):
        from repro.errors import CCFError, ConsensusError, NotPrimaryError

        assert issubclass(NotPrimaryError, ConsensusError)
        assert issubclass(NotPrimaryError, CCFError)


class TestHeldPrefixSkip:
    """``on_append_entries`` decides a window's already-held prefix with one
    transaction-ID comparison at the last held entry, and scans entry by
    entry only when that fails. The oracle is the same window delivered one
    entry per message, where the two are the same comparison."""

    SHARED = 6  # view-1 entries leader and backup both hold

    def _backup_and_window(self, shared_in_window, stale, fresh):
        """A backup holding the shared prefix plus ``stale`` view-1 entries
        the leader never had, and the view-2 leader's window: the last
        ``shared_in_window`` shared entries followed by ``fresh`` new ones."""
        from repro.consensus.messages import AppendEntries
        from repro.kv.tx import WriteSet

        cluster = Cluster(3)
        leader, backup = cluster.hosts["n0"], cluster.hosts["n1"]
        backup.consensus.start()
        sent, rollbacks = [], []
        backup.send_consensus_message = lambda to, message: sent.append(message)
        truncate_to = backup.truncate_to
        backup.truncate_to = lambda seqno: (rollbacks.append(seqno), truncate_to(seqno))

        def build(ledger, view, tag, index):
            write_set = WriteSet()
            write_set.put("data", f"{tag}{index}", index)
            entry = ledger.build_entry(view, write_set)
            ledger.append(entry)
            return entry, write_set

        shared = [build(leader.ledger, 1, "shared", i)[0] for i in range(self.SHARED)]
        backup.consensus.on_append_entries(AppendEntries(
            view=1, leader_id="n0", prev_txid=TxID(0, 0),
            entries=tuple(shared), leader_commit=0,
        ))
        for i in range(stale):
            entry, write_set = build(backup.ledger, 1, "stale", i)
            backup.store.apply_write_set(write_set, entry.txid.seqno)
            backup.consensus.view_history.note_append(entry.txid)
        for i in range(fresh):
            build(leader.ledger, 2, "fresh", i)
        first = self.SHARED - shared_in_window + 1
        window = tuple(leader.ledger.entries(first))
        del sent[:]
        return leader, backup, window, leader.ledger.txid_at(first - 1), sent, rollbacks

    def _deliver(self, backup, prev_txid, entries):
        from repro.consensus.messages import AppendEntries

        backup.consensus.on_append_entries(AppendEntries(
            view=2, leader_id="n0", prev_txid=prev_txid,
            entries=tuple(entries), leader_commit=0,
        ))

    @pytest.mark.parametrize(
        "shared_in_window, stale, fresh",
        [
            pytest.param(0, 3, 5, id="diverges-at-first-held"),
            pytest.param(3, 4, 6, id="diverges-in-the-middle"),
            pytest.param(4, 1, 3, id="diverges-at-last-held"),
            pytest.param(4, 0, 3, id="held-prefix-then-new-entries"),
            pytest.param(5, 0, 0, id="window-entirely-held"),
            pytest.param(2, 6, 1, id="stale-suffix-longer-than-window"),
        ],
    )
    def test_one_window_equals_one_entry_per_message(self, shared_in_window, stale, fresh):
        args = (shared_in_window, stale, fresh)
        leader, whole, window, prev_txid, whole_sent, whole_rollbacks = (
            self._backup_and_window(*args)
        )
        _, single, _, _, single_sent, single_rollbacks = self._backup_and_window(*args)

        self._deliver(whole, prev_txid, window)
        previous = prev_txid
        for entry in window:
            self._deliver(single, previous, [entry])
            previous = entry.txid

        def state(host):
            return (
                [entry.encode() for entry in host.ledger.entries()],
                host.ledger.root(),
                host.store.serialize(),
                host.consensus.view_history.starts(),
            )

        assert state(whole) == state(single)
        assert whole_rollbacks == single_rollbacks
        assert len(whole_rollbacks) == (1 if stale else 0)
        assert len(whole_sent) == 1 and whole_sent[0].success
        assert whole_sent[0].last_seqno == single_sent[-1].last_seqno == window[-1].txid.seqno
        covered = whole.ledger.entries(window[0].txid.seqno, window[-1].txid.seqno)
        assert [e.txid for e in covered] == [e.txid for e in window]
        assert whole.ledger.last_txid() == leader.ledger.last_txid()

    def test_a_gap_inside_the_held_prefix_takes_the_per_entry_path(self):
        """The shortcut trusts the last held entry only when the window's
        seqnos are consecutive up to it. A window with a hole in its held
        part must not be judged by the wrong entry: the per-entry scan
        accepts it (every entry it names is held or next), and so must we."""
        _leader, backup, window, prev_txid, sent, rollbacks = self._backup_and_window(
            4, 0, 3
        )
        gapped = window[:2] + window[3:]
        self._deliver(backup, prev_txid, gapped)
        assert sent[-1].success and not rollbacks
        assert backup.ledger.last_txid() == window[-1].txid
