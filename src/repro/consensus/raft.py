"""The consensus state machine (sections 4.1–4.5).

:class:`ConsensusNode` is a pure protocol engine: it owns views, roles,
votes, replication indices, and the commit rule, and talks to the rest of
the node through a small host interface (:class:`ConsensusHost`). The host
(:mod:`repro.node.node`) owns the ledger and KV store and performs the
actual appends, applies, and rollbacks.

Deviations from vanilla Raft, per the paper:

- commit advances only at *signature transactions* of the current view,
  replicated to a majority of **every** active configuration;
- vote comparison uses the last signature transaction, not the last entry;
- a new primary rolls back to its own last signature transaction and opens
  its view with a fresh signature transaction;
- the primary steps down if it has not heard from a majority of backups
  within a time window (so a partitioned primary cannot grow an
  arbitrarily long uncommittable suffix).
"""

from __future__ import annotations

from typing import Protocol

from repro.consensus.configurations import ActiveConfigurations
from repro.consensus.messages import (
    AppendEntries,
    AppendEntriesResponse,
    RequestVote,
    RequestVoteResponse,
)
from repro.consensus.state import Role, TxStatus, ViewHistory, transaction_status
from repro.errors import ConsensusError
from repro.ledger.entry import LedgerEntry, TxID
from repro.ledger.ledger import Ledger
from repro.obs.metrics import RUNTIME_STATS
from repro.sim.scheduler import EventHandle, Scheduler


class ConsensusHost(Protocol):
    """What consensus needs from the node embedding it."""

    def send_consensus_message(self, to: str, message: object) -> None:
        """Deliver a protocol message to a peer (via secure channel)."""

    def apply_replicated_entry(self, entry: LedgerEntry) -> frozenset[str] | None:
        """Backup path: append ``entry`` to the ledger and apply it to the
        KV store. Returns the new node set if the entry is a
        reconfiguration, else None."""

    def truncate_to(self, seqno: int) -> None:
        """Roll the ledger and KV store back to ``seqno``."""

    def append_signature_entry(self, view: int) -> LedgerEntry:
        """Build, sign, append, and apply a signature transaction."""

    def on_commit(self, seqno: int) -> None:
        """Commit advanced: release responses, persist, handle retirements."""

    def on_lose_primacy(self) -> None: ...


# Raft-style timings (section 4.2), in simulated seconds.
ELECTION_TIMEOUT_MIN = 0.15
ELECTION_TIMEOUT_MAX = 0.30
HEARTBEAT_INTERVAL = 0.03
# Entries per append_entries. Each replication trigger (heartbeat,
# replicate_now or a success ack) sends a lagging peer every window of at
# most this many that it is missing, back to back.
MAX_BATCH_ENTRIES = 800
# The primary steps down if fewer than a majority of backups acked within
# this window (section 4.2, last paragraph).
STEP_DOWN_WINDOW = 0.45


class ConsensusNode:
    """One node's consensus engine."""

    def __init__(
        self,
        node_id: str,
        ledger: Ledger,
        scheduler: Scheduler,
        host: ConsensusHost,
        initial_nodes: set[str] | frozenset[str],
        config_base_seqno: int = 0,
    ):
        self.node_id = node_id
        self.ledger = ledger
        self.scheduler = scheduler
        self.host = host

        self.view = 0
        self.role = Role.BACKUP
        self.leader_id: str | None = None
        self.commit_seqno = 0
        self.voted_for: str | None = None
        self.configurations = ActiveConfigurations.resuming_from(
            config_base_seqno, initial_nodes
        )
        self.view_history = ViewHistory()
        # A ledger joined from a snapshot or replayed in recovery already
        # spans views: start from the views it holds.
        for start in ledger.view_starts():
            self.view_history.note_append(start)
        # Clock-skew factor applied to this node's election timeouts: a
        # skewed-fast clock (< 1) fires elections early, a skewed-slow one
        # (> 1) fires them late. Chaos schedules perturb this; safety must
        # hold for any positive value (timeouts affect liveness only).
        self.timer_scale = 1.0
        self.last_leader_contact = scheduler.now
        # Nodes that replicate but are not yet in any configuration
        # (joined as PENDING, awaiting governance; section 4.4 / 5).
        self.learners: set[str] = set()
        # Set once this node's own retirement is committed: it stays online
        # to replicate and vote but never seeks election or accepts writes.
        self.writes_frozen = False

        # Primary-only replication state.
        self._next_index: dict[str, int] = {}
        self._match_index: dict[str, int] = {}
        self._last_ack: dict[str, float] = {}
        # peer -> (prev seqno of the re-sent window in flight, the
        # next_index before the rewind) while windows sent once are re-sent
        # one at a time after a rejection.
        self._resending: dict[str, tuple[int, int]] = {}
        self._votes: set[str] = set()

        self._election_timer: EventHandle | None = None
        self._heartbeat_timer: EventHandle | None = None
        self._stopped = False

        # Observability counters.
        self.elections_started = 0
        self.times_primary = 0

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        """Start as a backup, waiting for a primary or an election.

        Views begin at 1: the service's first primary holds view 1 by
        construction (it started the network), so a backup's first election
        increments to view 2 and can never collide with the bootstrap view.
        """
        if self.view == 0:
            self.view = 1
        self._reset_election_timer()

    def start_as_initial_primary(self) -> None:
        """Bootstrap path for the first node of a brand-new service."""
        self.view = 1
        self._become_primary()

    def start_as_recovery_primary(self, view: int) -> None:
        """Bootstrap path for a disaster-recovery node: it resumes the
        replayed ledger in a view strictly greater than any it contains."""
        if view <= self.view:
            raise ConsensusError(
                f"recovery view {view} must exceed replayed view {self.view}"
            )
        self.view = view
        self._become_primary()

    def stop(self) -> None:
        """Node crash or shutdown: cancel all timers, ignore all messages."""
        self._stopped = True
        self._cancel_timer("_election_timer")
        self._cancel_timer("_heartbeat_timer")

    def resume(self) -> None:
        """Resume a stopped engine that kept its state (a stop-failure that
        healed, e.g. a process pause). Note this is NOT crash recovery —
        a crashed CCF node loses its enclave and must rejoin (section 6.2)."""
        self._stopped = False
        self.role = Role.BACKUP
        self._reset_election_timer()

    def _cancel_timer(self, attr: str) -> None:
        handle = getattr(self, attr)
        if handle is not None:
            handle.cancel()
            setattr(self, attr, None)

    # ------------------------------------------------------------------
    # Timers

    def _reset_election_timer(self) -> None:
        self._cancel_timer("_election_timer")
        timeout = self.scheduler.rng.uniform(ELECTION_TIMEOUT_MIN, ELECTION_TIMEOUT_MAX)
        if self.timer_scale <= 0:
            raise ConsensusError(f"timer_scale must be positive, got {self.timer_scale}")
        self._election_timer = self.scheduler.after(
            timeout * self.timer_scale, self._on_election_timeout
        )

    def _arm_heartbeat(self) -> None:
        self._cancel_timer("_heartbeat_timer")
        self._heartbeat_timer = self.scheduler.after(HEARTBEAT_INTERVAL, self._on_heartbeat)

    # ------------------------------------------------------------------
    # Elections (section 4.2)

    def _on_election_timeout(self) -> None:
        if self._stopped or self.role is Role.PRIMARY:
            return
        if self.writes_frozen or self.node_id not in self.configurations.all_nodes():
            # A retired node never seeks election (it only votes), and a
            # newly joined node does not participate until the
            # reconfiguration that adds it reaches its ledger (section 4.4).
            self._reset_election_timer()
            return
        self._start_election()

    def _start_election(self) -> None:
        self.view += 1
        self.role = Role.CANDIDATE
        self.leader_id = None
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        self.elections_started += 1
        obs = self.scheduler.obs
        if obs is not None:
            obs.consensus_election(self.node_id, self.view)
        last_signature = self.ledger.last_signature_txid()
        message = RequestVote(
            view=self.view,
            candidate_id=self.node_id,
            last_signature_txid=last_signature,
        )
        for peer in sorted(self.configurations.all_nodes()):
            if peer != self.node_id:
                self.host.send_consensus_message(peer, message)
        self._reset_election_timer()
        self._maybe_become_primary()

    def _maybe_become_primary(self) -> None:
        if self.role is Role.CANDIDATE and self.configurations.quorum_in_each(self._votes):
            self._become_primary()

    def _become_primary(self) -> None:
        self.role = Role.PRIMARY
        self.leader_id = self.node_id
        self.times_primary += 1
        obs = self.scheduler.obs
        if obs is not None:
            obs.consensus_become_primary(self.node_id, self.view)
        self._cancel_timer("_election_timer")
        # Discard any transactions after the last signature transaction —
        # they were never commit-eligible in our view of history.
        last_signature_seqno = self.ledger.last_signature_txid().seqno
        if self.ledger.last_seqno > last_signature_seqno:
            self._rollback(last_signature_seqno)
        # Open the view with a signature transaction (section 4.2).
        opening = self.host.append_signature_entry(self.view)
        self.note_local_append(opening, None)
        # Replication state: start every peer at the opening signature.
        now = self.scheduler.now
        self._next_index = {}
        self._match_index = {}
        self._last_ack = {}
        self._resending = {}
        for peer in self._replication_targets():
            self._next_index[peer] = opening.txid.seqno
            self._match_index[peer] = 0
            self._last_ack[peer] = now
        self._on_heartbeat()

    def _step_down(self, new_view: int | None = None) -> None:
        was_primary = self.role is Role.PRIMARY
        if new_view is not None and new_view > self.view:
            self.view = new_view
            self.voted_for = None
        self.role = Role.BACKUP
        self._votes = set()
        self._cancel_timer("_heartbeat_timer")
        self._reset_election_timer()
        if was_primary:
            obs = self.scheduler.obs
            if obs is not None:
                obs.consensus_step_down(self.node_id, self.view)
            self.host.on_lose_primacy()

    def on_request_vote(self, message: RequestVote) -> None:
        if self._stopped:
            return
        if message.view < self.view:
            self.host.send_consensus_message(
                message.candidate_id,
                RequestVoteResponse(view=self.view, sender=self.node_id, granted=False),
            )
            return
        if message.view > self.view:
            self._step_down(message.view)
        granted = False
        if self.voted_for in (None, message.candidate_id):
            mine = self.ledger.last_signature_txid()
            theirs = message.last_signature_txid
            up_to_date = theirs.view > mine.view or (
                theirs.view == mine.view and theirs.seqno >= mine.seqno
            )
            if up_to_date:
                granted = True
                self.voted_for = message.candidate_id
                self._reset_election_timer()
        self.host.send_consensus_message(
            message.candidate_id,
            RequestVoteResponse(view=self.view, sender=self.node_id, granted=granted),
        )

    def on_request_vote_response(self, message: RequestVoteResponse) -> None:
        if self._stopped:
            return
        if message.view > self.view:
            self._step_down(message.view)
            return
        if self.role is not Role.CANDIDATE or message.view != self.view:
            return
        if message.granted:
            self._votes.add(message.sender)
            self._maybe_become_primary()

    # ------------------------------------------------------------------
    # Replication (section 4.1)

    def _replication_targets(self) -> list[str]:
        """Peers to replicate to, in sorted order: iteration order feeds
        message emission order, which must be deterministic per seed."""
        targets = set(self.configurations.all_nodes()) | self.learners
        targets.discard(self.node_id)
        return sorted(targets)

    def note_local_append(self, entry: LedgerEntry, new_config: frozenset[str] | None) -> None:
        """The host appended ``entry`` locally (primary execution path)."""
        self.view_history.note_append(entry.txid)
        if new_config is not None:
            self.configurations.add(entry.txid.seqno, new_config)
            for node in new_config:
                self.learners.discard(node)
            # New peers may need replication state.
            for peer in self._replication_targets():
                self._next_index.setdefault(peer, entry.txid.seqno)
                self._match_index.setdefault(peer, 0)
                self._last_ack.setdefault(peer, self.scheduler.now)
        if self.role is Role.PRIMARY and entry.is_signature:
            # A single-node configuration (or one where everyone is already
            # caught up) can commit on its own ack.
            self._try_advance_commit()

    def add_learner(self, node_id: str, next_seqno: int) -> None:
        """Start replicating to a joined-but-untrusted node (section 4.4)."""
        self.learners.add(node_id)
        self._next_index[node_id] = max(1, next_seqno)
        self._match_index[node_id] = 0
        self._resending.pop(node_id, None)
        self._last_ack[node_id] = self.scheduler.now

    def note_retiring(self, node_id: str) -> None:
        """A node entered RETIRING: it leaves the configuration when the
        reconfiguration commits, but must keep receiving entries until it is
        RETIRED and shut down (section 4.5) — otherwise it never learns its
        own retirement committed and would keep calling elections."""
        if node_id != self.node_id:
            self.learners.add(node_id)
            self._next_index.setdefault(node_id, self.ledger.last_seqno + 1)
            self._match_index.setdefault(node_id, 0)
            self._last_ack.setdefault(node_id, self.scheduler.now)

    def remove_learner(self, node_id: str) -> None:
        """Stop replicating to a node (it was shut down or became a member)."""
        self.learners.discard(node_id)
        self._next_index.pop(node_id, None)
        self._match_index.pop(node_id, None)
        self._last_ack.pop(node_id, None)
        self._resending.pop(node_id, None)

    def freeze_writes(self) -> None:
        """This node's own retirement committed: stop accepting writes and
        never seek election again; keep replicating and voting until shut
        down (section 4.5)."""
        self.writes_frozen = True
        if self.role is Role.PRIMARY:
            self._cancel_timer("_heartbeat_timer")
            self._step_down()

    def _on_heartbeat(self) -> None:
        if self._stopped or self.role is not Role.PRIMARY:
            return
        self._check_step_down()
        if self.role is not Role.PRIMARY:
            return
        shared: dict[int, AppendEntries] = {}
        for peer in self._replication_targets():
            self._send_append_entries(peer, shared)
        self._arm_heartbeat()

    def _check_step_down(self) -> None:
        """Step down if a majority of each active configuration has gone
        quiet — a partitioned primary must not keep growing its ledger."""
        window_start = self.scheduler.now - STEP_DOWN_WINDOW
        reachable = {self.node_id}
        for peer, acked_at in self._last_ack.items():
            if acked_at >= window_start:
                reachable.add(peer)
        if not self.configurations.quorum_in_each(reachable):
            self._step_down()

    def _send_append_entries(
        self, peer: str, shared: dict[int, AppendEntries] | None = None
    ) -> None:
        """Send ``peer`` every window it is missing, back to back: windows
        of at most ``MAX_BATCH_ENTRIES`` from its ``next_index`` up to the
        last entry, or one empty probe when it has been sent everything.

        ``next_index`` is optimistic: it points past the last entry *sent*,
        not the last acknowledged, so each entry goes to each peer once.
        Consensus frames to one peer arrive in the order they were sent
        (:mod:`repro.net.network`), so a whole catch-up burst needs one
        round trip. A window that never arrives is found by the next
        append to that peer, whose ``prev_txid`` the peer does not hold;
        the failure ack then rewinds ``next_index`` to the peer's
        ``match_hint`` and re-sends one window
        (:meth:`on_append_entries_response`). While windows are re-sent
        one at a time, this (the heartbeat) re-sends the one in flight and
        nothing else.
        """
        resending = self._resending.get(peer)
        if resending is not None:
            self._next_index[peer] = resending[0] + 1
            self._resend_window(peer, resending[1], shared)
            return
        while self._send_window(peer, shared).entries:
            if self._next_index[peer] > self.ledger.last_seqno:
                return

    def _send_window(
        self, peer: str, shared: dict[int, AppendEntries] | None = None
    ) -> AppendEntries:
        """Send ``peer`` one append_entries window starting at its
        ``next_index``, advance ``next_index`` past it, and return it."""
        next_seqno = self._next_index.get(peer, self.ledger.last_seqno + 1)
        # A snapshot-based ledger does not hold entries at or below its
        # base; a peer lagging below it cannot be caught up by replication
        # and must re-join from a snapshot (section 4.4). Clamp so we never
        # frame a batch we cannot actually read.
        if next_seqno <= self.ledger.base_seqno:
            next_seqno = self.ledger.base_seqno + 1
            self._next_index[peer] = next_seqno
        # Serialize-once fast path: within one broadcast (heartbeat or
        # replicate_now), peers at the same next_index receive the *same*
        # message object, so the batch framing is encoded once for all of
        # them (encode_message memoizes per instance). The message content
        # and per-peer send order are exactly what per-peer construction
        # produced; only redundant host-side work is dropped.
        message = shared.get(next_seqno) if shared is not None else None
        if message is None:
            prev_txid = self.ledger.txid_at(min(next_seqno - 1, self.ledger.last_seqno))
            last = min(self.ledger.last_seqno, next_seqno + MAX_BATCH_ENTRIES - 1)
            entries = (
                tuple(self.ledger.entries(next_seqno, last)) if last >= next_seqno else ()
            )
            message = AppendEntries(
                view=self.view,
                leader_id=self.node_id,
                prev_txid=prev_txid,
                entries=entries,
                leader_commit=self.commit_seqno,
            )
            if shared is not None:
                shared[next_seqno] = message
        obs = self.scheduler.obs
        if obs is not None:
            obs.append_entries_sent(self.node_id, peer, len(message.entries))
        self.host.send_consensus_message(peer, message)
        if message.entries:
            self._next_index[peer] = message.entries[-1].txid.seqno + 1
        return message

    def _resend_window(
        self, peer: str, frontier: int, shared: dict[int, AppendEntries] | None = None
    ) -> None:
        """Re-send ``peer`` one window from its ``next_index``; until it is
        acked, the peer gets nothing else. ``frontier`` is where windows
        sent once end and bursts resume."""
        message = self._send_window(peer, shared)
        self._resending[peer] = (message.prev_txid.seqno, frontier)

    def replicate_now(self) -> None:
        """Push new entries to peers immediately (called after the host
        appends user transactions, so writes don't wait for the heartbeat)."""
        if self.role is not Role.PRIMARY:
            return
        shared: dict[int, AppendEntries] = {}
        for peer in self._replication_targets():
            self.replicate_to(peer, shared)

    def replicate_to(
        self, peer: str, shared: dict[int, AppendEntries] | None = None
    ) -> None:
        """Send ``peer`` every window from its ``next_index`` on, if it is
        missing any. ``next_index`` is not rewound, so a second call sends
        only what was appended since the first."""
        if self.role is not Role.PRIMARY or peer in self._resending:
            return
        if self._next_index.get(peer, 1) <= self.ledger.last_seqno:
            self._send_append_entries(peer, shared)

    def on_append_entries(self, message: AppendEntries) -> None:
        if self._stopped:
            return
        if message.view < self.view:
            self.host.send_consensus_message(
                message.leader_id,
                AppendEntriesResponse(
                    view=self.view, sender=self.node_id, success=False, match_hint=0,
                    rejected=message.prev_txid.seqno,
                ),
            )
            return
        if message.view > self.view or self.role is not Role.BACKUP:
            self._step_down(message.view)
        self.leader_id = message.leader_id
        self.last_leader_contact = self.scheduler.now
        self._reset_election_timer()

        if not self.ledger.has_txid(message.prev_txid):
            hint = min(self.ledger.last_seqno, max(0, message.prev_txid.seqno - 1))
            self.host.send_consensus_message(
                message.leader_id,
                AppendEntriesResponse(
                    view=self.view, sender=self.node_id, success=False, match_hint=hint,
                    rejected=message.prev_txid.seqno,
                ),
            )
            return

        # The prefix matches; integrate the entries, deleting conflicts
        # ("the primary's ledger is the ground truth", section 4.2).
        entries = message.entries
        # A window re-sent after a rewind mostly covers entries this ledger
        # already holds. By the induction of section 4.1 an equal
        # transaction ID means an equal prefix, so one comparison at the
        # last held entry skips them all; on a mismatch the loop below
        # finds the first conflict.
        held = min(len(entries), self.ledger.last_seqno - message.prev_txid.seqno)
        if held > 0:
            last_held = entries[held - 1].txid
            if (
                last_held.seqno == message.prev_txid.seqno + held
                and self.ledger.txid_at(last_held.seqno) == last_held
            ):
                entries = entries[held:]
        for entry in entries:
            seqno = entry.txid.seqno
            if seqno <= self.ledger.last_seqno:
                if self.ledger.entry_at(seqno).txid == entry.txid:
                    continue  # already have this exact entry
                self._rollback(seqno - 1)
            new_config = self.host.apply_replicated_entry(entry)
            self.view_history.note_append(entry.txid)
            if new_config is not None:
                self.configurations.add(seqno, new_config)

        last_covered = (
            message.entries[-1].txid.seqno if message.entries else message.prev_txid.seqno
        )
        new_commit = min(message.leader_commit, last_covered)
        if new_commit < message.leader_commit:
            # Commit only happens at signature transactions (section 4.1).
            # A catching-up backup whose covered prefix ends mid-window must
            # round the leader's commit index down to the last signature it
            # holds — the entries in between are not yet commit-provable
            # here. (Found by the chaos engine: a disk-loss replacement
            # being caught up would otherwise park its commit point on a
            # user transaction.)
            signature = self.ledger.prev_signature_seqno(new_commit)
            new_commit = signature if signature is not None else self.ledger.base_seqno
        if new_commit > self.commit_seqno:
            self._advance_commit(new_commit)

        # Report only the prefix this append_entries actually covered — NOT
        # the backup's total ledger length. The ledger may extend past
        # last_covered with a stale suffix from an older view that this
        # leader never sent; counting it toward match_index would let the
        # leader "commit" entries a majority never received. (Found by the
        # bounded explorer in repro.verification — the reproduction's
        # analog of the paper's TLA+ model checking.)
        self.host.send_consensus_message(
            message.leader_id,
            AppendEntriesResponse(
                view=self.view,
                sender=self.node_id,
                success=True,
                last_seqno=last_covered,
            ),
        )

    def on_append_entries_response(self, message: AppendEntriesResponse) -> None:
        if self._stopped:
            return
        if message.view > self.view:
            self._step_down(message.view)
            return
        if self.role is not Role.PRIMARY or message.view != self.view:
            return
        peer = message.sender
        self._last_ack[peer] = self.scheduler.now
        if message.success:
            advanced = message.last_seqno > self._match_index.get(peer, 0)
            self._match_index[peer] = max(self._match_index.get(peer, 0), message.last_seqno)
            # next_index is already past every window sent; never rewind it
            # on success, or the windows in flight between this ack's match
            # point and there would be re-sent.
            self._next_index[peer] = max(
                self._next_index.get(peer, 1), self._match_index[peer] + 1
            )
            if advanced:
                self._try_advance_commit()
            resending = self._resending.get(peer)
            if resending is not None:
                if self._match_index[peer] < self._next_index[peer] - 1:
                    return  # the re-sent window in flight is not acked yet
                if self._next_index[peer] < resending[1]:
                    # Windows this peer was sent once go again one at a
                    # time, so no re-send can be overtaken and rejected.
                    self._resend_window(peer, resending[1])
                    return
                del self._resending[peer]
            if self._next_index[peer] <= self.ledger.last_seqno:
                # Entries appended since, or a burst cut short by a
                # rewind: send the rest of what the peer is missing.
                self._send_append_entries(peer)
        else:
            # A rejection answers one window, named by the prev seqno it
            # did not hold. After a lost or overtaken window every later
            # frame of its burst is rejected too; only the first rejection
            # is news. While re-sending, act only on one that answers the
            # window in flight (the current rewind point); drop as stale
            # one whose peer held less than it has acked since (a peer
            # holds every entry it acked in this view).
            resending = self._resending.get(peer)
            if message.match_hint < self._match_index.get(peer, 0) or (
                resending is not None and message.rejected != resending[0]
            ):
                RUNTIME_STATS.inc("consensus.stale_rejections")
                return
            current = self._next_index.get(peer, self.ledger.last_seqno + 1)
            self._next_index[peer] = max(1, min(current - 1, message.match_hint + 1))
            # One window, not a burst: the re-sends go one at a time.
            self._resend_window(
                peer, current if resending is None else max(current, resending[1])
            )

    # ------------------------------------------------------------------
    # Commit (sections 4.1 & 4.4)

    def _try_advance_commit(self) -> None:
        """Find the highest current-view signature transaction replicated to
        a majority of every active configuration."""
        best = self.commit_seqno
        seqno = self.ledger.next_signature_seqno(self.commit_seqno)
        while seqno is not None:
            entry = self.ledger.entry_at(seqno)
            if entry.txid.view == self.view:
                acks = {self.node_id} | {
                    peer
                    for peer, match in self._match_index.items()
                    if match >= seqno
                }
                if self.configurations.quorum_in_each(acks):
                    best = seqno
                else:
                    break  # higher signatures can't be satisfied either
            seqno = self.ledger.next_signature_seqno(seqno)
        if best > self.commit_seqno:
            self._advance_commit(best)

    def _advance_commit(self, seqno: int) -> None:
        self.commit_seqno = seqno
        obs = self.scheduler.obs
        if obs is not None:
            obs.commit_advanced(self.node_id, self.view, seqno)
        self.configurations.on_commit(seqno)
        self.host.on_commit(seqno)

    # ------------------------------------------------------------------
    # Rollback

    def _rollback(self, seqno: int) -> None:
        if seqno < self.commit_seqno:
            raise ConsensusError(
                f"attempted rollback below commit ({seqno} < {self.commit_seqno})"
            )
        self.host.truncate_to(seqno)
        self.view_history.rollback(seqno)
        self.configurations.rollback(seqno)

    # ------------------------------------------------------------------
    # Queries

    @property
    def is_primary(self) -> bool:
        return self.role is Role.PRIMARY

    @property
    def can_accept_writes(self) -> bool:
        return self.role is Role.PRIMARY and not self.writes_frozen

    def status_of(self, txid: TxID) -> TxStatus:
        return transaction_status(
            txid,
            ledger_has_txid=self.ledger.has_txid(txid),
            last_seqno=self.ledger.last_seqno,
            commit_seqno=self.commit_seqno,
            history=self.view_history,
        )

    def dispatch(self, message: object) -> None:
        """Route a consensus message to its handler."""
        if isinstance(message, AppendEntries):
            self.on_append_entries(message)
        elif isinstance(message, AppendEntriesResponse):
            self.on_append_entries_response(message)
        elif isinstance(message, RequestVote):
            self.on_request_vote(message)
        elif isinstance(message, RequestVoteResponse):
            self.on_request_vote_response(message)
        else:
            raise TypeError(f"not a consensus message: {type(message).__name__}")
