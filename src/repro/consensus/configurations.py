"""Active configurations for atomic reconfiguration (section 4.4).

Each node keeps a sorted list of active configurations: the current
(committed) configuration at the head, followed by any pending ones added
when a reconfiguration transaction was *appended* (not committed). Winning
an election or committing a transaction requires a majority quorum in every
active configuration. When a reconfiguration commits, all earlier
configurations are dropped; when an uncommitted suffix rolls back, its
configurations are removed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConsensusError


@dataclass(frozen=True)
class Configuration:
    """The node set established by the reconfiguration at ``seqno``
    (seqno 0 is the service's initial configuration)."""

    seqno: int
    nodes: frozenset[str]

    def majority(self) -> int:
        return len(self.nodes) // 2 + 1

    def quorum_satisfied(self, acks: set[str]) -> bool:
        return len(acks & self.nodes) >= self.majority()


class ActiveConfigurations:
    """The sorted active-configuration list of one node."""

    def __init__(self, initial_nodes: frozenset[str] | set[str]):
        if not initial_nodes:
            raise ConsensusError("initial configuration cannot be empty")
        self._configs: list[Configuration] = [
            Configuration(seqno=0, nodes=frozenset(initial_nodes))
        ]

    @classmethod
    def resuming_from(cls, seqno: int, nodes: frozenset[str] | set[str]) -> "ActiveConfigurations":
        """Start from a configuration established at ``seqno`` (snapshot join)."""
        configs = cls(nodes)
        configs._configs = [Configuration(seqno=seqno, nodes=frozenset(nodes))]
        return configs

    # ------------------------------------------------------------------

    def add(self, seqno: int, nodes: frozenset[str] | set[str]) -> None:
        """A reconfiguration transaction at ``seqno`` was appended."""
        if seqno <= self._configs[-1].seqno:
            raise ConsensusError(
                f"reconfiguration seqno {seqno} not after "
                f"{self._configs[-1].seqno}"
            )
        if not nodes:
            raise ConsensusError("cannot reconfigure to an empty node set")
        self._configs.append(Configuration(seqno=seqno, nodes=frozenset(nodes)))

    def rollback(self, seqno: int) -> None:
        """Entries after ``seqno`` were rolled back; drop their configs.
        The head (current) configuration can never be rolled back."""
        survivors = [c for c in self._configs if c.seqno <= seqno]
        if not survivors:
            raise ConsensusError("rollback would remove the current configuration")
        self._configs = survivors

    def on_commit(self, commit_seqno: int) -> None:
        """A commit advanced to ``commit_seqno``: every configuration whose
        reconfiguration transaction is now committed supersedes all earlier
        ones."""
        while len(self._configs) > 1 and self._configs[1].seqno <= commit_seqno:
            self._configs.pop(0)

    # ------------------------------------------------------------------

    @property
    def current(self) -> Configuration:
        return self._configs[0]

    @property
    def pending(self) -> list[Configuration]:
        return self._configs[1:]

    @property
    def active(self) -> tuple[Configuration, ...]:
        """Every active configuration, the current one first."""
        return tuple(self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    def all_nodes(self) -> frozenset[str]:
        """Union of node sets across active configurations — the targets of
        request_vote and append_entries."""
        nodes: set[str] = set()
        for config in self._configs:
            nodes |= config.nodes
        return frozenset(nodes)

    def quorum_in_each(self, acks: set[str]) -> bool:
        """True if ``acks`` contains a majority of every active config."""
        return all(config.quorum_satisfied(acks) for config in self._configs)
