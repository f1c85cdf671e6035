"""CCF's consensus layer (section 4).

A Raft-inspired protocol adapted for trusted execution:

- Transactions only *commit* at signature transactions replicated to a
  majority — integrity protection and durability share one mechanism.
- Election up-to-dateness compares the candidate's **last signature
  transaction**, not its last entry; a new primary rolls its ledger back to
  its last signature transaction and opens the view with a fresh one.
- Reconfiguration is a single transaction moving between arbitrary node
  sets, tracked through a list of *active configurations*; elections and
  commits need a majority in **every** active configuration (section 4.4).
- Retirement is two-step: RETIRING (leaves the configuration on commit)
  then RETIRED (safe to shut down) (section 4.5).
"""

from repro.consensus.raft import ConsensusNode, Role
from repro.consensus.configurations import ActiveConfigurations, Configuration
from repro.consensus.state import NodeStatus, ViewHistory

__all__ = [
    "ConsensusNode",
    "Role",
    "ActiveConfigurations",
    "Configuration",
    "NodeStatus",
    "ViewHistory",
]
