"""Node configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.raft import ConsensusConfig
from repro.errors import ConfigurationError
from repro.perf.costmodel import CostModel


@dataclass(frozen=True)
class NodeConfig:
    """Everything that parameterizes one CCF node.

    ``signature_interval`` is the number of transactions between signature
    transactions (Figure 8 uses 100); ``signature_flush_time`` bounds the
    commit latency of a trailing batch when traffic stops.
    """

    platform: str = "sgx"  # "sgx", "snp", or "virtual"
    runtime: str = "native"  # "native" (C++ analog) or "js"
    worker_threads: int = 10
    signature_interval: int = 100
    signature_flush_time: float = 0.05
    snapshot_interval: int = 0  # committed txs between snapshots; 0 = off
    replication_interval: float = 0.002  # primary push cadence for new entries
    join_retry_interval: float = 1.0  # joiner re-sends until admitted + recorded
    accept_virtual_attestation: bool = False
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    cost_model: CostModel | None = None
    # Incremental state transfer (PR 9). Snapshot production serializes
    # only maps that changed since the last snapshot into content-addressed
    # sealed chunks (~``snapshot_chunk_bytes`` of canonical rows each),
    # reusing prior chunks for clean maps, and the join protocol ships a
    # signed manifest first so joiners fetch only the chunks they don't
    # already hold, ``join_chunk_batch`` ids per round.
    snapshot_chunk_bytes: int = 16384
    join_chunk_batch: int = 16

    def __post_init__(self) -> None:
        if self.signature_interval < 1:
            raise ConfigurationError("signature_interval must be >= 1")
        if self.worker_threads < 1:
            raise ConfigurationError("worker_threads must be >= 1")
        if self.snapshot_chunk_bytes < 256:
            raise ConfigurationError("snapshot_chunk_bytes must be >= 256")
        if self.join_chunk_batch < 1:
            raise ConfigurationError("join_chunk_batch must be >= 1")

    def resolve_cost_model(self) -> CostModel:
        if self.cost_model is not None:
            return self.cost_model
        return CostModel(
            runtime=self.runtime,
            platform=self.platform,
            worker_threads=self.worker_threads,
        )
