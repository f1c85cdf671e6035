"""Node configuration."""

from __future__ import annotations

from dataclasses import dataclass

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
    signature_interval: int = 100
    signature_flush_time: float = 0.05
    snapshot_interval: int = 0  # committed txs between snapshots; 0 = off

    def __post_init__(self) -> None:
        if self.signature_interval < 1:
            raise ConfigurationError("signature_interval must be >= 1")
        if self.signature_flush_time < 0:
            raise ConfigurationError("signature_flush_time must be >= 0")
        if self.snapshot_interval < 0:
            raise ConfigurationError("snapshot_interval must be >= 0")
        CostModel(self.runtime, self.platform)  # rejects an uncalibrated cell
