"""Execution cost model: how much *simulated time* operations take.

The paper's absolute numbers come from DC16s_v3 VMs running C++ in SGX
enclaves; our substrate is a Python simulator, so we charge operations with
calibrated costs in simulated time instead. The calibration targets are the
paper's own measurements:

- **Table 5** fixes the per-request service times for the four
  (runtime × platform) cells. With the paper's 10 worker threads, a
  throughput of X tx/s implies a per-worker service time of ``10 / X``:
  e.g. C++/SGX writes at 64.8 K tx/s ⇒ ~154 µs. We set the *base* costs a
  few percent below that, because the simulation adds the same overheads
  the real system has on top (replication work per backup, periodic
  signature transactions).
- **Figure 8** fixes the signature cost: response time rises from
  ~1.2–1.3 ms to ~2.3 ms when a request triggers a signature transaction,
  so signing the Merkle root costs ~1 ms of enclave time.
- **Figure 7 (left)** fixes the replication overhead: write throughput
  declines slightly as nodes are added, consistent with a small per-backup
  cost charged to the primary for each replicated entry.

Wall-clock cost of the Python crypto is *not* what benchmarks measure —
all reported figures are simulated-time throughput/latency, so results are
machine-independent and reproducible from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ExecutionCosts:
    """Per-request service times (seconds) for one runtime×platform cell."""

    write: float
    read: float


# Calibrated from Table 5 (see module docstring). "native" is the analog of
# the paper's C++ application logic; "js" is the interpreted runtime.
_EXECUTION_COSTS: dict[tuple[str, str], ExecutionCosts] = {
    ("native", "sgx"): ExecutionCosts(write=148e-6, read=11.0e-6),
    ("native", "virtual"): ExecutionCosts(write=82e-6, read=7.9e-6),
    ("native", "snp"): ExecutionCosts(write=86e-6, read=8.2e-6),
    ("js", "sgx"): ExecutionCosts(write=625e-6, read=108e-6),
    ("js", "virtual"): ExecutionCosts(write=290e-6, read=44e-6),
    ("js", "snp"): ExecutionCosts(write=304e-6, read=46e-6),
}


# The paper's TEE-side thread pool size (Table 5).
WORKER_THREADS = 10
# Signing the Merkle root inside the enclave (Figure 8's ~1 ms bump).
SIGNATURE_COST = 1.0e-3
# Primary-side cost per entry per backup for building/sending
# append_entries (Figure 7 left's decline with cluster size).
REPLICATION_COST_PER_BACKUP = 3.0e-6
# Forwarding a user request from a backup to the primary (section 4.3).
FORWARDING_COST = 5.0e-6
# Shipping sealed state to a joiner, per byte (manifest + chunk
# responses). Makes join time scale with transferred state in simulated
# time, so dedup savings are visible to the clock and not just to
# counters.
STATE_TRANSFER_COST_PER_BYTE = 2.0e-9


@dataclass(frozen=True)
class CostModel:
    """The simulated-time execution costs of one runtime×platform cell."""

    runtime: str = "native"  # "native" (C++ analog) or "js"
    platform: str = "sgx"  # "sgx", "virtual", or "snp"

    def __post_init__(self) -> None:
        if (self.runtime, self.platform) not in _EXECUTION_COSTS:
            raise ConfigurationError(
                f"no calibration for runtime={self.runtime!r} platform={self.platform!r}"
            )

    @property
    def execution(self) -> ExecutionCosts:
        return _EXECUTION_COSTS[(self.runtime, self.platform)]

    def write_cost(self, num_backups: int = 0) -> float:
        """Service time for one write request on the primary, including its
        share of replication work toward ``num_backups`` backups."""
        return self.execution.write + num_backups * REPLICATION_COST_PER_BACKUP

    def read_cost(self) -> float:
        """Service time for one read request on any node."""
        return self.execution.read


def state_transfer_cost(num_bytes: int) -> float:
    """Wire-time surcharge for shipping ``num_bytes`` of state."""
    return num_bytes * STATE_TRANSFER_COST_PER_BYTE
