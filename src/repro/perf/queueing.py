"""Analytic performance predictions for the simulated service.

The evaluation's throughput numbers come out of the discrete-event
simulation. This module predicts the same operating points *analytically*
(closed-loop queueing formulas), so tests can cross-validate the simulator:
if the measured throughput disagrees with theory, either the simulator or
the cost model is wrong.

The server model is the CCF node: ``c`` worker threads, deterministic
service time ``s`` per request (the cost model's calibrated values), and a
closed loop of ``N`` clients with round-trip network time ``z``
("think time" in queueing terms). Two classic bounds govern throughput:

- capacity bound:  X ≤ c / s
- population bound: X ≤ N / (z + s)

and the *asymptotic bound analysis* estimate is their minimum, which is
tight away from the knee. Near the knee, mean-value analysis (MVA) for a
closed machine-repair-style model gives the exact curve; we implement
exact MVA for the single-queue/multi-server case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf import costmodel
from repro.perf.costmodel import CostModel


@dataclass(frozen=True)
class ClosedLoopPrediction:
    """Predicted operating point for a closed-loop workload."""

    throughput: float  # requests / second
    response_time: float  # seconds at the server (queueing + service)
    utilization: float  # fraction of worker capacity in use
    bound: str  # "capacity" or "population" — which constraint binds


def asymptotic_bounds(
    n_clients: int, service_time: float, round_trip: float, workers: int
) -> ClosedLoopPrediction:
    """Asymptotic bound analysis for the closed loop."""
    capacity = workers / service_time
    population_limited = n_clients / (round_trip + service_time)
    throughput = min(capacity, population_limited)
    bound = "capacity" if capacity <= population_limited else "population"
    response_time = max(service_time, n_clients / capacity - round_trip)
    return ClosedLoopPrediction(
        throughput=throughput,
        response_time=response_time,
        utilization=min(1.0, throughput * service_time / workers),
        bound=bound,
    )


def mva_closed_loop(
    n_clients: int, service_time: float, round_trip: float, workers: int
) -> ClosedLoopPrediction:
    """Exact mean-value analysis for a closed network of one multi-server
    queue (the node) and one delay station (the network round trip).

    Standard MVA recursion with the multi-server queue approximated by the
    widely used Seidmann et al. transformation: a c-server station with
    service time s behaves like a single server with time s/c plus a pure
    delay of s·(c−1)/c. Exact for c=1; accurate within a few percent for
    the worker-pool sizes used here.
    """
    effective_service = service_time / workers
    extra_delay = service_time * (workers - 1) / workers
    delay = round_trip + extra_delay
    queue_length = 0.0
    throughput = 0.0
    response = effective_service
    for population in range(1, n_clients + 1):
        response = effective_service * (1.0 + queue_length)
        throughput = population / (delay + response)
        queue_length = throughput * response
    total_response = response + extra_delay
    return ClosedLoopPrediction(
        throughput=throughput,
        response_time=total_response,
        utilization=min(1.0, throughput * service_time / workers),
        bound="capacity" if throughput * service_time / workers > 0.95 else "population",
    )


def predict_write_throughput(
    model: CostModel, n_clients: int, round_trip: float, num_backups: int = 0
) -> ClosedLoopPrediction:
    """Predicted write throughput for a service under closed-loop load."""
    return mva_closed_loop(
        n_clients=n_clients,
        service_time=model.write_cost(num_backups),
        round_trip=round_trip,
        workers=costmodel.WORKER_THREADS,
    )


def predict_read_throughput(
    model: CostModel, n_clients: int, round_trip: float, n_nodes: int = 1
) -> ClosedLoopPrediction:
    """Predicted aggregate read throughput: reads spread over ``n_nodes``
    independent nodes (section 4.3), each its own queueing station."""
    per_node = mva_closed_loop(
        n_clients=max(1, n_clients // n_nodes),
        service_time=model.read_cost(),
        round_trip=round_trip,
        workers=costmodel.WORKER_THREADS,
    )
    return ClosedLoopPrediction(
        throughput=per_node.throughput * n_nodes,
        response_time=per_node.response_time,
        utilization=per_node.utilization,
        bound=per_node.bound,
    )


def predict_signature_throughput_factor(
    signature_interval: int, model: CostModel
) -> float:
    """Figure 8 (right) analytically: the fraction of write capacity left
    after amortizing one signing operation per ``signature_interval``
    transactions across the worker pool."""
    write = model.execution.write
    overhead_per_tx = costmodel.SIGNATURE_COST / signature_interval
    return write / (write + overhead_per_tx)
