"""Cross-validation: the simulator vs analytic queueing predictions.

If the discrete-event simulation and closed-form queueing theory disagree,
one of them is wrong — these tests pin the simulator's throughput to
mean-value-analysis predictions within tolerance.
"""

import pytest

from repro.perf import costmodel
from repro.perf.costmodel import CostModel
from repro.perf.queueing import (
    asymptotic_bounds,
    mva_closed_loop,
    predict_signature_throughput_factor,
    predict_write_throughput,
)


class TestAnalyticModel:
    def test_capacity_bound_dominates_at_high_population(self):
        prediction = asymptotic_bounds(
            n_clients=1000, service_time=150e-6, round_trip=1e-3, workers=10
        )
        assert prediction.bound == "capacity"
        assert prediction.throughput == pytest.approx(10 / 150e-6)

    def test_population_bound_dominates_at_low_population(self):
        prediction = asymptotic_bounds(
            n_clients=1, service_time=150e-6, round_trip=1e-3, workers=10
        )
        assert prediction.bound == "population"
        assert prediction.throughput == pytest.approx(1 / (1e-3 + 150e-6))

    def test_mva_between_bounds(self):
        for n in (1, 5, 20, 100, 500):
            bounds = asymptotic_bounds(n, 150e-6, 1e-3, 10)
            mva = mva_closed_loop(n, 150e-6, 1e-3, 10)
            assert mva.throughput <= bounds.throughput * 1.001
            assert mva.throughput > 0

    def test_mva_monotone_in_population(self):
        previous = 0.0
        for n in (1, 2, 5, 10, 50, 200):
            current = mva_closed_loop(n, 150e-6, 1e-3, 10).throughput
            assert current >= previous
            previous = current

    def test_read_prediction_scales_with_nodes(self):
        from repro.perf.queueing import predict_read_throughput

        model = CostModel()
        one = predict_read_throughput(model, n_clients=600, round_trip=1e-4, n_nodes=1)
        five = predict_read_throughput(model, n_clients=3000, round_trip=1e-4, n_nodes=5)
        assert five.throughput == pytest.approx(5 * one.throughput, rel=0.01)

    def test_signature_factor_shape(self):
        model = CostModel()
        factors = [predict_signature_throughput_factor(i, model)
                   for i in (1, 10, 100, 1000)]
        assert factors == sorted(factors)  # larger interval → higher factor
        assert factors[0] < 0.2  # signing every tx costs most of capacity
        assert factors[-1] > 0.95


class TestSimulatorAgreement:
    """The decisive checks: simulated throughput ≈ MVA prediction."""

    @pytest.mark.parametrize("concurrency", [10, 100])
    def test_write_throughput_matches_prediction(self, concurrency):
        import sys
        sys.path.insert(0, ".")
        from benchmarks.harness import build_service, run_logging_workload

        service = build_service(n_nodes=3, seed=900 + concurrency)
        measured = run_logging_workload(
            service, read_ratio=0.0, concurrency=concurrency,
            warmup=0.05, window=0.1,
        ).writes_per_second
        model = CostModel(runtime="native", platform="sgx")
        # Round trip: two link traversals (~0.25 ms + jitter each way).
        prediction = predict_write_throughput(
            model, n_clients=concurrency, round_trip=0.00056, num_backups=2
        )
        # Within 20%: the simulation adds signature transactions and
        # replication interference the analytic model ignores.
        assert measured == pytest.approx(prediction.throughput, rel=0.20), (
            f"simulated {measured:.0f}/s vs predicted {prediction.throughput:.0f}/s"
        )

    def test_single_user_response_time_matches(self):
        """Figure 8's baseline latency from theory: RTT + service time."""
        model = CostModel(runtime="native", platform="sgx")
        prediction = mva_closed_loop(
            n_clients=1, service_time=model.write_cost(0),
            round_trip=0.00106 + 0.00006,  # the fig8 calibrated link RTT
            workers=costmodel.WORKER_THREADS,
        )
        total_latency = prediction.response_time + 0.00106
        # The measured fig8 baseline is ~1.31 ms.
        assert 0.0011 < total_latency < 0.0016
