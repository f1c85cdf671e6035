"""A ``--quick`` run (one repetition, shortened windows) of every workload
emits exactly the names ``BENCHMARK.json`` lists, passes its output checks
and, traced, attributes the whole timed region (``traced_pass`` marks the
run incorrect when self times and the unattributed rest miss the region by
more than 1 %)."""

import json
import os
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import spec
from benchmarks.e2e.run import RUN_PY


def _quick(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--quick", "--trace", str(trace)],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_lists_five_workloads_eleven_and_fifty_nine_metrics():
    assert len(spec.workloads()) == 5
    assert len(spec.end_to_end()) == 11
    assert len(spec.per_layer()) == 59
    assert spec.load()["paths"] == ["benchmarks/e2e"]
    assert spec.end_to_end()["setup_s"]["bound"] == max(
        metric["bound"] for metric in spec.end_to_end().values()
    )


def test_quick_untraced_set_is_correct_complete_and_under_thirty_seconds():
    started = time.perf_counter()
    for workload in spec.workloads():
        result = _quick(workload, trace=0)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == list(spec.end_to_end())
        for name, metric in result["metrics"].items():
            assert metric["unit"] == spec.end_to_end()[name]["unit"]
            assert metric["value"] > 0, name  # an end-to-end metric is never 0
    assert time.perf_counter() - started < 30


@pytest.mark.parametrize("workload", spec.workloads())
def test_quick_traced_pass_names_every_layer_metric_and_adds_up(workload):
    result = _quick(workload, trace=1)
    assert result["correct"] is True
    assert list(result["metrics"]) == list(spec.per_layer())
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert 0.0 <= values["trace.unattributed_share"] < 0.5
    assert values["trace.spans"] > 0
    assert values["service.generator_late_ms"] == 0.0
    if workload != "write_5n_obs":
        assert values["obs.self_us_per_op"] == 0.0  # exactly: no observer attached
    trace_file = os.path.join(os.path.dirname(RUN_PY), "out", f"trace_{workload}.jsonl.gz")
    assert os.path.getsize(trace_file) > 0
