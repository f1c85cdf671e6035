"""Run one workload in this process and turn its repetitions into metrics.

Two clocks. Simulated-clock metrics are deterministic per seed and must
repeat exactly, so repetitions double as a determinism check. Host-clock
metrics are noisy on a shared two-core VM, and the noise is one-sided
(interference only ever slows a run), so they are taken from the
**fastest** repetition; median and quartiles are printed beside them.
"""

from __future__ import annotations

import resource
import statistics
import time

from repro.net.network import LinkConfig

from benchmarks.e2e import spec
from benchmarks.e2e.workloads import WORKLOADS, Rep, Workload, Write5n

MAX_REPS = 40


def run_reps(workload: Workload, seconds: float) -> list[Rep]:
    """At least ``min_reps`` repetitions, then more until ``seconds`` of
    host time have gone by. Repetition ``i`` runs variant ``i % samples``;
    the first of each variant is checked, its twins only fingerprinted."""
    deadline = time.perf_counter() + seconds
    reps: list[Rep] = []
    while len(reps) < workload.min_reps or (
        time.perf_counter() < deadline and len(reps) < MAX_REPS
    ):
        index = len(reps)
        reps.append(workload.rep(index % workload.samples, check=index < workload.samples))
    return reps


def determinism_problems(reps: list[Rep]) -> list[str]:
    """Repetitions of one variant that rebuild their service must agree on
    the fingerprint and on every simulated metric, bit for bit."""
    problems = []
    first: dict[int, Rep] = {}
    for index, rep in enumerate(reps):
        if rep.fingerprint is None:
            continue
        base = first.setdefault(rep.variant, rep)
        if rep.fingerprint != base.fingerprint:
            problems.append(
                f"repetition {index} fingerprint {rep.fingerprint} != {base.fingerprint}"
            )
        elif rep.sim != base.sim:
            problems.append(f"repetition {index} simulated metrics differ from its twin's")
    return problems


def quartile_spread(values: list[float]) -> float:
    """(q3 - q1) / min, the run-to-run spread of a host-clock duration."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / min(values)


def end_to_end(workload: Workload, reps: list[Rep]) -> dict[str, float]:
    sampled = reps[: workload.samples]
    metrics = {
        name: statistics.median(rep.sim[name] for rep in sampled)
        for name in spec.end_to_end()
        if name.startswith("sim_") and all(name in rep.sim for rep in sampled)
    }
    if workload.pool_host_time:
        metrics["host_ops_per_s"] = sum(r.ops for r in reps) / sum(r.window_ns / 1e9 for r in reps)
    else:
        metrics["host_ops_per_s"] = max(r.ops / (r.window_ns / 1e9) for r in reps)
    attempted = sum(rep.attempted for rep in reps)
    metrics["ok_share"] = 1.0 - sum(rep.failed for rep in reps) / attempted
    metrics["setup_s"] = min(rep.setup_ns for rep in reps if rep.setup_ns is not None) / 1e9
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool, import_s: float):
    """Returns ``(result, detail)``: the one-line result the benchmark
    contract asks for, and what the report and ``compare`` want beside it."""
    workload = WORKLOADS[name](seed, quick)
    problems: list[str] = []
    reference = None
    if name == "write_5n_obs":
        # The non-perturbation claim, checked: the observed run must be the
        # plain run — same fingerprint, same simulated metrics, bit for bit.
        reference = Write5n(seed, quick).rep(0)
        problems += [f"write_5n reference: {p}" for p in reference.problems]
    reps = run_reps(workload, 0.0 if quick else seconds)
    for index, rep in enumerate(reps):
        problems += [f"repetition {index}: {problem}" for problem in rep.problems]
    problems += determinism_problems(reps)
    if reference is not None:
        if (reps[0].fingerprint, reps[0].sim) != (reference.fingerprint, reference.sim):
            problems.append("the observer perturbed the run: it is not write_5n's any more")

    metrics = end_to_end(workload, reps)
    windows = [rep.window_ns / 1e9 for rep in reps]
    setups = [rep.setup_ns / 1e9 for rep in reps if rep.setup_ns is not None]
    detail = {
        "workload": name,
        "seed": seed,
        "reps": len(reps),
        "window_s": {"min": min(windows), "median": statistics.median(windows)},
        # What compare needs to call a host-clock difference unresolved.
        "spread": {
            "host_ops_per_s": quartile_spread(windows),
            "setup_s": quartile_spread(setups),
        },
        "facts": reps[0].facts,
        "problems": problems,
        "end_to_end": metrics,
    }
    if trace:
        from benchmarks.e2e import tracing  # the untraced path never imports it

        detail["per_layer"], trace_problems = tracing.traced_pass(
            name, seed, quick, reps, reference, import_s
        )
        problems += trace_problems
        measured, wanted = detail["per_layer"], spec.per_layer()
    else:
        measured, wanted = metrics, spec.end_to_end()
    if set(measured) != set(wanted):
        problems.append(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(measured) ^ set(wanted))}"
        )
    reported = {
        key: {"value": measured[key], "unit": wanted[key]["unit"]}
        for key in wanted
        if key in measured
    }
    result = {
        "correct": not problems,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": reported,
    }
    return result, detail


def print_header(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> None:
    link = LinkConfig()
    print(
        f"e2e {workload}: seed {seed}, {'traced pass' if trace else 'untraced'}, "
        f"{'quick' if quick else f'{seconds:g} s budget'}; one process, one thread"
    )
    print(
        "  injected delay: link base "
        f"{link.base_latency * 1e6:.0f} us + uniform jitter up to {link.jitter * 1e6:.0f} us "
        "per message; service time from the sgx CostModel"
    )


def print_detail(detail: dict) -> None:
    window = detail["window_s"]
    print(
        f"  {detail['reps']} repetitions; timed region fastest {window['min']:.3f} s, "
        f"median {window['median']:.3f} s, (q3-q1)/min {detail['spread']['host_ops_per_s']:.3f}"
    )
    print("  facts: " + ", ".join(f"{k}={v}" for k, v in sorted(detail["facts"].items())))
    for kind, metrics in (("end_to_end", spec.end_to_end()), ("per_layer", spec.per_layer())):
        for name, metric in metrics.items():
            if name in detail.get(kind, {}):
                print(
                    f"  {name:<38}{detail[kind][name]:>16.6g} {metric['unit']:<8}"
                    f"({metric['better']} is better)"
                )
    for problem in detail["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if not detail["problems"]:
        print("  output checks: all passed")
