"""``python -m benchmarks.e2e``: whole sets of runs, and comparing them.

- ``run`` (the default): every workload once, untraced, each in its own
  subprocess of ``run.py``; prints every metric and runs the output checks.
- ``trace``: the same with the traced pass, so the report carries the
  per-layer metrics beside the end-to-end ones.
- ``compare A.json B.json``: one row per workload x end-to-end metric.
- ``aa``: two sets of the same tree, compared; the benchmark's own noise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from benchmarks.e2e import spec
from benchmarks.e2e.run import RUN_PY

EXACT = ("sim_", "ok_share")  # deterministic per seed: any difference is real


def run_set(seed: int, seconds: float, trace: bool, quick: bool, names: list[str]) -> dict:
    """One subprocess per workload, one after another (two cores: running
    them side by side would have them slow each other)."""
    report = {"seed": seed, "quick": quick, "workloads": {}}
    for name in names:
        command = [
            sys.executable, RUN_PY, "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ] + (["--quick"] if quick else [])
        done = subprocess.run(
            command, env=dict(os.environ, PYTHONHASHSEED="0"),
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = done.stdout.splitlines()
        detail = next(
            (json.loads(line[len("DETAIL "):]) for line in lines if line.startswith("DETAIL ")),
            None,
        )
        print("\n".join(line for line in lines if not line.startswith(("DETAIL ", "{"))))
        if detail is None:
            detail = {"problems": [f"run.py exited {done.returncode} without a result"]}
        detail["exit_code"] = done.returncode
        report["workloads"][name] = detail
    return report


def invalid(report: dict) -> list[str]:
    return [
        name for name, detail in report["workloads"].items()
        if detail["problems"] or detail["exit_code"] != 0
    ]


def compare(a: dict, b: dict, exact: bool = False) -> tuple[list[str], bool]:
    """Rows ``workload metric A B B/A verdict`` and whether none is bad.

    ``regressed``: B is worse than A by more than the metric's bound.
    ``unresolved``: not regressed, but the repetitions of either run spread
    wider than the bound, so "unchanged" cannot be claimed either (a
    caution, not a failure). With ``exact`` (same tree, same seed) a
    simulated metric must not move at all."""
    rows = [f"{'workload':<14}{'metric':<22}{'A':>14}{'B':>14}{'B/A':>9}  verdict"]
    fine = True
    for name in spec.workloads():
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        da, db = a["workloads"][name], b["workloads"][name]
        for metric, meta in spec.end_to_end().items():
            va, vb = da["end_to_end"].get(metric), db["end_to_end"].get(metric)
            if va is None or vb is None:
                rows.append(f"{name:<14}{metric:<22}{'missing':>37}")
                fine = False
                continue
            ratio = vb / va if va else float("inf")
            worse = ratio - 1.0 if meta["better"] == "lower" else 1.0 - ratio
            spread = max(d.get("spread", {}).get(metric, 0.0) for d in (da, db))
            if worse > meta["bound"]:
                verdict = "regressed"
            elif exact and metric.startswith(EXACT) and va != vb:
                verdict = "differs (must repeat exactly)"
            elif spread > meta["bound"]:
                verdict = f"unresolved (spread {spread:.3f} > bound {meta['bound']})"
            else:
                verdict = "ok"
            fine = fine and verdict.startswith(("ok", "unresolved"))
            rows.append(f"{name:<14}{metric:<22}{va:>14.6g}{vb:>14.6g}{ratio:>9.4f}  {verdict}")
    return rows, fine


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command")
    for name in ("run", "trace", "aa"):
        sub = commands.add_parser(name)
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument("--seconds", type=float, default=float(spec.load()["run_seconds"]))
        sub.add_argument("--quick", action="store_true")
        sub.add_argument("--workload", action="append", choices=spec.workloads())
        sub.add_argument("--out", help="write the report (JSON) here")
    sub = commands.add_parser("compare")
    sub.add_argument("a")
    sub.add_argument("b")
    args = parser.parse_args(argv if argv is not None else sys.argv[1:] or ["run"])

    if args.command == "compare":
        with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
            rows, fine = compare(json.load(fa), json.load(fb))
        print("\n".join(rows))
        return 0 if fine else 1

    names = args.workload or spec.workloads()
    report = run_set(args.seed, args.seconds, args.command == "trace", args.quick, names)
    bad = invalid(report)
    if args.command == "aa":
        second = run_set(args.seed, args.seconds, False, args.quick, names)
        bad += invalid(second)
        rows, fine = compare(report, second, exact=True)
        print("\n".join(rows))
        report = {"a": report, "b": second}
        if not fine:
            bad.append("aa comparison")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    for name in bad:
        print(f"INVALID: {name}")
    return 1 if bad else 0
