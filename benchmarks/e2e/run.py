"""Run one workload: ``python3 benchmarks/e2e/run.py --workload W --seed N
--seconds S --trace 0|1``.

Prints a header, per-workload facts and any failed output check, then, as
the last line of standard output, one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
pass. Exit code 0 if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

RUN_PY = os.path.abspath(__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(RUN_PY)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="host-time budget for repetitions (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one repetition, shortened windows (self-tests)")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes feed set/dict iteration order; pin them so that counts
        # repeat bit for bit. Replaces this process, starts no other.
        os.execve(
            sys.executable,
            [sys.executable, RUN_PY, *(argv or sys.argv[1:])],
            dict(os.environ, PYTHONHASHSEED="0"),
        )

    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    started = time.perf_counter()
    try:
        from benchmarks.e2e import runner  # pulls in repro: the import cost is a metric
    except ModuleNotFoundError as exc:
        print(f"e2e: the program under test is not here: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    if args.workload not in runner.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(runner.WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else runner.spec.load()["run_seconds"]
    runner.print_header(args.workload, args.seed, seconds, bool(args.trace), args.quick)
    result, detail = runner.run(
        args.workload, args.seed, seconds, bool(args.trace), args.quick, import_s
    )
    runner.print_detail(detail)
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
