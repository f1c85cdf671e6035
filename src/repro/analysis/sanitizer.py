"""Replay-divergence sanitizer: the runtime half of the determinism
discipline.

The static rules (:mod:`repro.analysis.rules`) keep nondeterminism *out of
the source*; this sanitizer checks the property they protect end-to-end: a
seeded chaos schedule, run twice, must fold to the **identical trace
digest** — every scheduler event, in order, with every RNG draw. When the
digests differ, the checkpoint lists are binary-searched (sound because
the digest is a running hash) to the first event where the runs disagreed,
which is usually enough to name the offending callback outright.

CLI::

    python -m repro.analysis.sanitizer --seed 7          # 2-run replay check
    python -m repro.analysis.sanitizer --selftest        # prove localization

The selftest injects one stolen RNG draw at a known event index in the
second run and asserts the sanitizer localizes the divergence to exactly
that event — guarding the machinery itself against bit-rot.
"""

from __future__ import annotations

import sys

from repro.sim.chaos import ChaosEngine, ChaosSpec, ScheduleReport
from repro.sim.trace import TraceRecorder, first_divergence


def run_traced_schedule(
    spec: ChaosSpec, seed: int, perturb_at: int | None = None
) -> tuple[ScheduleReport, TraceRecorder]:
    """Run one chaos schedule under a trace recorder."""
    recorder = TraceRecorder(perturb_at=perturb_at)
    report = ChaosEngine(spec).run_schedule(seed, tracer=recorder)
    return report, recorder


def localization_selftest(spec: ChaosSpec, seed: int) -> tuple[bool, str]:
    """Inject nondeterminism at a known event and check the sanitizer finds
    it. Returns (passed, description)."""
    _, clean = run_traced_schedule(spec, seed)
    if clean.event_count < 4:
        return False, f"schedule too short to perturb ({clean.event_count} events)"
    target = clean.event_count // 2
    _, perturbed = run_traced_schedule(spec, seed, perturb_at=target)
    divergence = first_divergence(clean, perturbed)
    if divergence is None:
        return False, f"stolen rng draw at event {target} went unnoticed"
    if divergence.event_index != target:
        return False, (
            f"divergence injected at event {target} but localized to "
            f"event {divergence.event_index}"
        )
    return True, (
        f"injected divergence at event {target}/{clean.event_count} "
        f"localized exactly ({divergence.comparisons} checkpoint "
        f"comparisons): {divergence.describe()}"
    )


# ----------------------------------------------------------------------
# CLI (used by CI's analysis job, next to the chaos smoke)


def main(argv=None) -> int:
    parser = ChaosEngine.cli_parser(
        "repro.analysis.sanitizer",
        "Replay seeded chaos schedules twice and verify the trace digests "
        "match; localize the first divergence otherwise.",
        schedules=1,
    )
    parser.add_argument("--selftest", action="store_true",
                        help="also inject nondeterminism and require exact "
                        "localization")
    args = parser.parse_args(argv)
    engine, _ = ChaosEngine.from_cli(args)
    ok = engine.replay_checks(args.schedules, args.seed)
    if args.selftest:
        passed, description = localization_selftest(engine.spec, args.seed)
        print(f"selftest: {description}")
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
