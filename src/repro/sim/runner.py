"""The one schedule runner: seed loop, batch report, replay check, CLI.

A schedule engine — :class:`repro.sim.chaos.ChaosEngine`,
:class:`repro.sim.disaster.DisasterEngine` — knows *what to break when* and
*how to judge it*. What running batches of seeded schedules has in common
lives here, on the base class both extend: which seeds a batch runs, the
batch verdict, the run-twice-and-compare determinism gate, and the command
line the CI jobs spell.

A batch of ``n`` schedules from seed ``s`` runs seeds ``s .. s+n-1``, so a
batch of one from a reported seed is that schedule again: the ``REPRODUCE
with:`` line the command line prints for a failing schedule replays it.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass

from repro.sim.trace import TraceRecorder, first_divergence


class ScheduleEngine:
    """Base of the seeded schedule engines.

    A subclass names its frozen spec dataclass (``spec_type``), the spec
    fields its command line may override (``cli_flags``: flag -> field), its
    module (``prog``), its one-line ``description`` and what a clean batch
    proves (``all_clear``), and
    implements ``run_schedule(seed, tracer=None, obs=None)`` — returning a
    report with ``seed``, ``ok``, ``failures`` and ``fingerprint()`` — and
    ``summarize(reports)``, the batch's headline lines.
    """

    spec_type: type
    cli_flags: dict[str, str]
    prog: str
    description: str
    all_clear: str

    def __init__(self, spec=None):
        self.spec = spec if spec is not None else self.spec_type()

    def run(self, schedules: int, first_seed: int = 0) -> "BatchReport":
        seeds = range(first_seed, first_seed + schedules)
        return BatchReport(self, [self.run_schedule(seed) for seed in seeds])

    def check_replay(self, seed: int) -> tuple[bool, str]:
        """The determinism gate: run one schedule twice under the trace
        recorder and require byte-identical digests — every scheduler
        event, in order, with every RNG draw. Returns (ok, description); a
        divergence is localized to the first event where the runs disagree
        (sound because the digest is a running hash)."""
        trace_a, trace_b = TraceRecorder(), TraceRecorder()
        report_a = self.run_schedule(seed, tracer=trace_a)
        report_b = self.run_schedule(seed, tracer=trace_b)
        divergence = first_divergence(trace_a, trace_b)
        if divergence is not None:
            return False, f"seed {seed}: {divergence.describe()}"
        if report_a.fingerprint() != report_b.fingerprint():
            return False, (
                f"seed {seed}: trace digests match but report fingerprints "
                "differ — report fields escape the traced state"
            )
        return True, (
            f"seed {seed}: deterministic over {trace_a.event_count} events, "
            f"{trace_a.rng_draws} rng draws (digest {trace_a.digest[:16]}…)"
        )

    def replay_checks(self, schedules: int, first_seed: int) -> bool:
        """Replay-check ``schedules`` consecutive seeds, one printed line
        each. Returns whether all of them held."""
        held = True
        for seed in range(first_seed, first_seed + schedules):
            ok, description = self.check_replay(seed)
            print(("replay-check ok: " if ok else "replay-check FAIL: ") + description)
            held = held and ok
        return held

    # -- command line ---------------------------------------------------

    @classmethod
    def cli_parser(cls, prog: str, description: str, schedules: int):
        """The flags every schedule command line shares, on a parser the
        caller may extend."""
        parser = argparse.ArgumentParser(prog=f"python -m {prog}", description=description)
        parser.add_argument("--schedules", type=int, default=schedules)
        parser.add_argument("--seed", type=int, default=0, help="seed of the first schedule")
        for flag in cls.cli_flags:
            parser.add_argument(flag, type=int, default=None)
        return parser

    @classmethod
    def from_cli(cls, args: argparse.Namespace) -> tuple["ScheduleEngine", str]:
        """The engine the parsed flags describe, and those flags spelled
        back for a ``REPRODUCE with:`` line."""
        overrides, spelled = {}, ""
        for flag, field in cls.cli_flags.items():
            value = getattr(args, flag.lstrip("-"))
            if value is not None:
                overrides[field] = value
                spelled += f" {flag} {value}"
        return cls(dataclasses.replace(cls.spec_type(), **overrides)), spelled

    @classmethod
    def main(cls, argv=None) -> int:
        """Run a batch (CI's smoke jobs). On a violation, print a line that
        replays the failing schedule byte for byte and exit non-zero."""
        parser = cls.cli_parser(cls.prog, cls.description, schedules=5)
        parser.add_argument(
            "--replay-check", type=int, default=0, metavar="N",
            help="also run the first N schedules twice under the trace "
            "recorder and require byte-identical digests",
        )
        args = parser.parse_args(argv)
        engine, spelled = cls.from_cli(args)
        report = engine.run(args.schedules, args.seed)
        print(report.summary())
        for seed in report.failing_seeds:
            print(f"REPRODUCE with: python -m {cls.prog} --schedules 1 --seed {seed}{spelled}")
        replayed = engine.replay_checks(args.replay_check, args.seed)
        return 0 if report.ok and replayed else 1


@dataclass
class BatchReport:
    """Aggregate over a batch of schedules."""

    engine: ScheduleEngine
    schedules: list

    @property
    def ok(self) -> bool:
        return all(schedule.ok for schedule in self.schedules)

    @property
    def failing_seeds(self) -> list[int]:
        return [schedule.seed for schedule in self.schedules if not schedule.ok]

    def summary(self) -> str:
        lines = self.engine.summarize(self.schedules)
        lines += [
            f"FAIL seed={schedule.seed}: " + "; ".join(schedule.failures)
            for schedule in self.schedules if not schedule.ok
        ]
        if self.ok:
            lines.append(self.engine.all_clear)
        return "\n".join(lines)
