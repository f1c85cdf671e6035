"""Replay-divergence sanitizer tests: the scheduler trace digest is
deterministic from the seed, sensitive to the seed, and the binary-search
localizer names exactly the event where injected nondeterminism lands."""

import random
import re

import pytest

from repro.analysis.sanitizer import localization_selftest, run_traced_schedule
from repro.analysis import sanitizer as sanitizer_cli
from repro.sim.chaos import ChaosEngine, ChaosSpec
from repro.sim.scheduler import Scheduler
from repro.sim.trace import (
    Divergence, TraceRecorder, TracedRandom, callback_label, first_divergence,
)

# Small but real: full stack, three nodes, a couple of fault steps.
SMALL = ChaosSpec(n_nodes=3, steps=2)


class TestTracedRandom:
    def test_stream_identical_to_plain_random(self):
        plain = random.Random(1234)
        traced = TracedRandom(TraceRecorder())
        traced.setstate(plain.getstate())
        for _ in range(50):
            assert traced.random() == plain.random()
            assert traced.getrandbits(64) == plain.getrandbits(64)
            assert traced.uniform(0, 10) == plain.uniform(0, 10)
            assert traced.randrange(1000) == plain.randrange(1000)

    def test_derived_methods_are_traced(self):
        recorder = TraceRecorder()
        traced = TracedRandom(recorder)
        traced.seed(7)
        traced.uniform(0, 1)
        traced.randrange(100)
        items = list(range(10))
        traced.shuffle(items)
        assert recorder.rng_draws > 0

    def test_attach_tracer_preserves_the_run(self):
        untraced = Scheduler(seed=9)
        untraced_values = [untraced.rng.random() for _ in range(20)]

        traced_scheduler = Scheduler(seed=9)
        traced_scheduler.attach_tracer(TraceRecorder())
        traced_values = [traced_scheduler.rng.random() for _ in range(20)]
        assert traced_values == untraced_values


class TestSchedulerTracing:
    def run_events(self, recorder: TraceRecorder, n: int = 10) -> TraceRecorder:
        scheduler = Scheduler(seed=1)
        scheduler.attach_tracer(recorder)

        def work():
            scheduler.rng.random()
            if scheduler.pending_events < n:
                scheduler.after(scheduler.rng.uniform(0.01, 0.1), work)

        scheduler.after(0.0, work)
        scheduler.run_until(1.0)
        return recorder

    def test_events_produce_checkpoints_and_labels(self):
        recorder = self.run_events(TraceRecorder())
        assert recorder.event_count > 0
        assert len(recorder.checkpoints) == len(recorder.labels)
        assert all("work" in label for label in recorder.labels)
        assert recorder.rng_draws >= recorder.event_count

    def test_same_seed_identical_digest(self):
        a = self.run_events(TraceRecorder())
        b = self.run_events(TraceRecorder())
        assert a.digest == b.digest
        assert a.checkpoints == b.checkpoints
        assert first_divergence(a, b) is None

    def test_callback_labels_are_stable_names(self):
        assert "TestSchedulerTracing" in callback_label(self.run_events)
        assert "0x" not in callback_label(lambda: None)


class TestFirstDivergence:
    def synthetic(self, perturb_at: int | None, events: int = 100) -> TraceRecorder:
        recorder = TraceRecorder()
        for i in range(events):
            recorder.begin_event(float(i), i, self.synthetic)
            recorder.record_rng("random", repr(i))
            if perturb_at is not None and i == perturb_at:
                recorder.record_rng("random", "<injected>")
            recorder.end_event()
        return recorder

    def test_identical_traces_return_none(self):
        assert first_divergence(self.synthetic(None), self.synthetic(None)) is None

    @pytest.mark.parametrize("target", [0, 1, 37, 50, 99])
    def test_localizes_exact_event(self, target):
        divergence = first_divergence(self.synthetic(None), self.synthetic(target))
        assert isinstance(divergence, Divergence)
        assert divergence.event_index == target

    def test_binary_search_is_logarithmic(self):
        divergence = first_divergence(
            self.synthetic(None, events=1024), self.synthetic(512, events=1024)
        )
        assert divergence.event_index == 512
        assert divergence.comparisons <= 12  # ~log2(1024) + 1, not 1024

    def test_length_mismatch_diverges_at_common_prefix_end(self):
        divergence = first_divergence(
            self.synthetic(None, events=50), self.synthetic(None, events=60)
        )
        assert divergence is not None
        assert divergence.event_index == 50
        assert divergence.label_a == "<end of run>"


class TestChaosReplayDeterminism:
    def test_two_runs_same_seed_identical_trace(self):
        ok, description = ChaosEngine(SMALL).check_replay(seed=11)
        assert ok, description
        events, rng_draws = re.search(
            r"deterministic over (\d+) events, (\d+) rng draws", description
        ).groups()
        assert int(events) > 100
        assert int(rng_draws) > 0

    def test_different_seed_different_digest(self):
        _, trace_a = run_traced_schedule(SMALL, seed=11)
        _, trace_b = run_traced_schedule(SMALL, seed=12)
        assert trace_a.digest != trace_b.digest

    def test_injected_nondeterminism_is_localized(self):
        passed, description = localization_selftest(SMALL, seed=11)
        assert passed, description
        assert "localized exactly" in description

    @pytest.mark.slow
    def test_cli_selftest_smoke(self, capsys):
        code = sanitizer_cli.main(
            ["--seed", "11", "--nodes", "3", "--steps", "2", "--selftest"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert "deterministic over" in captured.out
        assert "selftest" in captured.out
