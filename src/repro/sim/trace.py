"""Execution tracing for the replay-divergence sanitizer.

The simulation's determinism contract — equal ``(seed, spec)`` gives equal
runs — is what makes every chaos violation replayable. This module turns
that contract into something *checkable at runtime*: a
:class:`TraceRecorder` folds every dispatched scheduler event and every RNG
draw into a running SHA-256 digest, with a checkpoint recorded after each
event. Two runs from the same seed must produce identical digests; when
they don't, the running-hash prefix property (once the folds differ, every
later checkpoint differs) lets :func:`first_divergence` binary-search the
checkpoint lists to the exact first event where the runs disagreed.

The recorder is attached with :meth:`Scheduler.attach_tracer
<repro.sim.scheduler.Scheduler.attach_tracer>`, which swaps the scheduler's
RNG for a :class:`TracedRandom` carrying over the exact generator state —
attachment itself never perturbs the run.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from typing import Callable

_TRACE_DOMAIN = b"repro-trace-v1"


def callback_label(callback: Callable) -> str:
    """A stable, human-readable name for a scheduled callback.

    Bound methods, plain functions, and lambdas all carry deterministic
    ``__module__``/``__qualname__`` values (lambdas are named by their
    defining scope, e.g. ``ClosedLoopClient.start.<locals>.<lambda>``), so
    labels are identical across runs — no ``repr`` addresses, no ``id()``.
    """
    if isinstance(callback, functools.partial):
        return f"partial({callback_label(callback.func)})"
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        return type(callback).__name__
    module = getattr(callback, "__module__", None)
    return f"{module}.{qualname}" if module else qualname


class TracedRandom(random.Random):
    """A ``random.Random`` that reports every draw to a recorder.

    Only :meth:`random` and :meth:`getrandbits` are overridden: every other
    ``Random`` method (``uniform``, ``randrange``, ``shuffle``, ``sample``,
    …) derives its output from these two primitives, so tracing them traces
    everything.
    """

    def __init__(self, tracer: "TraceRecorder"):
        self._tracer = None  # draws during base __init__ go unrecorded
        super().__init__(0)
        self._tracer = tracer

    def random(self) -> float:
        value = super().random()
        if self._tracer is not None:
            self._tracer.record_rng("random", repr(value))
        return value

    def getrandbits(self, k: int) -> int:
        value = super().getrandbits(k)
        if self._tracer is not None:
            self._tracer.record_rng(f"getrandbits:{k}", repr(value))
        return value


class TraceRecorder:
    """Folds scheduler events and RNG draws into a running digest.

    Checkpoints are recorded *after* each event's callback returns, so the
    RNG draws a callback makes are attributed to that event's checkpoint —
    which is what lets divergence localization name the offending event.

    ``perturb_at`` deliberately steals one RNG draw at the start of event
    ``N`` (0-based): injected nondeterminism for the sanitizer's selftest,
    proving localization finds exactly the event where runs diverge.
    """

    def __init__(self, perturb_at: int | None = None):
        self._digest = hashlib.sha256(_TRACE_DOMAIN).digest()
        self.rng_draws = 0
        self.labels: list[str] = []  # labels[i] = callback of event i
        self.checkpoints: list[str] = []  # checkpoints[i] = digest after event i
        self.perturb_at = perturb_at
        self._rng: TracedRandom | None = None

    def bind_rng(self, rng: TracedRandom) -> None:
        """Called by ``Scheduler.attach_tracer``; the back-reference exists
        only so ``perturb_at`` can steal a draw."""
        self._rng = rng

    # -- folding --------------------------------------------------------

    def _fold(self, record: bytes) -> None:
        self._digest = hashlib.sha256(self._digest + record).digest()

    def begin_event(self, time: float, seq: int, callback: Callable) -> None:
        label = callback_label(callback)
        self.labels.append(label)
        self._fold(f"event|{time!r}|{seq}|{label}".encode())
        if (
            self.perturb_at is not None
            and len(self.labels) - 1 == self.perturb_at
            and self._rng is not None
        ):
            # Steal a draw: everything downstream of this event now sees a
            # shifted RNG stream, exactly like real hidden nondeterminism.
            self._rng.random()

    def record_rng(self, method: str, value_repr: str) -> None:
        self.rng_draws += 1
        self._fold(f"rng|{method}|{value_repr}".encode())

    def end_event(self) -> None:
        self.checkpoints.append(self._digest.hex())

    # -- results --------------------------------------------------------

    @property
    def digest(self) -> str:
        """The running trace digest (hex) as of now."""
        return self._digest.hex()

    @property
    def event_count(self) -> int:
        return len(self.checkpoints)


@dataclass(frozen=True)
class Divergence:
    """Where two traces first disagree."""

    event_index: int  # 0-based index of the first differing event
    label_a: str
    label_b: str
    digest_a: str  # final digests of the two runs
    digest_b: str
    comparisons: int  # checkpoint pairs inspected by the binary search

    def describe(self) -> str:
        where = (
            f"event {self.event_index} ({self.label_a})"
            if self.label_a == self.label_b
            else f"event {self.event_index} (run A: {self.label_a}; "
            f"run B: {self.label_b})"
        )
        return (
            f"replay divergence at {where}; "
            f"digests {self.digest_a[:16]}… != {self.digest_b[:16]}… "
            f"[{self.comparisons} checkpoint comparisons]"
        )


def first_divergence(a: TraceRecorder, b: TraceRecorder) -> Divergence | None:
    """Locate the first event where two traces disagree, or ``None`` when
    the traces are identical.

    Binary search is sound because checkpoints are prefixes of a running
    hash: checkpoint ``i`` matches iff everything up to and including event
    ``i`` matched, so the checkpoint lists are equal on a prefix and
    different on the suffix — a monotone boundary.
    """
    # Trace digests are integrity fingerprints of our own runs, not
    # attacker-supplied authenticators. repro-lint: disable=SEC001
    if a.digest == b.digest and a.event_count == b.event_count:
        return None
    common = min(len(a.checkpoints), len(b.checkpoints))
    lo, hi, comparisons = 0, common, 0
    while lo < hi:
        mid = (lo + hi) // 2
        comparisons += 1
        if a.checkpoints[mid] == b.checkpoints[mid]:
            lo = mid + 1
        else:
            hi = mid
    # lo == common means the whole common prefix matched: the runs differ
    # in event count (or in draws after the final event).
    index = lo

    def label(recorder: TraceRecorder) -> str:
        if index < len(recorder.labels):
            return recorder.labels[index]
        return "<end of run>"

    return Divergence(
        event_index=index,
        label_a=label(a),
        label_b=label(b),
        digest_a=a.digest,
        digest_b=b.digest,
        comparisons=comparisons,
    )
