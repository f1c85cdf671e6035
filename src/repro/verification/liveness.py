"""Liveness and recovery checkers for the full service stack.

The safety invariants (:mod:`repro.verification.invariants`) say nothing
about *progress*: a cluster that elects nobody and commits nothing forever
violates none of them. Following the CCF follow-up work on smart casual
verification (Howard et al., 2024), chaos schedules therefore also check
bounded-time liveness after the environment heals:

- a primary is re-elected within a bound;
- the commit index resumes advancing;
- clients observe a minimum availability floor;
- no reconfiguration stays permanently stuck (every node's active
  configuration list collapses back to one entry).

Each checker is a predicate over live consensus engines plus a driver
(:func:`await_liveness`) that advances simulated time until the predicate
holds or the bound expires. A liveness violation is an environmental
*finding*, reported with its seed — unlike a safety violation it can also
indicate too tight a bound, so the bound is part of the finding text.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.consensus.raft import ConsensusNode
from repro.consensus.state import Role
from repro.sim.scheduler import Scheduler


def await_liveness(
    scheduler: Scheduler,
    predicate: Callable[[], bool],
    bound: float,
    description: str,
) -> str | None:
    """Advance simulated time until ``predicate`` holds. Returns None on
    success, or a violation string when the bound expires (or the event
    queue drains) first."""
    why_not = scheduler.step_until(predicate, bound)
    return None if why_not is None else f"liveness: {description} {why_not}"


def has_live_primary(engines: Sequence[ConsensusNode]) -> bool:
    """Some live engine believes it is primary (bounded-time re-election)."""
    return any(engine.role is Role.PRIMARY for engine in engines)


def max_commit(engines: Sequence[ConsensusNode]) -> int:
    return max((engine.commit_seqno for engine in engines), default=0)


def commit_advanced(engines: Sequence[ConsensusNode], baseline: int) -> bool:
    """The committed prefix grew past ``baseline`` (commit resumes)."""
    return max_commit(engines) > baseline


def configurations_settled(engines: Sequence[ConsensusNode]) -> bool:
    """No engine is mid-reconfiguration: every active-configuration list
    has collapsed back to a single committed entry."""
    return all(len(engine.configurations) == 1 for engine in engines)


def availability_floor(
    completion_times: Sequence[float],
    window_start: float,
    window_end: float,
    min_events: int,
) -> str | None:
    """Client-observed availability: at least ``min_events`` requests
    completed inside the window. Returns None or a violation string."""
    observed = sum(1 for t in completion_times if window_start <= t < window_end)
    if observed >= min_events:
        return None
    return (
        f"liveness: availability floor violated — {observed} completions in "
        f"[{window_start:.3f}, {window_end:.3f}), needed {min_events}"
    )
