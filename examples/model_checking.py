#!/usr/bin/env python3
"""Mechanically checking the consensus protocol (the paper's TLA+ story).

Two complementary tools, both inspired by the TLA+ specification the paper
cites [68, 88]:

1. the **exhaustive bounded model checker** explores every interleaving of
   an abstract model of CCF consensus within explicit bounds;
2. the **randomized adversarial explorer** drives the *real*
   implementation — actual ConsensusNode instances over the simulated
   network — through seeded crash/partition/loss schedules
   (``python -m repro.verification.explorer`` runs the same batches).

During this reproduction's development, the explorer found a genuine
commit-safety bug (a backup acknowledged its full ledger length, stale
suffix included). The model checker demonstrates the same bug class
exhaustively: flip ``buggy_ack=True`` and it produces a minimal
counterexample trace.

Run:  python examples/model_checking.py
"""

from repro.verification.explorer import ExplorerEngine, ExploreSpec
from repro.verification.model import check


def main() -> None:
    print("=== exhaustive model checking (abstract protocol) ===")
    result = check(n_nodes=3, max_view=3, max_log=4)
    print(f"states explored:  {result.states_explored:,}")
    print(f"transitions:      {result.transitions:,}")
    print(f"exhausted bounds: {not result.hit_bounds}")
    print(f"safety holds:     {result.ok}")

    print("\n=== the same checker, with the historical ack bug re-enabled ===")
    buggy = check(n_nodes=3, max_view=3, max_log=4, buggy_ack=True)
    print(f"safety holds: {buggy.ok}")
    print(f"violation:    {buggy.violation}")
    print("counterexample trace (shortest, by BFS):")
    for step in buggy.trace:
        print(f"  {step}")

    print("\n=== randomized adversarial exploration (real implementation) ===")
    engine = ExplorerEngine(ExploreSpec(n_nodes=3, steps=30))
    exploration = engine.run(schedules=6, first_seed=2)
    print(exploration.summary())
    print("replay check:", engine.check_replay(2)[1])
    if not exploration.ok:
        raise SystemExit(1)

if __name__ == "__main__":
    main()
