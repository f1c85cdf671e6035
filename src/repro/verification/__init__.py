"""Mechanical checking of the consensus protocol.

The paper's authors model-checked CCF's consensus (including
reconfiguration) in TLA+ [68, 88]. This package is the laptop-scale analog:

- :mod:`repro.verification.model` — an abstract model explored
  exhaustively within bounds; its ``check_state`` is the one statement of
  election safety, commit agreement and commit-at-signature.
- :mod:`repro.verification.invariants` — live engines abstracted to model
  states, plus byte-level log matching and configuration agreement.
- :mod:`repro.verification.explorer` — seeded crash, partition and loss
  schedules over small clusters of real engines, on the schedule runner
  (not imported here, so ``python -m`` runs it as a fresh module).
"""

from repro.verification.invariants import check_all_invariants, InvariantViolation
from repro.verification.model import check as model_check, ModelResult

__all__ = [
    "check_all_invariants",
    "InvariantViolation",
    "model_check",
    "ModelResult",
]
