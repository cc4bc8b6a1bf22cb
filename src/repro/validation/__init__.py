"""Runtime invariant auditing and differential validation.

The paper's headline results are power *breakdowns*, and accounting
models drift silently as hot paths get rewritten -- this package turns
the simulator's scattered conservation properties into a first-class,
registry-driven validation layer:

* :mod:`repro.validation.checks` -- invariant checkers (energy
  conservation, residency x power, flit/packet conservation, queue
  balance, per-epoch accounting, differential vs the closed-form
  model), registered in :data:`~repro.validation.checks.CHECKS`;
* :mod:`repro.validation.audit` -- the opt-in ``--audit[=strict|warn]``
  runtime mode (per-epoch auditor + end-of-run finalization);
* :mod:`repro.validation.metamorphic` -- cross-run relations
  (monotonicity in alpha and traffic, topology/window scaling laws);
* :mod:`repro.validation.suite` -- the ``repro-mnet validate`` matrix,
  sabotage self-tests, and report assembly;
* :mod:`repro.validation.violations` -- structured violation records
  and JSON/markdown reports.

See docs/validation.md for every invariant's physical meaning and
tolerance.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CHECKS",
    "Violation",
    "ValidationReport",
    "AuditViolationError",
    "METAMORPHIC_RELATIONS",
    "SABOTAGES",
    "validate_config",
    "run_suite",
]

#: Each public name's defining module, imported on first use.
_EXPORTS = {
    "CHECKS": "repro.validation.checks",
    "Violation": "repro.validation.violations",
    "ValidationReport": "repro.validation.violations",
    "AuditViolationError": "repro.validation.audit",
    "METAMORPHIC_RELATIONS": "repro.validation.metamorphic",
    "SABOTAGES": "repro.validation.suite",
    "validate_config": "repro.validation.suite",
    "run_suite": "repro.validation.suite",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
