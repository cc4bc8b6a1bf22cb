"""Opt-in runtime invariant auditing for experiment runs.

The audit mode (``ExperimentConfig.audit`` / ``repro-mnet run --audit``)
threads two hooks through a normal experiment:

* an :class:`EpochAuditor` appended to a managed policy's
  ``epoch_observers``, running every ``scope="epoch"`` checker at each
  epoch boundary (before counters reset, so per-epoch quantities are
  still live);
* :func:`finalize_audit`, called by
  :func:`~repro.harness.experiment.run_experiment` after the window
  completes, running the ``scope="end"`` checkers and folding in the
  auditor's per-epoch findings.

``audit="strict"`` raises :class:`AuditViolationError` on any
error-severity violation; ``audit="warn"`` prints each violation to
stderr and lets the run succeed.  When audit is off, none of this
module is imported on the hot path and simulation results are
bit-identical either way -- the auditor never mutates simulation state
(see the module docstring of :mod:`repro.validation.checks`).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, List, Optional

from repro.harness.experiment import AUDIT_MODES
from repro.validation.checks import CheckContext, checks_for_scope, run_checks
from repro.validation.violations import ValidationReport, Violation

if TYPE_CHECKING:
    from repro.harness.builder import Simulation
    from repro.harness.experiment import ExperimentResult
    from repro.network.links import LinkController

__all__ = ["AuditViolationError", "EpochAuditor", "audit_simulation", "finalize_audit"]

class AuditViolationError(RuntimeError):
    """Raised by strict audits when an invariant is violated.

    Carries the full :class:`~repro.validation.violations.ValidationReport`
    as :attr:`report` so callers can inspect or serialize the breach.
    """

    def __init__(self, report: ValidationReport) -> None:
        self.report = report
        head = [v.describe() for v in report.errors[:5]]
        more = len(report.errors) - len(head)
        lines = "\n  ".join(head) + (f"\n  ... and {more} more" if more > 0 else "")
        super().__init__(
            f"audit failed with {len(report.errors)} violation(s):\n  {lines}"
        )


class EpochAuditor:
    """Per-epoch invariant auditor, one of a policy's ``epoch_observers``.

    Runs every ``scope="epoch"`` checker at each epoch boundary and
    accumulates violations plus a per-module cumulative-energy snapshot
    for cross-epoch monotonicity.  Strictly read-only with respect to
    the simulation: audited runs stay bit-identical to unaudited ones.
    """

    def __init__(self, simulation: "Simulation", label: str = "") -> None:
        self.simulation = simulation
        self.label = label
        self.epoch = 0
        self.checks_run = 0
        self.violations: List[Violation] = []
        self._prev_energy: Optional[List[float]] = None

    def __call__(self, links: List["LinkController"], epoch_ns: float) -> None:
        """Observer hook: audit the epoch that just ended."""
        ctx = CheckContext(
            self.simulation,
            epoch=self.epoch,
            prev_energy=self._prev_energy,
            label=self.label,
        )
        self.violations.extend(run_checks(ctx, scope="epoch"))
        self.checks_run += len(checks_for_scope("epoch"))
        self._prev_energy = [
            m.ledger.total_j for m in self.simulation.network.modules
        ]
        self.epoch += 1


def audit_simulation(
    simulation: "Simulation",
    result: Optional["ExperimentResult"] = None,
    label: str = "",
) -> ValidationReport:
    """Run all end-of-run checkers over a finished simulation.

    Folds in any per-epoch findings from the simulation's
    :class:`EpochAuditor` (when one was wired by the builder).  Returns
    the combined :class:`~repro.validation.violations.ValidationReport`
    without raising -- policy on failure is the caller's (see
    :func:`finalize_audit`).
    """
    report = ValidationReport()
    auditor = getattr(simulation, "auditor", None)
    if auditor is not None:
        report.extend(auditor.violations)
        report.checks_run += auditor.checks_run
        if not label:
            label = auditor.label
    ctx = CheckContext(simulation, result=result, label=label)
    report.extend(run_checks(ctx, scope="end"))
    report.checks_run += len(checks_for_scope("end"))
    report.configs.append(ctx.label)
    return report


def finalize_audit(
    simulation: "Simulation",
    result: Optional["ExperimentResult"] = None,
    mode: str = "strict",
) -> ValidationReport:
    """Apply the configured audit policy after a run.

    ``strict`` raises :class:`AuditViolationError` when any
    error-severity violation was found; ``warn`` prints violations to
    stderr and returns normally.  Always returns the report when it
    does not raise.
    """
    if mode not in AUDIT_MODES:
        raise ValueError(f"bad audit mode {mode!r} (expected 'warn' or 'strict')")
    report = audit_simulation(simulation, result=result)
    if report.violations:
        if mode == "strict" and not report.passed:
            raise AuditViolationError(report)
        for violation in report.violations:
            print(f"audit: {violation.describe()}", file=sys.stderr)
        print(f"audit: {report.summary()}", file=sys.stderr)
    return report
