"""The offline audit as a user runs it: ``GroupedValidator.from_pool``,
then ``build`` and ``validate`` (the ``repro validate`` path).

Used by the audit launcher (``offline-audit``) and by the driver (the
audit of each wire workload's Section 5 log).
"""

from __future__ import annotations

import time
from typing import Tuple

from repro import GroupedValidator, ValidationTree
from repro.core.grouped_tree import GroupedValidationTree
from repro.licenses.pool import LicensePool
from repro.logstore.log import ValidationLog
from repro.validation.report import ValidationReport

from spans import Recorder


def setup(pool: LicensePool) -> Tuple[GroupedValidator, float]:
    """Return the validator for ``pool`` and the seconds it took."""
    started = time.perf_counter()
    validator = GroupedValidator.from_pool(pool)
    return validator, time.perf_counter() - started


def audit(
    validator: GroupedValidator, log: ValidationLog
) -> Tuple[ValidationReport, float]:
    """Build and validate ``log``; return the report and the seconds."""
    started = time.perf_counter()
    report = validator.build(log).validate()
    return report, time.perf_counter() - started


def violations(report: ValidationReport) -> list:
    """Return the report's violations as sorted ``[mask, lhs, rhs]``."""
    return sorted([v.mask, v.lhs, v.rhs] for v in report.violations)


def trace(recorder: Recorder) -> None:
    """Wrap the audit's steps (group, build, divide, validate)."""
    recorder.wrap(GroupedValidator, "__init__", "audit.group")
    recorder.wrap(ValidationTree, "from_log", "audit.build")
    recorder.wrap(GroupedValidator, "divide", "audit.divide")

    def equations(_args, _kwargs, report, _key):
        return None, report.equations_checked

    recorder.wrap(GroupedValidationTree, "validate", "audit.validate", equations)
