"""Grouping composed with the zeta-transform engine.

The paper's grouping is *engine-agnostic*: Theorem 2 shrinks the equation
set regardless of how each group's equations are evaluated.  This module
composes it with the dense subset-sum engine
(:class:`~repro.validation.zeta.ZetaValidator`) instead of the validation
tree: per group, remap the aggregated log counts into local masks and run
the ``O(N_k · 2^{N_k})`` DP.

Two payoffs over the ungrouped zeta engine:

* the dense tables shrink from ``2^N`` to ``Σ 2^{N_k}`` entries, lifting
  the memory cap -- N = 60 licenses in six groups of ten need six 1 KiB
  tables instead of an impossible 2^60 one;
* each table transform is ``N_k`` passes instead of ``N``.

Verdicts always match the grouped tree validator (tested).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence

from repro.errors import GroupingError, ValidationError
from repro.core.grouping import GroupStructure, form_groups
from repro.core.overlap import OverlapGraph
from repro.core.remap import globalize_mask, position_array, remapped_aggregates
from repro.geometry.box import Box
from repro.licenses.pool import LicensePool
from repro.logstore.log import ValidationLog
from repro.validation.report import ValidationReport, Violation, make_report
from repro.validation.zeta import ZetaValidator

__all__ = ["GroupedZetaValidator"]


class GroupedZetaValidator:
    """Per-group dense subset-sum validation (grouping x zeta).

    Examples
    --------
    >>> from repro.workloads.scenarios import example1, example1_log
    >>> validator = GroupedZetaValidator.from_pool(example1().pool)
    >>> validator.validate(example1_log()).is_valid
    True
    """

    engine_name = "grouped-zeta"

    def __init__(self, boxes: Sequence[Box], aggregates: Sequence[int]):
        if len(boxes) != len(aggregates):
            raise ValidationError(
                f"{len(boxes)} boxes but {len(aggregates)} aggregates"
            )
        if not boxes:
            raise ValidationError("need at least one redistribution license")
        self._aggregates = list(aggregates)
        self._structure: GroupStructure = form_groups(OverlapGraph.from_boxes(boxes))
        self._positions = [
            position_array(self._structure, k)
            for k in range(self._structure.count)
        ]
        self._engines = [
            ZetaValidator(remapped_aggregates(aggregates, self._structure, k))
            for k in range(self._structure.count)
        ]

    @classmethod
    def from_pool(cls, pool: LicensePool) -> "GroupedZetaValidator":
        """Build from a license pool."""
        return cls(pool.boxes(), pool.aggregate_array())

    @property
    def structure(self) -> GroupStructure:
        """Return the group partition."""
        return self._structure

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _split_counts(
        self, counts_by_set: Dict[FrozenSet[int], int]
    ) -> List[Dict[int, int]]:
        """Remap global set counts into per-group local-mask counts."""
        per_group: List[Dict[int, int]] = [
            {} for _ in range(self._structure.count)
        ]
        for license_set, count in counts_by_set.items():
            group_ids = {self._structure.group_of(index) for index in license_set}
            if len(group_ids) != 1:
                raise GroupingError(
                    f"set {sorted(license_set)} spans groups "
                    f"{sorted(g + 1 for g in group_ids)} (Corollary 1.1 violated)"
                )
            group_id = group_ids.pop()
            position = self._positions[group_id]
            local_mask = 0
            for index in license_set:
                local_mask |= 1 << (position[index] - 1)
            bucket = per_group[group_id]
            bucket[local_mask] = bucket.get(local_mask, 0) + count
        return per_group

    def validate(self, log: ValidationLog) -> ValidationReport:
        """Validate a log: one dense DP per group."""
        return self.validate_counts(log.counts_by_set())

    def validate_counts(
        self, counts_by_set: Dict[FrozenSet[int], int]
    ) -> ValidationReport:
        """Validate aggregated ``{set: count}`` data."""
        per_group = self._split_counts(counts_by_set)
        violations: List[Violation] = []
        checked = 0
        for group_id, (engine, counts) in enumerate(zip(self._engines, per_group)):
            report = engine.validate_counts(counts)
            checked += report.equations_checked
            for violation in report.violations:
                global_mask = globalize_mask(
                    self._structure, group_id, violation.mask
                )
                violations.append(
                    Violation(global_mask, violation.lhs, violation.rhs)
                )
        return make_report(self.engine_name, checked, violations)
