"""Algorithm 2: validation of all equations via the validation tree.

For each mask ``i = 1 .. 2^N - 1`` the validator computes

* ``AV`` -- the RHS ``A[S]``, read from a precomputed subset-sum table of
  the aggregate array (the paper computes it per-equation with shift/AND;
  the table is the same arithmetic hoisted out of the loop), and
* ``CV`` -- the LHS ``C⟨S⟩``, via the validation tree's subset-sum
  traversal,

and records a violation whenever ``CV > AV``.  This is the baseline the
paper's proposed method is measured against (Figure 7).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ValidationError
from repro.logstore.log import ValidationLog
from repro.validation.bitset import aggregate_sums, iter_masks
from repro.validation.report import ValidationReport, Violation, make_report
from repro.validation.tree import ValidationTree

__all__ = ["TreeValidator"]


class TreeValidator:
    """All-equations validator over a validation tree (paper Algorithm 2).

    Parameters
    ----------
    aggregates:
        The array ``A``: ``aggregates[j-1]`` is the aggregate constraint of
        license ``L_D^j``.  Its length fixes ``N``.

    Examples
    --------
    >>> from repro.validation.tree import ValidationTree
    >>> tree = ValidationTree()
    >>> tree.insert_set((1,), 120)
    >>> TreeValidator([100]).validate(tree).is_valid
    False
    """

    engine_name = "tree"

    def __init__(self, aggregates: Sequence[int]):
        if not aggregates:
            raise ValidationError("aggregate array must be non-empty")
        if any(a < 0 for a in aggregates):
            raise ValidationError(f"aggregates must be non-negative: {aggregates!r}")
        self._aggregates = list(aggregates)
        self._n = len(aggregates)
        self._rhs = aggregate_sums(self._aggregates)

    @property
    def n(self) -> int:
        """Return the number of redistribution licenses ``N``."""
        return self._n

    @property
    def aggregates(self) -> List[int]:
        """Return a copy of the aggregate array ``A``."""
        return list(self._aggregates)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self,
        tree: ValidationTree,
        stop_at_first: bool = False,
    ) -> ValidationReport:
        """Run every validation equation against ``tree``.

        Parameters
        ----------
        tree:
            A validation tree whose license indexes are all within
            ``1..N``.
        stop_at_first:
            If ``True``, return as soon as one violation is found (useful
            for feasibility-only queries); ``equations_checked`` then
            reflects the early exit.
        """
        if tree.max_index() > self._n:
            raise ValidationError(
                f"tree references license index {tree.max_index()} "
                f"but only {self._n} aggregates were provided"
            )
        violations: List[Violation] = []
        checked = 0
        for mask in iter_masks(self._n):
            checked += 1
            lhs = tree.subset_sum(mask)
            rhs = self._rhs[mask]
            if lhs > rhs:
                violations.append(Violation(mask, lhs, rhs))
                if stop_at_first:
                    break
        return make_report(self.engine_name, checked, violations)

    def validate_log(
        self,
        log: ValidationLog,
        stop_at_first: bool = False,
    ) -> ValidationReport:
        """Convenience: build the tree from ``log`` and validate."""
        return self.validate(ValidationTree.from_log(log), stop_at_first=stop_at_first)

    def check_equation(self, tree: ValidationTree, mask: int) -> Optional[Violation]:
        """Evaluate a single validation equation; return the violation or
        ``None`` if it holds."""
        if not 1 <= mask < (1 << self._n):
            raise ValidationError(f"mask {mask} out of range for N={self._n}")
        lhs = tree.subset_sum(mask)
        rhs = self._rhs[mask]
        if lhs > rhs:
            return Violation(mask, lhs, rhs)
        return None

    def rhs(self, mask: int) -> int:
        """Return ``A[S]`` for the set encoded by ``mask``."""
        return self._rhs[mask]
