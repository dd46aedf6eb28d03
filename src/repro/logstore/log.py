"""The validation log: an append-only sequence of issued-license records.

This is the paper's Table 2 as a data structure.  Besides raw records the
log maintains the aggregated *set counts* ``C[S]`` (sum of permission counts
of all records whose set equals ``S``), which is what every validation
engine consumes.

Records are stored in three columns rather than as objects: the license
set (one shared frozenset per distinct set), the count and the issued
id.  That costs about 26 bytes per record, ids aside, where a record
object with its own frozenset took ~640; it matters for a serving log
that grows with every accepted request.  :class:`LogRecord` objects are
built on the way out.
"""

from __future__ import annotations

from array import array
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    MutableSequence,
    Optional,
)

from repro.errors import LogError
from repro.licenses.license import UsageLicense
from repro.logstore.record import LogRecord, trusted_record

__all__ = ["ValidationLog"]


class ValidationLog:
    """Append-only log of :class:`LogRecord` with incremental aggregation.

    Examples
    --------
    >>> log = ValidationLog()
    >>> log.record({1, 2}, 800)
    >>> log.record({1, 2}, 40)
    >>> log.set_count({1, 2})
    840
    >>> log.total_count
    840
    """

    def __init__(self, records: Iterable[LogRecord] = ()):
        # Column per field; row i is record i.
        self._sets: List[FrozenSet[int]] = []
        # int64 until a count overflows it, then a plain list.
        self._record_counts: MutableSequence[int] = array("q")
        self._ids: List[Optional[str]] = []
        self._counts: Dict[FrozenSet[int], int] = {}
        # The key object ``_counts`` holds for each set, so equal sets
        # share one frozenset across the set column.
        self._shared: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._total = 0
        for record in records:
            self.append(record)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, record: LogRecord) -> None:
        """Append one record, updating the aggregated counts."""
        if not isinstance(record, LogRecord):
            raise LogError(f"expected LogRecord, got {type(record).__name__}")
        license_set, count = record.license_set, record.count
        shared = self._shared.setdefault(license_set, license_set)
        self._sets.append(shared)
        try:
            self._record_counts.append(count)
        except OverflowError:
            self._record_counts = list(self._record_counts)
            self._record_counts.append(count)
        self._ids.append(record.issued_id)
        self._counts[shared] = self._counts.get(shared, 0) + count
        self._total += count

    def record(
        self,
        license_set: Iterable[int],
        count: int,
        issued_id: Optional[str] = None,
    ) -> None:
        """Convenience: build and append a :class:`LogRecord`."""
        self.append(LogRecord(frozenset(license_set), count, issued_id))

    def record_issuance(self, issued: UsageLicense, license_set: Iterable[int]) -> None:
        """Append a record for an issued usage license and its match set."""
        self.record(license_set, issued.count, issued.license_id)

    def extend(self, records: Iterable[LogRecord]) -> None:
        """Append many records."""
        for record in records:
            self.append(record)

    # ------------------------------------------------------------------
    # Aggregated views
    # ------------------------------------------------------------------
    def set_count(self, license_set: Iterable[int]) -> int:
        """Return ``C[S]``: total counts of records whose set equals ``S``.

        (Not the validation-equation LHS ``C⟨S⟩`` -- that sums over all
        subsets and lives in :mod:`repro.validation`.)
        """
        return self._counts.get(frozenset(license_set), 0)

    def counts_by_set(self) -> Dict[FrozenSet[int], int]:
        """Return a copy of the aggregated ``{S: C[S]}`` mapping."""
        return dict(self._counts)

    def counts_by_mask(self) -> Dict[int, int]:
        """Return the aggregation keyed by bitmask (validation engines'
        preferred representation)."""
        masks: Dict[int, int] = {}
        for license_set, count in self._counts.items():
            mask = 0
            for index in license_set:
                mask |= 1 << (index - 1)
            masks[mask] = count
        return masks

    @property
    def total_count(self) -> int:
        """Return the total permission counts across all records."""
        return self._total

    @property
    def distinct_sets(self) -> int:
        """Return the number of distinct license sets seen."""
        return len(self._counts)

    def max_index(self) -> int:
        """Return the highest license index referenced, or 0 if empty."""
        if not self._counts:
            return 0
        return max(max(license_set) for license_set in self._counts)

    # ------------------------------------------------------------------
    # Derived logs
    # ------------------------------------------------------------------
    def without(self, issued_ids: Iterable[str]) -> "ValidationLog":
        """Return a new log with the given issuances removed (revoked).

        Records without an ``issued_id`` can never be targeted.  Unknown
        ids are ignored (revoking twice is a no-op), keeping the operation
        idempotent for remediation replays.
        """
        revoked = set(issued_ids)
        return ValidationLog(
            record
            for record in self
            if record.issued_id is None or record.issued_id not in revoked
        )

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[LogRecord]:
        return map(trusted_record, self._sets, self._record_counts, self._ids)

    def __getitem__(self, position: int) -> LogRecord:
        return trusted_record(
            self._sets[position],
            self._record_counts[position],
            self._ids[position],
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ValidationLog(records={len(self._sets)}, "
            f"distinct_sets={len(self._counts)}, total={self._total})"
        )
