"""Log records: one line of the paper's Table 2.

Aggregate validation is performed *offline* (Section 2.1): every time the
distributor issues a license, the validation authority appends a record
``(S, count)`` to a log, where ``S`` is the set of redistribution-license
indexes the issued license instance-matched and ``count`` its permission
count.  The validation tree is built from these records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, Optional, Tuple

from repro.errors import LogError

__all__ = ["LogRecord", "mask_of", "set_of"]


def mask_of(license_set: Iterable[int]) -> int:
    """Encode a set of 1-based license indexes as a bitmask.

    Bit ``i-1`` of the mask corresponds to license ``L_D^i`` -- the same
    encoding Algorithm 2 of the paper uses for its equation counter ``i``.

    >>> mask_of({1, 2, 4})
    11
    """
    mask = 0
    for index in license_set:
        if index < 1:
            raise LogError(f"license indexes are 1-based, got {index}")
        mask |= 1 << (index - 1)
    return mask


def set_of(mask: int) -> FrozenSet[int]:
    """Decode a bitmask back into a frozenset of 1-based license indexes.

    >>> sorted(set_of(11))
    [1, 2, 4]
    """
    if mask < 0:
        raise LogError(f"mask must be non-negative, got {mask}")
    indexes = set()
    index = 1
    while mask:
        if mask & 1:
            indexes.add(index)
        mask >>= 1
        index += 1
    return frozenset(indexes)


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One issued-license entry: ``(set S, permission count)``.

    Attributes
    ----------
    license_set:
        1-based indexes of the redistribution licenses that the issued
        license instance-matched (the paper's set ``S``).  Must be
        non-empty -- an empty match set means the license was invalid and
        never reaches the log.
    count:
        The permission count carried by the issued license.
    issued_id:
        Optional identifier of the issued license, for traceability.
    """

    license_set: FrozenSet[int]
    count: int
    issued_id: Optional[str] = None

    def __post_init__(self) -> None:
        license_set = frozenset(self.license_set)
        object.__setattr__(self, "license_set", license_set)
        if not license_set:
            raise LogError("log record needs a non-empty license set")
        if any(not isinstance(i, int) or isinstance(i, bool) or i < 1
               for i in license_set):
            raise LogError(
                f"license set must contain 1-based int indexes: {sorted(license_set)!r}"
            )
        if not isinstance(self.count, int) or isinstance(self.count, bool):
            raise LogError(f"count must be an int, got {self.count!r}")
        if self.count <= 0:
            raise LogError(f"count must be positive, got {self.count}")

    @property
    def mask(self) -> int:
        """Return the bitmask encoding of :attr:`license_set`."""
        return mask_of(self.license_set)

    @property
    def sorted_indexes(self) -> Tuple[int, ...]:
        """Return the license indexes in ascending order.

        The validation-tree insertion algorithm (Algorithm 1) requires
        record indexes in increasing order, matching the tree's child
        ordering.
        """
        return tuple(sorted(self.license_set))

    def __str__(self) -> str:  # pragma: no cover - trivial
        names = ", ".join(f"LD{i}" for i in self.sorted_indexes)
        return f"{{{names}}}: {self.count}"


def _trusted_constructor() -> Callable[
    [FrozenSet[int], int, Optional[str]], LogRecord
]:
    # Looked up once and bound in the closure: calling the slot setters
    # directly more than halves the cost of iterating a log compared
    # with ``object.__setattr__``.
    new = object.__new__
    record_type = LogRecord
    fields = LogRecord.__dict__
    set_license_set = fields["license_set"].__set__
    set_count = fields["count"].__set__
    set_issued_id = fields["issued_id"].__set__

    def trusted_record(
        license_set: FrozenSet[int], count: int, issued_id: Optional[str]
    ) -> LogRecord:
        """Build a :class:`LogRecord` from fields validated before.

        Skips :meth:`LogRecord.__post_init__`, so ``license_set`` must
        already be a non-empty frozenset of 1-based ints and ``count`` a
        positive int.  :class:`repro.logstore.log.ValidationLog` hands
        out its stored records this way.
        """
        record = new(record_type)
        set_license_set(record, license_set)
        set_count(record, count)
        set_issued_id(record, issued_id)
        return record

    return trusted_record


trusted_record = _trusted_constructor()
