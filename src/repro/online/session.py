"""Issuance sessions: online validation of a stream of usage licenses.

An :class:`IssuanceSession` plays the role of the validation authority at
issue time.  Two modes:

* **strategy mode** -- each accepted license is charged to exactly one
  redistribution license chosen by a
  :class:`~repro.online.strategies.SelectionStrategy`; remaining capacities
  are debited immediately.  Simple, but can strand capacity (Example 1).
* **equation mode** -- no per-license assignment.  A license is accepted
  iff the log *plus this license* still satisfies all validation
  equations, checked via the group-restricted headroom query
  (Theorem 2 guarantees cross-group equations are redundant).  This is the
  exact policy: it accepts a stream iff some assignment exists.

Both modes share instance matching (an empty match set is an instant
reject, like ``L_U^2`` of Figure 2).

:class:`ServiceSession` is a third shape: the same ``issue``/``outcomes``
surface, but delegating every decision to a
:class:`repro.service.ValidationService` -- sessions become one client of
the serving layer, gaining its caching, batching, and metrics for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ValidationError
from repro.core.validator import GroupedValidator
from repro.licenses.license import UsageLicense
from repro.licenses.pool import LicensePool
from repro.logstore.log import ValidationLog
from repro.matching.index import IndexedMatcher
from repro.online.strategies import SelectionStrategy
from repro.validation.bitset import mask_from_indexes
from repro.validation.capacity import headroom
from repro.validation.tree import ValidationTree

__all__ = ["IssuanceOutcome", "IssuanceSession", "ServiceSession"]


@dataclass(frozen=True)
class IssuanceOutcome:
    """The session's verdict on one usage license."""

    usage_id: str
    count: int
    license_set: Tuple[int, ...]
    accepted: bool
    #: Why a request was rejected (None when accepted):
    #:
    #: * ``"instance"`` -- no redistribution license contains the request
    #:   (empty match set, like ``L_U^2`` of Figure 2);
    #: * ``"equation"`` -- accepting would violate a validation equation
    #:   (the exact policy's group-restricted headroom came up short);
    #: * ``"capacity"`` -- strategy mode only: no single matched license
    #:   has enough remaining balance to absorb the whole count;
    #: * ``"overload"`` -- a serving layer shed the request under
    #:   backpressure before any validation ran.
    #:
    #: The serving layer (:mod:`repro.service`) uses these codes verbatim
    #: as metrics labels, so acceptance dashboards can split rejections
    #: by cause.
    rejection_reason: Optional[str] = None
    #: In strategy mode: the license the count was charged to.
    charged_to: Optional[int] = None
    #: Human-readable elaboration of the rejection (binding headroom,
    #: remaining balances, ...); None when accepted.
    rejection_detail: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.accepted:
            charge = f" -> LD{self.charged_to}" if self.charged_to else ""
            return f"{self.usage_id} ({self.count}): ACCEPTED{charge}"
        detail = f": {self.rejection_detail}" if self.rejection_detail else ""
        return (
            f"{self.usage_id} ({self.count}): REJECTED "
            f"({self.rejection_reason}{detail})"
        )


class IssuanceSession:
    """Online validation over a stream of usage licenses.

    Parameters
    ----------
    pool:
        The distributor's redistribution licenses.
    policy:
        Either a :class:`SelectionStrategy` instance or the string
        ``"equation"`` for the exact feasibility-preserving policy.

    Examples
    --------
    >>> from repro.workloads.scenarios import example1
    >>> from repro.online.strategies import LastFit
    >>> scenario = example1()
    >>> naive = IssuanceSession(scenario.pool, LastFit())
    >>> exact = IssuanceSession(scenario.pool, "equation")
    >>> [naive.issue(u).accepted for u in scenario.usages]
    [True, False]
    >>> [exact.issue(u).accepted for u in scenario.usages]
    [True, True]
    """

    def __init__(
        self,
        pool: LicensePool,
        policy: Union[SelectionStrategy, str],
    ):
        if not pool:
            raise ValidationError("session needs a non-empty pool")
        self._pool = pool
        self._matcher = IndexedMatcher(pool)
        self._log = ValidationLog()
        self._outcomes: List[IssuanceOutcome] = []
        if policy == "equation":
            self._strategy: Optional[SelectionStrategy] = None
            self._validator = GroupedValidator.from_pool(pool)
            self._tree = ValidationTree()  # incrementally maintained
            self._remaining: Dict[int, int] = {}
        elif isinstance(policy, str):
            raise ValidationError(
                f"unknown policy {policy!r}; use a SelectionStrategy or 'equation'"
            )
        else:
            self._strategy = policy
            self._validator = None
            self._tree = None
            self._remaining = {
                index: lic.aggregate for index, lic in pool.enumerate()
            }

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def policy_name(self) -> str:
        """Return the active policy's name."""
        return self._strategy.name if self._strategy is not None else "equation"

    @property
    def log(self) -> ValidationLog:
        """Return the log of *accepted* issuances."""
        return self._log

    @property
    def outcomes(self) -> Tuple[IssuanceOutcome, ...]:
        """Return every issuance outcome so far, in order."""
        return tuple(self._outcomes)

    @property
    def accepted_counts(self) -> int:
        """Return the total permission counts accepted so far."""
        return self._log.total_count

    @property
    def remaining(self) -> Dict[int, int]:
        """Strategy mode only: remaining capacity per license index."""
        if self._strategy is None:
            raise ValidationError(
                "equation mode keeps no per-license balances; "
                "use headroom queries instead"
            )
        return dict(self._remaining)

    # ------------------------------------------------------------------
    # Issuance
    # ------------------------------------------------------------------
    def issue(self, usage: UsageLicense) -> IssuanceOutcome:
        """Validate one usage license online; record it if accepted."""
        matched = tuple(sorted(self._matcher.match(usage)))
        if not matched:
            outcome = IssuanceOutcome(
                usage.license_id,
                usage.count,
                matched,
                False,
                "instance",
                rejection_detail="no redistribution license contains the request",
            )
            self._outcomes.append(outcome)
            return outcome
        if self._strategy is not None:
            outcome = self._issue_with_strategy(usage, matched)
        else:
            outcome = self._issue_with_equations(usage, matched)
        self._outcomes.append(outcome)
        return outcome

    def _issue_with_strategy(
        self, usage: UsageLicense, matched: Tuple[int, ...]
    ) -> IssuanceOutcome:
        assert self._strategy is not None
        choice = self._strategy.select(matched, self._remaining, usage.count)
        if choice is None:
            best = max(self._remaining[index] for index in matched)
            return IssuanceOutcome(
                usage.license_id,
                usage.count,
                matched,
                False,
                "capacity",
                rejection_detail=(
                    f"no single matched license can absorb {usage.count} "
                    f"(best remaining balance: {best})"
                ),
            )
        if choice not in matched:
            raise ValidationError(
                f"strategy {self._strategy.name!r} selected license {choice} "
                f"outside the match set {list(matched)}"
            )
        self._remaining[choice] -= usage.count
        if self._remaining[choice] < 0:
            raise ValidationError(
                f"strategy {self._strategy.name!r} overdrew license {choice}"
            )
        self._log.record_issuance(usage, matched)
        return IssuanceOutcome(
            usage.license_id, usage.count, matched, True, charged_to=choice
        )

    def _issue_with_equations(
        self, usage: UsageLicense, matched: Tuple[int, ...]
    ) -> IssuanceOutcome:
        assert self._validator is not None and self._tree is not None
        structure = self._validator.structure
        group_id = structure.group_of(matched[0])
        slack = headroom(
            self._tree,
            self._validator.aggregates,
            mask_from_indexes(matched),
            universe_mask=structure.masks()[group_id],
        )
        if slack < usage.count:
            return IssuanceOutcome(
                usage.license_id,
                usage.count,
                matched,
                False,
                "equation",
                rejection_detail=(
                    f"headroom {slack} < requested {usage.count} in "
                    f"group {group_id + 1}"
                ),
            )
        self._tree.insert_set(matched, usage.count)
        self._log.record_issuance(usage, matched)
        return IssuanceOutcome(usage.license_id, usage.count, matched, True)


class ServiceSession:
    """An issuance session served by a :class:`ValidationService`.

    Implements the same ``issue`` / ``outcomes`` / ``log`` surface as
    :class:`IssuanceSession` in equation mode, but every decision runs
    through the serving layer: indexed instance matching, group-sharded
    admission, and metrics.  Verdicts are identical to
    ``IssuanceSession(pool, "equation")`` (property-tested) -- the service
    *is* the equation policy, scaled out.

    Parameters
    ----------
    pool:
        The distributor's redistribution licenses.
    config:
        Optional :class:`repro.service.ServiceConfig`; defaults to a
        single-shard serial service (the latency-optimal shape for
        one-at-a-time issue calls).
    service:
        Alternatively, an existing service to attach to (sharing its
        metrics and shard state with other clients).
    """

    def __init__(self, pool: LicensePool, config=None, *, service=None):
        # Imported here: repro.service imports this module for
        # IssuanceOutcome, so a top-level import would be circular.
        from repro.service.service import ValidationService

        if service is not None and config is not None:
            raise ValidationError("pass either a config or a service, not both")
        self._service = service or ValidationService(pool, config)
        self._outcomes: List[IssuanceOutcome] = []

    @property
    def policy_name(self) -> str:
        """Return the policy label (always the exact equation policy)."""
        return "service"

    @property
    def service(self):
        """Return the backing :class:`ValidationService`."""
        return self._service

    @property
    def log(self) -> ValidationLog:
        """Return the service's log of accepted issuances."""
        return self._service.log

    @property
    def outcomes(self) -> Tuple[IssuanceOutcome, ...]:
        """Return every outcome this session observed, in order."""
        return tuple(self._outcomes)

    @property
    def accepted_counts(self) -> int:
        """Return the total permission counts accepted so far."""
        return self._service.log.total_count

    def issue(self, usage: UsageLicense) -> IssuanceOutcome:
        """Validate one usage license through the service."""
        outcome = self._service.issue(usage)
        self._outcomes.append(outcome)
        return outcome

    def issue_many(self, usages) -> Tuple[IssuanceOutcome, ...]:
        """Batch path: serve a stream with coalesced admission batches."""
        outcomes = tuple(self._service.process(usages))
        self._outcomes.extend(outcomes)
        return outcomes
