"""A distributor node in a multi-level DRM distribution network.

The paper's setting (Section 1): the owner issues redistribution licenses
to distributors; each distributor uses its *received* licenses to generate
new redistribution licenses for sub-distributors and usage licenses for
consumers.  Newly generated licenses must be validated against the
received pool -- instance constraints within range, aggregates within
capacity -- which is exactly the machinery of this library.

A :class:`DistributorNode` owns:

* its received license pool (growing as new licenses are granted),
* the issuance log the validation authority keeps for it,
* a lazily rebuilt :class:`~repro.core.validator.GroupedValidator`
  (the group structure changes when the pool changes).

Generated *redistribution* licenses consume their whole ``aggregate`` from
the parent pool's capacity (the counts they may later distribute);
generated *usage* licenses consume their ``count``.  Both are accepted iff
the log stays feasible -- checked via the group-restricted headroom query.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import LicenseError, ValidationError
from repro.core.validator import GroupedValidator
from repro.licenses.license import (
    LicenseBase,
    RedistributionLicense,
    UsageLicense,
)
from repro.licenses.pool import LicensePool
from repro.logstore.log import ValidationLog
from repro.matching.index import IndexedMatcher
from repro.validation.report import ValidationReport

__all__ = ["DistributorNode", "NodeOutcome"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class NodeOutcome:
    """Verdict of a node on one generated license."""

    license_id: str
    counts: int
    license_set: Tuple[int, ...]
    accepted: bool
    #: "instance" (no containing license) or "equation" (accepting would
    #: violate a validation equation) on rejection; None when accepted.
    rejection_reason: Optional[str] = None


class DistributorNode:
    """One distributor in the network (see module docstring)."""

    def __init__(self, name: str):
        if not name:
            raise LicenseError("node name must be non-empty")
        self.name = name
        self._pool = LicensePool()
        self._log = ValidationLog()
        self._matcher: Optional[IndexedMatcher] = None
        self._validator: Optional[GroupedValidator] = None
        #: Monitor of the most recent monitored serve_stream (if any).
        self._monitor = None

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def receive(self, lic: RedistributionLicense) -> int:
        """Accept a granted redistribution license into the received pool.

        Returns the license's 1-based index.  Invalidates the cached
        matcher/validator (the overlap structure may change).
        """
        index = self._pool.add(lic)
        self._matcher = None
        self._validator = None
        return index

    @property
    def pool(self) -> LicensePool:
        """Return the received license pool."""
        return self._pool

    @property
    def log(self) -> ValidationLog:
        """Return the node's issuance log (accepted licenses only)."""
        return self._log

    def _require_matcher(self) -> IndexedMatcher:
        if self._matcher is None:
            self._matcher = IndexedMatcher(self._pool)
        return self._matcher

    def validator(self) -> GroupedValidator:
        """Return (building lazily) the grouped validator for the pool."""
        if not self._pool:
            raise ValidationError(f"node {self.name!r} has received no licenses")
        if self._validator is None:
            self._validator = GroupedValidator.from_pool(self._pool)
        return self._validator

    # ------------------------------------------------------------------
    # Issuance
    # ------------------------------------------------------------------
    def _charge(self, generated: LicenseBase, counts: int) -> NodeOutcome:
        """Shared validation path for generated licenses."""
        if not self._pool:
            return NodeOutcome(generated.license_id, counts, (), False, "instance")
        matched = tuple(sorted(self._require_matcher().match(
            # Matching needs a UsageLicense-shaped probe; a generated
            # redistribution license is matched by its own box/scope.
            generated if isinstance(generated, UsageLicense)
            else UsageLicense(
                license_id=generated.license_id,
                content_id=generated.content_id,
                permission=generated.permission,
                box=generated.box,
                count=counts,
            )
        )))
        if not matched:
            return NodeOutcome(
                generated.license_id, counts, matched, False, "instance"
            )
        headroom = self.validator().headroom(self._log, matched)
        if headroom < counts:
            logger.info(
                "node %s rejected %s: %d counts > headroom %d for set %s",
                self.name,
                generated.license_id,
                counts,
                headroom,
                list(matched),
            )
            return NodeOutcome(
                generated.license_id, counts, matched, False, "equation"
            )
        self._log.record(matched, counts, generated.license_id)
        return NodeOutcome(generated.license_id, counts, matched, True)

    def issue_usage(self, usage: UsageLicense) -> NodeOutcome:
        """Validate and record a consumer usage license."""
        return self._charge(usage, usage.count)

    def issue_redistribution(self, lic: RedistributionLicense) -> NodeOutcome:
        """Validate and record a sub-distributor redistribution license.

        The full ``aggregate`` of the generated license is debited from
        this node's capacity (those counts may all be distributed
        downstream, so the parent must cover them -- the paper's aggregate
        constraint semantics for generated redistribution licenses).
        """
        return self._charge(lic, lic.aggregate)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_stream(
        self, usages, config=None, *, tracer=None, events=None, monitor=None,
    ):
        """Serve a stream of usage licenses through the validation service.

        Builds a :class:`repro.service.ValidationService` over this
        node's pool, replays the node's existing log into it (so service
        decisions see everything already issued), runs the stream with
        batched group-sharded admission, and folds the accepted
        issuances back into the node's log.

        ``tracer``/``events`` (optional
        :class:`repro.obs.trace.Tracer` /
        :class:`repro.obs.events.EventLog`) are handed to the service so
        a node-level serve leaves the same span trees and structured
        journal a standalone service would.  ``monitor`` (optional
        :class:`repro.obs.monitor.Monitor`) likewise rides along; the
        node remembers it so :meth:`health_probe` can answer from its
        latest state after the serve finishes.

        Returns ``(outcomes, service)`` -- the per-request verdicts in
        stream order plus the (closed) service, whose metrics registry
        holds the traffic accounting.

        For one-off licenses :meth:`issue_usage` stays the low-latency
        path; this is the bulk/serving path a distributor fronting heavy
        consumer traffic would run.  To delegate admission to a remote
        validation authority, drive a :class:`repro.net.client
        .AdmissionClient` directly.
        """
        from repro.service.service import ValidationService

        with ValidationService(
            self._pool, config, initial_log=self._log,
            tracer=tracer, events=events, monitor=monitor,
        ) as service:
            outcomes = service.process(usages)
            for record in service.log:
                self._log.append(record)
        if monitor is not None:
            self._monitor = monitor
        logger.info(
            "node %s served %d request(s): %d accepted",
            self.name,
            len(outcomes),
            sum(outcome.accepted for outcome in outcomes),
        )
        return outcomes, service

    def health_probe(self) -> dict:
        """Answer a health-probe message from the latest monitor state.

        Returns a JSON-friendly dict an operator (or
        :meth:`repro.network.network.DistributionNetwork.probe_all`) can
        aggregate across the tree::

            {"node": ..., "status": ..., "monitored": ...,
             "pool_size": ..., "log_size": ...,
             "indicators": [...], "slos": [...], "alerts": {...}}

        Nodes that have never run a monitored :meth:`serve_stream`
        answer ``status="unknown"`` with the pool/log basics only --
        probing is always safe, never an error.
        """
        probe: dict = {
            "node": self.name,
            "status": "unknown",
            "monitored": self._monitor is not None,
            "pool_size": len(self._pool),
            "log_size": len(self._log),
        }
        if self._monitor is not None:
            snapshot = self._monitor.snapshot()
            probe["status"] = snapshot["status"]
            probe["indicators"] = snapshot["indicators"]
            probe["slos"] = snapshot["slos"]
            probe["alerts"] = snapshot["alerts"]
        return probe

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def audit(self) -> ValidationReport:
        """Run full offline grouped validation over this node's log."""
        return self.validator().validate(self._log)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DistributorNode({self.name!r}, pool={len(self._pool)}, "
            f"log={len(self._log)})"
        )
