"""The validation service: concurrent, batched, cached license serving.

:class:`ValidationService` is the serving-architecture composition of the
whole library -- the ROADMAP's "heavy traffic" layer built directly on
Theorem 2:

1. **match** -- the request's instance-match set is resolved against the
   pool through an LRU memo (:class:`repro.service.cache.MatchCache`);
   an empty set is an instant ``instance`` rejection, never queued;
2. **route** -- the match set belongs to exactly one overlap group
   (Corollary 1.1), and groups are assigned to shards round-robin, so
   the request lands on a single shard's bounded queue (a full queue
   raises :class:`repro.errors.ServiceOverloadedError` -- backpressure);
3. **admit** -- :meth:`drain` runs every busy shard through the
   configured executor; shards process their queues in FIFO batches with
   exact group-restricted headroom admission and one incremental
   revalidation pass per batch;
4. **account** -- counters (accepted / rejected-by-reason / overload),
   end-to-end latency histograms (p50/p95/p99), per-shard queue-depth
   gauges, and cache statistics land in a
   :class:`repro.service.metrics.MetricsRegistry` with pluggable hooks.

Verdicts depend only on the per-group submission order, so the outcome
stream (ordered by sequence number) is byte-identical for every shard
count and executor backend -- the determinism property the test suite
pins down.

Examples
--------
>>> from repro.workloads.scenarios import example1
>>> scenario = example1()
>>> service = ValidationService(scenario.pool)
>>> [service.issue(usage).accepted for usage in scenario.usages]
[True, True]
>>> service.metrics.counter("requests_total").value(("accepted",))
2
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ServiceError, ServiceOverloadedError, ValidationError
from repro.core.incremental import GroupSlice
from repro.core.kernel import KernelPlane, KernelPlaneAllocator
from repro.licenses.license import UsageLicense
from repro.licenses.pool import LicensePool
from repro.logstore.log import ValidationLog
from repro.matching.index import IndexedMatcher
from repro.obs.events import (
    EVENT_ADMISSION,
    EVENT_BACKPRESSURE,
    EVENT_CACHE_EVICTION,
    EVENT_REJECTION,
    EventLog,
)
from repro.obs.distrib import ServerTiming
from repro.obs.trace import NULL_SPAN, Tracer
from repro.online.session import IssuanceOutcome
from repro.service.cache import GroupTables, MatchCache
from repro.service.config import ServiceConfig
from repro.service.executor import SerialExecutor
from repro.service.metrics import MetricsRegistry
from repro.service.shard import GroupShard, ShardRequest, ShardResult, ShardSpec

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.obs.monitor import Monitor
    from repro.service.resident import ResidentProcessExecutor

__all__ = ["ValidationService"]

#: Rejection reason for requests with an empty instance-match set.
REASON_INSTANCE = "instance"
#: Label used on the overload counter and outcome streams.
REASON_OVERLOAD = "overload"
#: LRU entries for instance-match memoization.
MATCH_CACHE_SIZE = 4096
#: Sample window of the latency histogram: exact quantiles are computed
#: over the most recent this-many requests.
LATENCY_WINDOW = 65536


class ValidationService:
    """Group-sharded issuance/validation service over one license pool.

    Parameters
    ----------
    pool:
        The redistribution licenses being served.
    config:
        Tuning knobs; defaults to a single-shard serial service.
    initial_log:
        Previously accepted issuances to replay into the shard state
        before serving (a restarting authority's journal).
    metrics:
        An externally owned registry (e.g. shared across services of one
        distributor); a fresh one is created when omitted.
    tracer:
        Optional :class:`repro.obs.trace.Tracer`.  When given, every
        request grows a span tree (request -> match/queue_wait/admission)
        and every drain one (drain -> shard_batch -> revalidate with
        ``equations_checked``).  Tracing is strictly out-of-band: verdict
        streams are byte-identical with it on or off.
    events:
        Optional :class:`repro.obs.events.EventLog` receiving the
        structured admission/rejection/backpressure/cache-eviction
        journal.
    monitor:
        Optional :class:`repro.obs.monitor.Monitor`.  When given, it is
        attached to this service's registry at construction and ticked
        once per drain, turning the raw telemetry into health
        indicators, SLO grades, and alerts.  Like tracing, monitoring
        is strictly out-of-band: verdict streams are byte-identical
        with a monitor attached or ``monitor=None``.
    """

    def __init__(
        self,
        pool: LicensePool,
        config: Optional[ServiceConfig] = None,
        *,
        initial_log: Optional[ValidationLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
        monitor: Optional["Monitor"] = None,
    ):
        if not pool:
            raise ValidationError("service needs a non-empty pool")
        self.config = config or ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.events = events
        self._pool = pool
        self._tables = GroupTables(pool)
        self._matcher = MatchCache(
            IndexedMatcher(pool),
            MATCH_CACHE_SIZE,
            on_evict=self._on_cache_evict if events is not None else None,
        )
        self._shard_count = min(self.config.shards, self._tables.group_count)
        resident = self.config.executor == "resident"
        # Resident backend: back each dense group's C/H tables with
        # coordinator-owned shared-memory planes.  The coordinator's own
        # slices get the *create*-mode views (its reads are zero-copy);
        # workers attach by name via ShardSpec.
        self._plane_allocator: Optional[KernelPlaneAllocator] = None
        if resident:
            self._plane_allocator = KernelPlaneAllocator(shared=True)
        slices_by_shard: Dict[int, Dict[int, GroupSlice]] = {
            shard_id: {} for shard_id in range(self._shard_count)
        }
        for group_id in range(self._tables.group_count):
            planes: Optional[Tuple[KernelPlane, KernelPlane]] = None
            if self._plane_allocator is not None:
                group_size = len(self._tables.structure.groups[group_id])
                if group_size <= self.config.kernel_cap:
                    planes = self._plane_allocator.pair_for(
                        group_id, 1 << group_size
                    )
            slices_by_shard[group_id % self._shard_count][group_id] = GroupSlice(
                self._tables.structure,
                self._tables.aggregates,
                group_id,
                kernel_cap=self.config.kernel_cap,
                planes=planes,
            )
        self._shards: List[GroupShard] = [
            GroupShard(
                shard_id,
                slices_by_shard[shard_id],
                self.config.batch_size,
                self.config.queue_capacity,
            )
            for shard_id in range(self._shard_count)
        ]
        if tracer is not None:
            for shard in self._shards:
                shard.collect_timings = True
        self._kernel_by_group: Dict[int, str] = {
            group_id: gslice.kernel_name
            for shard_slices in slices_by_shard.values()
            for group_id, gslice in shard_slices.items()
        }
        self._timings_enabled = False
        self._request_timings: Dict[int, ServerTiming] = {}
        self._match_us: Dict[int, int] = {}
        self._latency = self.metrics.histogram("latency_seconds", LATENCY_WINDOW)
        self._seq = 0
        self._request_spans: Dict[int, object] = {}
        self._pending_outcomes: Dict[int, IssuanceOutcome] = {}
        self._log = ValidationLog()
        self._closed = False
        # Replay BEFORE spawning any executor workers: resident workers
        # rebuild shard state from the specs, which must carry the full
        # preload log (and the shared planes must already hold it).
        if initial_log is not None:
            self._replay(initial_log)
        self._executor: Union[SerialExecutor, "ResidentProcessExecutor"]
        if resident:
            # Imported here so serial services never load multiprocessing.
            from repro.service.resident import ResidentProcessExecutor

            self._executor = ResidentProcessExecutor(
                self._build_specs(), self.config.workers or self._shard_count
            )
        else:
            self._executor = SerialExecutor()
        self.monitor = monitor
        if monitor is not None:
            monitor.attach(self)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def pool(self) -> LicensePool:
        """Return the pool being served."""
        return self._pool

    @property
    def shard_count(self) -> int:
        """Return the effective shard count (clamped to the group count)."""
        return self._shard_count

    @property
    def group_count(self) -> int:
        """Return the number of disconnected overlap groups."""
        return self._tables.group_count

    @property
    def group_sizes(self) -> List[int]:
        """Return the member count of each overlap group (the ``N_k`` of
        the paper's Equation 3 denominator)."""
        return list(self._tables.structure.sizes)

    def match_cache_stats(self) -> Tuple[int, int, int]:
        """Return ``(hits, misses, evictions)`` of the match cache."""
        return (self._matcher.hits, self._matcher.misses, self._matcher.evictions)

    @property
    def log(self) -> ValidationLog:
        """Return the log of issuances *this service* accepted (replayed
        initial records are not repeated here)."""
        return self._log

    @property
    def pending(self) -> int:
        """Return the number of queued, not-yet-drained requests."""
        return sum(shard.depth for shard in self._shards)

    @property
    def executor_backend(self) -> str:
        """Return ``config.executor`` (read by ``perfbench/launcher.py``)."""
        return self.config.executor

    def kernel_occupancy(self) -> Dict[int, Dict[str, int]]:
        """Return ``{group_id: occupancy}`` for every dense-kernel group.

        Under the resident backend the coordinator's slices view the
        workers' live ``C``/``H`` tables through shared-memory planes,
        so this is a **zero-copy** read -- no worker round-trip, no
        drain required.  Values may be torn mid-batch; they feed
        monitoring, never admission.  Tree-only configs return ``{}``.
        """
        occupancy: Dict[int, Dict[str, int]] = {}
        for shard in self._shards:
            for gslice in shard.slices():
                occ = gslice.kernel_occupancy()
                if occ is not None:
                    occupancy[gslice.group_id] = occ
        return occupancy

    # ------------------------------------------------------------------
    # Per-request timing breakdown (wire timing echo)
    # ------------------------------------------------------------------
    def enable_request_timings(self) -> None:
        """Start collecting a per-request phase breakdown.

        Every completed sequence id then owns one
        :class:`~repro.obs.distrib.ServerTiming`, claimable exactly once
        via :meth:`pop_request_timing`.  The admission verdicts are
        byte-identical with collection on or off; only clocks are read.
        Enabled by every :class:`repro.net.server.AdmissionServer`, which
        echoes the breakdown to v2 peers.
        """
        self._timings_enabled = True
        for shard in self._shards:
            shard.collect_timings = True
        # Resident workers own live shard state in other processes;
        # broadcast the flag so their drains collect timings too.
        broadcast = getattr(self._executor, "set_collect_timings", None)
        if broadcast is not None:
            broadcast(True)

    def pop_request_timing(self, seq: int) -> Optional[ServerTiming]:
        """Claim (and forget) the timing breakdown for ``seq``.

        Returns ``None`` when collection is disabled, the seq is
        unknown, or the timing was already claimed -- callers must pop
        every completed seq to keep the buffer from growing.
        """
        return self._request_timings.pop(seq, None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release executor resources.  Submitting afterwards raises.

        Ordering matters for the resident backend: workers are joined
        *first* (they close their plane attachments on exit), and only
        then does the coordinator unlink the shared-memory segments --
        no worker ever maps a vanished name.
        """
        if not self._closed:
            self._executor.close()
            if self._plane_allocator is not None:
                self._plane_allocator.close()
            self._closed = True

    def __enter__(self) -> "ValidationService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(
        self,
        usage: UsageLicense,
        *,
        trace_context: Optional[object] = None,
    ) -> int:
        """Match, route, and enqueue one request; return its sequence id.

        Instance rejections are decided immediately (no shard owns them);
        everything else waits for the next :meth:`drain`.

        ``trace_context`` optionally parents this request's span under a
        *remote* span -- any object exposing ``trace_id``/``span_id``
        attributes works (e.g. :class:`repro.obs.distrib.TraceContext`
        decoded from a wire frame), making the request one trace across
        the process boundary.  Ignored when no tracer is configured.

        Raises
        ------
        ServiceOverloadedError
            When the target shard's queue is full.  The request is NOT
            recorded; the caller should drain and resubmit (which
            :meth:`process` automates).
        """
        if self._closed:
            raise ServiceError("service is closed")
        tracer = self.tracer
        span = (
            tracer.start_span(
                "request", parent=trace_context, usage_id=usage.license_id
            )
            if tracer is not None
            else NULL_SPAN
        )
        if trace_context is not None and span:
            # Both processes draw span ids from identical seeded
            # counters, so the id alone cannot prove a parent lives in
            # another journal; the assembler keys on this marker.
            span.set_attr("remote_parent", True)
        match_started = time.perf_counter() if self._timings_enabled else 0.0
        if tracer is not None:
            hits_before = self._matcher.hits
            with tracer.span("match", parent=span) as match_span:
                matched = tuple(sorted(self._matcher.match(usage)))
                match_span.set_attr(
                    "cache_hit", self._matcher.hits > hits_before
                )
                match_span.set_attr("matched", len(matched))
        else:
            matched = tuple(sorted(self._matcher.match(usage)))
        match_us = (
            max(0, int((time.perf_counter() - match_started) * 1e6))
            if self._timings_enabled
            else 0
        )
        seq = self._seq
        span.set_attr("seq", seq)
        if not matched:
            self._seq += 1
            outcome = IssuanceOutcome(
                usage.license_id,
                usage.count,
                matched,
                False,
                REASON_INSTANCE,
                rejection_detail="no redistribution license contains the request",
            )
            self._pending_outcomes[seq] = outcome
            self._count_outcome(outcome)
            self._emit_outcome_event(seq, outcome)
            if self._timings_enabled:
                # Instance rejections never reach a shard: queue /
                # admission / revalidate phases are structurally zero.
                self._request_timings[seq] = ServerTiming(
                    queue_us=0,
                    match_us=match_us,
                    admission_us=0,
                    revalidate_us=0,
                    shard_id=-1,
                    kernel="none",
                )
            span.set_attr("outcome", "rejected")
            span.set_attr("reason", REASON_INSTANCE)
            span.end()
            return seq
        group_id = self._tables.group_of[matched[0]]
        shard = self._shards[group_id % self._shard_count]
        request = ShardRequest(
            seq=seq,
            usage_id=usage.license_id,
            group_id=group_id,
            members=matched,
            count=usage.count,
            submitted_at=time.perf_counter(),
        )
        try:
            shard.enqueue(request)
        except ServiceOverloadedError:
            self.metrics.counter("overload_total").inc((f"shard{shard.shard_id}",))
            if self.events is not None:
                self.events.emit(
                    EVENT_BACKPRESSURE,
                    usage_id=usage.license_id,
                    shard=shard.shard_id,
                    depth=shard.depth,
                )
            span.set_attr("outcome", REASON_OVERLOAD)
            span.end()
            raise
        self._seq += 1
        if self._timings_enabled:
            self._match_us[seq] = match_us
        if span:
            span.set_attr("group_id", group_id)
            span.set_attr("shard", shard.shard_id)
            self._request_spans[seq] = span
        self.metrics.gauge("queue_depth").set(
            shard.depth, (f"shard{shard.shard_id}",)
        )
        return seq

    def drain(self) -> List[IssuanceOutcome]:
        """Process every queued request; return all newly completed
        outcomes (instant rejects included) in submission order."""
        return [outcome for _seq, outcome in self._drain_completed()]

    def issue(self, usage: UsageLicense) -> IssuanceOutcome:
        """Single-request convenience: submit, drain, return the verdict.

        Matches the :class:`repro.online.session.IssuanceSession.issue`
        shape, so a session can delegate to a service one-for-one.  Any
        outcomes of interleaved :meth:`submit` calls completed by the
        same drain are re-buffered for the next :meth:`drain`.
        """
        seq = self.submit(usage)
        target: Optional[IssuanceOutcome] = None
        for completed_seq, outcome in self._drain_completed():
            if completed_seq == seq:
                target = outcome
            else:
                self._pending_outcomes[completed_seq] = outcome
        assert target is not None  # its shard was just drained
        return target

    def process(
        self, usages: Iterable[UsageLicense]
    ) -> List[IssuanceOutcome]:
        """Serve a whole stream with automatic backpressure handling.

        Submits until a shard pushes back, drains, resubmits, and drains
        the tail; returns outcomes in stream order.  Overload never drops
        a request here -- it only forces an early drain -- so the verdict
        stream is identical for every queue capacity.
        """
        outcomes: Dict[int, IssuanceOutcome] = {}
        order: List[int] = []
        for usage in usages:
            while True:
                try:
                    order.append(self.submit(usage))
                    break
                except ServiceOverloadedError:
                    outcomes.update(self._drain_completed())
        outcomes.update(self._drain_completed())
        return [outcomes[seq] for seq in order]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Return a human-readable metrics report for this service."""
        self.metrics.gauge("match_cache_hits").set(self._matcher.hits)
        self.metrics.gauge("match_cache_misses").set(self._matcher.misses)
        self.metrics.gauge("match_cache_evictions").set(self._matcher.evictions)
        return self.metrics.render(
            title=(
                f"validation service: {self.group_count} group(s) on "
                f"{self._shard_count} shard(s), batch={self.config.batch_size}, "
                f"executor={self.config.executor}"
            )
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drain_completed(self) -> List[Tuple[int, IssuanceOutcome]]:
        """Run busy shards, then hand out ``(seq, outcome)`` pairs sorted
        by sequence number, clearing the completion buffer."""
        if self._closed:
            raise ServiceError("service is closed")
        tracer = self.tracer
        busy = [shard for shard in self._shards if shard.depth]
        if busy:
            drain_span = (
                tracer.start_span("drain", shards=len(busy))
                if tracer is not None
                else NULL_SPAN
            )
            outputs = self._executor.drain(busy)
            # Resident backend: per-drain IPC is O(batch) -- record it
            # so the bench can prove state never crosses the boundary.
            shipped = getattr(self._executor, "last_drain_bytes", None)
            if shipped is not None:
                self.metrics.counter("ipc_bytes_shipped_total").inc(
                    amount=shipped
                )
            for shard in busy:
                self.metrics.gauge("queue_depth").set(
                    shard.depth, (f"shard{shard.shard_id}",)
                )
            now = time.perf_counter()
            completed_results: List[ShardResult] = []
            reval_us: Dict[int, int] = {}
            for _shard_id, (results, stats) in sorted(outputs.items()):
                if self._timings_enabled:
                    # Revalidation runs once per touched group per batch;
                    # its cost is attributed to every request of that
                    # group completed by this drain (amortized view).
                    for timing in stats.batch_timings:
                        for reval in timing.revalidations:
                            reval_us[reval.group_id] = reval_us.get(
                                reval.group_id, 0
                            ) + max(0, int(reval.duration * 1e6))
                self.metrics.counter("batches_total").inc(amount=stats.batches)
                self.metrics.counter("equations_checked_total").inc(
                    amount=stats.equations_checked
                )
                if stats.audit_violations:
                    self.metrics.counter("audit_violations_total").inc(
                        amount=stats.audit_violations
                    )
                # Kernel counters stay silent on pure-tree configs so the
                # metrics surface (and its golden renders) is unchanged
                # unless the dense kernel is actually in play.
                if stats.kernel_fast_path_hits:
                    self.metrics.counter("kernel_fast_path_hits").inc(
                        amount=stats.kernel_fast_path_hits
                    )
                if stats.kernel_fallback:
                    self.metrics.counter("kernel_fallback").inc(
                        amount=stats.kernel_fallback
                    )
                if tracer is not None and drain_span:
                    self._record_batch_spans(drain_span, stats)
                completed_results.extend(results)
            # Complete in global submission order so the service log (and
            # every metric derived from it) is independent of how groups
            # were spread over shards.
            for result in sorted(completed_results, key=lambda r: r.seq):
                self._latency.observe(now - result.submitted_at)
                self._complete(result, reval_us=reval_us)
            drain_span.end()
        if self.monitor is not None:
            self.monitor.tick()
        completed = sorted(self._pending_outcomes.items())
        self._pending_outcomes.clear()
        return completed

    def _replay(self, log: ValidationLog) -> None:
        """Load previously accepted issuances into shard state unchecked
        (they were validated when first accepted)."""
        for record in log:
            members = sorted(record.license_set)
            group_id = self._tables.group_of[members[0]]
            shard = self._shards[group_id % self._shard_count]
            shard.preload(group_id, members, record.count)

    def _build_specs(self) -> List[ShardSpec]:
        """Build one :class:`ShardSpec` per shard for resident workers.

        Specs are O(config + preload log): group structure, aggregates,
        replayed records, and -- for plane-backed dense groups -- the
        shared-memory names to attach to instead of replaying.
        """
        plane_names = (
            self._plane_allocator.names()
            if self._plane_allocator is not None
            else {}
        )
        return [
            ShardSpec(
                shard_id=shard.shard_id,
                group_ids=shard.group_ids,
                batch_size=self.config.batch_size,
                queue_capacity=self.config.queue_capacity,
                kernel_cap=self.config.kernel_cap,
                structure=self._tables.structure,
                aggregates=tuple(self._tables.aggregates),
                preloads=shard.preloads,
                plane_names={
                    group_id: names
                    for group_id, names in plane_names.items()
                    if group_id in shard.group_ids
                },
                collect_timings=shard.collect_timings,
            )
            for shard in self._shards
        ]

    def _record_batch_spans(self, drain_span, stats) -> None:
        """Stitch shard-side batch/revalidation timings under the drain
        span (they arrive as plain picklable data -- see
        :class:`repro.service.shard.BatchTiming`)."""
        tracer = self.tracer
        if tracer is None:  # pragma: no cover - callers already check
            return
        for timing in stats.batch_timings:
            batch_record = tracer.record(
                "shard_batch",
                start=timing.started,
                duration=timing.duration,
                parent=drain_span,
                attrs={"shard": timing.shard_id, "batch_size": timing.size},
            )
            if batch_record is None:
                continue
            for reval in timing.revalidations:
                tracer.record(
                    "revalidate",
                    start=reval.started,
                    duration=reval.duration,
                    parent=batch_record,
                    attrs={
                        "group_id": reval.group_id,
                        "equations_checked": reval.equations_checked,
                        "violations": reval.violations,
                    },
                )

    def _complete(
        self,
        result: ShardResult,
        *,
        reval_us: Optional[Dict[int, int]] = None,
    ) -> None:
        if result.accepted:
            detail = None
            self._log.record(result.members, result.count, result.usage_id)
        else:
            detail = (
                f"headroom {result.headroom} < requested {result.count} "
                f"in group {result.group_id + 1}"
            )
        outcome = IssuanceOutcome(
            result.usage_id,
            result.count,
            result.members,
            result.accepted,
            result.reason,
            rejection_detail=detail,
        )
        self._pending_outcomes[result.seq] = outcome
        self._count_outcome(outcome)
        self._emit_outcome_event(result.seq, outcome, group_id=result.group_id)
        if self._timings_enabled:
            self._request_timings[result.seq] = ServerTiming(
                queue_us=max(
                    0, int((result.processed_at - result.submitted_at) * 1e6)
                ),
                match_us=self._match_us.pop(result.seq, 0),
                admission_us=max(0, int(result.service_time * 1e6)),
                revalidate_us=(reval_us or {}).get(result.group_id, 0),
                shard_id=result.group_id % self._shard_count,
                kernel=self._kernel_by_group.get(result.group_id, "tree"),
            )
        span = self._request_spans.pop(result.seq, None)
        tracer = self.tracer
        # A span only exists for this seq if the tracer was live at
        # submit time, but the guard keeps the invariant lexical.
        if span is not None and tracer is not None:
            tracer.record(
                "queue_wait",
                start=result.submitted_at,
                duration=max(0.0, result.processed_at - result.submitted_at),
                parent=span,
            )
            tracer.record(
                "admission",
                start=result.processed_at,
                duration=result.service_time,
                parent=span,
                attrs={
                    "group_id": result.group_id,
                    "headroom": result.headroom,
                    "accepted": result.accepted,
                },
            )
            span.set_attr("outcome", "accepted" if result.accepted else "rejected")
            if result.reason:
                span.set_attr("reason", result.reason)
            span.end()

    def _count_outcome(self, outcome: IssuanceOutcome) -> None:
        if outcome.accepted:
            self.metrics.counter("requests_total").inc(("accepted",))
        else:
            self.metrics.counter("requests_total").inc(
                ("rejected", outcome.rejection_reason or "unknown")
            )

    # ------------------------------------------------------------------
    # Observability plumbing (all strictly out-of-band)
    # ------------------------------------------------------------------
    def _emit_outcome_event(
        self,
        seq: int,
        outcome: IssuanceOutcome,
        group_id: Optional[int] = None,
    ) -> None:
        if self.events is None:
            return
        if outcome.accepted:
            self.events.emit(
                EVENT_ADMISSION,
                seq_no=seq,
                usage_id=outcome.usage_id,
                count=outcome.count,
                group_id=group_id,
            )
        else:
            self.events.emit(
                EVENT_REJECTION,
                seq_no=seq,
                usage_id=outcome.usage_id,
                count=outcome.count,
                group_id=group_id,
                reason=outcome.rejection_reason,
                detail=outcome.rejection_detail,
            )

    def _on_cache_evict(self, key, _value) -> None:
        self.metrics.counter("match_cache_evictions_total").inc()
        events = self.events
        if events is None:  # pragma: no cover - hook registered iff events
            return
        events.emit(
            EVENT_CACHE_EVICTION,
            cache="match",
            content_id=key[0] if key else None,
        )
