"""Group shards: serialized per-group work queues with batched admission.

A :class:`GroupShard` owns the :class:`~repro.core.incremental.GroupSlice`
state of every overlap group assigned to it.  All mutations of a group's
equation state happen inside its shard's (single-threaded) processing
loop, so requests touching *different* shards validate concurrently while
per-group state stays race-free -- the serving-architecture reading of
Theorem 2: disconnected groups share no validation equations, hence no
state, hence no locks.

Admission runs in batches: up to ``batch_size`` pending requests are
drained, each admitted or rejected by an exact group-restricted headroom
query, and the batch ends with **one** incremental revalidation pass over
the slices it dirtied.  The per-request decision is exact either way; the
batch pass is the authority's periodic Algorithm 2 audit, and batching
amortizes its ``Σ_dirty (2^{N_k} - 1)`` equation cost over the whole
batch instead of paying it per request.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError, ServiceOverloadedError
from repro.core.grouping import GroupStructure
from repro.core.incremental import GroupSlice
from repro.core.kernel import KERNEL_DENSE, KernelPlane

__all__ = [
    "BatchTiming",
    "GroupShard",
    "RevalidationTiming",
    "ShardRequest",
    "ShardResult",
    "ShardSpec",
    "ShardStats",
]

#: Rejection reason reported for headroom shortfalls at admission.
REASON_EQUATION = "equation"


@dataclass(frozen=True)
class ShardRequest:
    """One admission request routed to a shard.

    ``seq`` is the service-wide submission sequence number; per-shard FIFO
    processing of ascending ``seq`` values is what makes verdict streams
    independent of the shard count.
    """

    seq: int
    usage_id: str
    group_id: int
    members: Tuple[int, ...]
    count: int
    submitted_at: float


@dataclass(frozen=True)
class ShardResult:
    """The shard's verdict on one request."""

    seq: int
    usage_id: str
    group_id: int
    members: Tuple[int, ...]
    count: int
    accepted: bool
    #: ``None`` when accepted, else a rejection reason code.
    reason: str | None
    #: Headroom observed at admission time (before any insert).
    headroom: int
    #: In-shard processing time of this request, seconds.
    service_time: float
    #: Submission timestamp, echoed back for latency accounting.
    submitted_at: float
    #: When in-shard processing of this request began (monotonic clock);
    #: ``processed_at - submitted_at`` is the queue wait.
    processed_at: float = 0.0


@dataclass(frozen=True)
class RevalidationTiming:
    """Timing of one per-group incremental revalidation (plain data, so
    resident workers can ship it back to the coordinator)."""

    group_id: int
    equations_checked: int
    violations: int
    started: float
    duration: float


@dataclass(frozen=True)
class BatchTiming:
    """Timing of one admission batch plus its revalidation passes."""

    shard_id: int
    size: int
    started: float
    duration: float
    revalidations: Tuple[RevalidationTiming, ...]


@dataclass
class ShardStats:
    """Aggregate accounting of one processing drain."""

    processed: int = 0
    accepted: int = 0
    rejected: int = 0
    batches: int = 0
    equations_checked: int = 0
    audit_violations: int = 0
    #: Admissions answered by a dense headroom kernel (O(1) table probes).
    kernel_fast_path_hits: int = 0
    #: Admissions that *asked* for the dense kernel but were answered by
    #: the tree walk because the group exceeded the kernel cap.
    kernel_fallback: int = 0
    per_group: Dict[int, int] = field(default_factory=dict)
    #: Batch/revalidation timings, collected only when the owning shard
    #: has ``collect_timings`` set (i.e. the service is tracing).
    batch_timings: List[BatchTiming] = field(default_factory=list)


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker process needs to rebuild one shard in place.

    The resident executor ships a spec **once** at startup instead of
    pickling live shard state per drain: the worker reconstructs the
    shard's :class:`~repro.core.incremental.GroupSlice` objects from the
    (small, static) group structure + aggregates, then replays
    ``preloads`` -- except for groups listed in ``plane_names``, whose
    dense ``C``/``H`` tables live in coordinator-created shared memory
    that already holds the replayed state; the worker *attaches* and
    adopts those tables as-is (``adopt_planes=True``), so state is never
    shipped twice in any form.
    """

    shard_id: int
    group_ids: Tuple[int, ...]
    batch_size: int
    queue_capacity: int
    kernel_cap: int
    structure: GroupStructure
    aggregates: Tuple[int, ...]
    #: Already-admitted records ``(group_id, members, count)`` to replay
    #: into tree/fallback groups (plane-backed groups skip these).
    preloads: Tuple[Tuple[int, Tuple[int, ...], int], ...]
    #: ``{group_id: (C_name, H_name)}`` shared-memory plane names for the
    #: dense groups the coordinator allocated; empty when planes are off.
    plane_names: Dict[int, Tuple[str, str]]
    collect_timings: bool = False


class GroupShard:
    """One serialized lane of the service (see module docstring)."""

    def __init__(
        self,
        shard_id: int,
        slices: Dict[int, GroupSlice],
        batch_size: int,
        queue_capacity: int,
    ):
        if batch_size < 1:
            raise ServiceError(f"batch_size must be >= 1, got {batch_size}")
        if queue_capacity < 1:
            raise ServiceError(f"queue_capacity must be >= 1, got {queue_capacity}")
        self.shard_id = shard_id
        self._slices = slices
        self._batch_size = batch_size
        self._capacity = queue_capacity
        self._pending: Deque[ShardRequest] = deque()
        #: Replayed records, kept so a :class:`ShardSpec` built later can
        #: carry them to a worker (coordinator side only; workers never
        #: re-record the preloads they replay).
        self._preloads: List[Tuple[int, Tuple[int, ...], int]] = []
        #: Shared planes this shard attached to (worker side only),
        #: closed -- never unlinked -- on worker shutdown.
        self._attached_planes: List[KernelPlane] = []
        #: When True, :meth:`process_pending` fills
        #: :attr:`ShardStats.batch_timings` (set by a tracing service;
        #: costs one extra clock read per batch + per revalidation).
        self.collect_timings = False

    @classmethod
    def from_spec(cls, spec: ShardSpec) -> "GroupShard":
        """Rebuild a shard inside a worker process from its spec.

        Groups named in ``spec.plane_names`` get slices whose dense
        kernels *attach* to the coordinator's shared ``C``/``H`` planes
        and adopt their live contents (the coordinator already replayed
        the preload log into them); all other groups are rebuilt from
        the aggregates and replay their preloads locally.  Either way
        the resulting equation state is byte-identical to the
        coordinator's at spec time.
        """
        slices: Dict[int, GroupSlice] = {}
        attached: List[KernelPlane] = []
        plane_groups = set()
        for group_id in spec.group_ids:
            planes: Optional[Tuple[KernelPlane, KernelPlane]] = None
            names = spec.plane_names.get(group_id)
            if names is not None:
                length = 1 << len(
                    spec.structure.groups[group_id]
                )
                planes = (
                    KernelPlane.attach(names[0], length),
                    KernelPlane.attach(names[1], length),
                )
                attached.extend(planes)
                plane_groups.add(group_id)
            slices[group_id] = GroupSlice(
                spec.structure,
                list(spec.aggregates),
                group_id,
                kernel_cap=spec.kernel_cap,
                planes=planes,
                adopt_planes=planes is not None,
            )
        shard = cls(
            spec.shard_id, slices, spec.batch_size, spec.queue_capacity
        )
        shard.collect_timings = spec.collect_timings
        shard._attached_planes = attached
        for group_id, members, count in spec.preloads:
            if group_id in plane_groups:
                continue  # state already lives in the adopted planes
            shard.preload(group_id, members, count)
        # Replayed records are the coordinator's provenance, not this
        # worker's; keep the worker-side list empty.
        shard._preloads.clear()
        return shard

    # ------------------------------------------------------------------
    # Queue management (called from the service coordinator only)
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Return the current pending-queue depth."""
        return len(self._pending)

    @property
    def group_ids(self) -> Tuple[int, ...]:
        """Return the 0-based group ids assigned to this shard."""
        return tuple(sorted(self._slices))

    def slices(self) -> Tuple[GroupSlice, ...]:
        """Return this shard's group slices, ascending group id (shared,
        mutable -- read-only use outside the processing loop)."""
        return tuple(
            self._slices[group_id] for group_id in sorted(self._slices)
        )

    def enqueue(self, request: ShardRequest) -> None:
        """Queue a request, enforcing the bounded-queue backpressure.

        Raises
        ------
        ServiceOverloadedError
            When the queue already holds ``queue_capacity`` requests.
        """
        if len(self._pending) >= self._capacity:
            raise ServiceOverloadedError(self.shard_id, len(self._pending))
        if request.group_id not in self._slices:
            raise ServiceError(
                f"request {request.usage_id} for group {request.group_id + 1} "
                f"routed to shard {self.shard_id}, which owns groups "
                f"{[g + 1 for g in self.group_ids]}"
            )
        self._pending.append(request)

    def preload(self, group_id: int, members: Sequence[int], count: int) -> None:
        """Insert an already-validated record into a group's state.

        Used when replaying a restarting authority's journal: the record
        was admitted in a previous life, so no headroom check is run.
        """
        if group_id not in self._slices:
            raise ServiceError(
                f"group {group_id + 1} is not owned by shard {self.shard_id}"
            )
        self._slices[group_id].insert(members, count)
        self._preloads.append((group_id, tuple(members), count))

    def take_pending(self) -> List[ShardRequest]:
        """Drain and return the pending queue (coordinator side).

        The resident executor ships exactly this list -- the batch --
        across the process boundary; the shard's own queue is left empty
        so a failed drain can repopulate it atomically.
        """
        taken = list(self._pending)
        self._pending.clear()
        return taken

    def requeue(self, requests: Sequence[ShardRequest]) -> None:
        """Put back requests taken by :meth:`take_pending` (front of the
        queue, original order) after a failed drain -- capacity checks
        are skipped because the requests were already admitted to the
        queue once."""
        self._pending.extendleft(reversed(list(requests)))

    @property
    def preloads(self) -> Tuple[Tuple[int, Tuple[int, ...], int], ...]:
        """Return replayed records recorded by :meth:`preload` (the
        coordinator reads these when building a :class:`ShardSpec`)."""
        return tuple(self._preloads)

    def close_planes(self) -> None:
        """Close (never unlink) shared planes this shard attached to --
        the worker half of the plane lifecycle discipline."""
        for plane in self._attached_planes:
            plane.close()
        self._attached_planes = []

    # ------------------------------------------------------------------
    # Processing (runs inside the executor worker)
    # ------------------------------------------------------------------
    def process_pending(self) -> Tuple[List[ShardResult], ShardStats]:
        """Drain the queue in batches; return verdicts + batch accounting.

        Safe to run in a worker process: only this shard's slices are
        touched.  FIFO order is preserved, so verdicts depend only on
        the submission order within each group.
        """
        results: List[ShardResult] = []
        stats = ShardStats()
        collect = self.collect_timings
        while self._pending:
            batch = [
                self._pending.popleft()
                for _ in range(min(self._batch_size, len(self._pending)))
            ]
            batch_started = time.perf_counter()
            touched: Dict[int, GroupSlice] = {}
            for request in batch:
                started = time.perf_counter()
                gslice = self._slices[request.group_id]
                slack = gslice.headroom(request.members)
                if gslice.kernel_name == KERNEL_DENSE:
                    stats.kernel_fast_path_hits += 1
                elif gslice.kernel_fallback:
                    stats.kernel_fallback += 1
                accepted = slack >= request.count
                if accepted:
                    gslice.insert(request.members, request.count)
                    touched[request.group_id] = gslice
                    stats.accepted += 1
                else:
                    stats.rejected += 1
                stats.processed += 1
                stats.per_group[request.group_id] = (
                    stats.per_group.get(request.group_id, 0) + 1
                )
                results.append(
                    ShardResult(
                        seq=request.seq,
                        usage_id=request.usage_id,
                        group_id=request.group_id,
                        members=request.members,
                        count=request.count,
                        accepted=accepted,
                        reason=None if accepted else REASON_EQUATION,
                        headroom=slack,
                        service_time=time.perf_counter() - started,
                        submitted_at=request.submitted_at,
                        processed_at=started,
                    )
                )
            # One incremental revalidation pass per batch: the audit cost
            # is paid once for every slice the batch dirtied.
            stats.batches += 1
            revalidations: List[RevalidationTiming] = []
            for gslice in touched.values():
                reval_started = time.perf_counter()
                report, checked = gslice.revalidate()
                stats.equations_checked += checked
                stats.audit_violations += len(report.violations)
                if collect:
                    revalidations.append(
                        RevalidationTiming(
                            group_id=gslice.group_id,
                            equations_checked=checked,
                            violations=len(report.violations),
                            started=reval_started,
                            duration=time.perf_counter() - reval_started,
                        )
                    )
            if collect:
                stats.batch_timings.append(
                    BatchTiming(
                        shard_id=self.shard_id,
                        size=len(batch),
                        started=batch_started,
                        duration=time.perf_counter() - batch_started,
                        revalidations=tuple(revalidations),
                    )
                )
        return results, stats
