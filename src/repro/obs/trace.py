"""Hierarchical span tracing with deterministic ids and head sampling.

A :class:`Tracer` hands out :class:`Span` objects -- named, attributed,
monotonic-clock-timed intervals arranged in a parent/child tree.  The
design constraints come from the serving layer:

* **Determinism.** Span and trace ids are drawn from a seeded counter,
  never from wall clock or ``random``, so two runs of the same workload
  with the same seed produce structurally identical traces (the timing
  floats differ; everything else is reproducible, and tests can inject a
  fake clock to pin the files byte-for-byte).
* **Thread safety.** Id allocation and the finished-record buffer are
  lock-guarded; the *current span* used for implicit parenting lives in
  a :class:`contextvars.ContextVar`, so each thread (and each asyncio
  task) nests independently.  Work shipped to executor workers either
  re-activates the parent span explicitly (:meth:`Tracer.activate`) or
  comes back as plain timing data recorded out-of-band with
  :meth:`Tracer.record` -- the route the process executor must take,
  since a live ``Tracer`` (holding locks) is not picklable.
* **Head-based sampling.** The keep/drop decision is made once, when a
  *root* span starts, and inherited by the whole tree below it
  (:class:`SamplingConfig`).  The decision is a deterministic stride
  over the root counter -- ``rate=0.25`` keeps exactly every 4th request
  trace -- so sampled traces are reproducible too.

Unsampled (or disabled) tracing flows through :data:`NULL_SPAN`, a
falsy singleton whose methods all no-op, so instrumented call sites need
no ``if tracing:`` forests.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ServiceError

__all__ = ["NULL_SPAN", "SamplingConfig", "Span", "SpanRecord", "Tracer"]

#: The context-local span used for implicit parenting.
_CURRENT: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span", default=None)


@dataclass(frozen=True)
class SamplingConfig:
    """Head-based sampling policy: keep ``rate`` of all root spans.

    The decision for the ``i``-th root (0-based) is
    ``floor((i + 1) * rate) > floor(i * rate)`` -- a deterministic stride
    that keeps exactly ``round(rate * n)`` of any ``n`` consecutive roots
    with no RNG involved.  ``rate=1.0`` keeps everything, ``rate=0.0``
    disables tracing entirely.
    """

    rate: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ServiceError(f"sampling rate {self.rate} outside [0, 1]")

    def keep(self, root_index: int) -> bool:
        """Return whether the ``root_index``-th root span is sampled."""
        return math.floor((root_index + 1) * self.rate) > math.floor(
            root_index * self.rate
        )


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, ready for export.

    ``start`` is a monotonic-clock timestamp (``time.perf_counter``
    timebase by default); only differences between records of one run are
    meaningful.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    duration: float
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Return the JSONL payload of this record."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SpanRecord":
        """Rebuild a record from its JSONL payload."""
        try:
            return cls(
                trace_id=str(payload["trace_id"]),
                span_id=str(payload["span_id"]),
                parent_id=(
                    None if payload["parent_id"] is None
                    else str(payload["parent_id"])
                ),
                name=str(payload["name"]),
                start=float(payload["start"]),       # type: ignore[arg-type]
                duration=float(payload["duration"]),  # type: ignore[arg-type]
                attrs=dict(payload.get("attrs") or {}),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed span record: {payload!r}") from exc


class _NullSpan:
    """Falsy sink for unsampled/disabled tracing; every method no-ops."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def set_attr(self, _key: str, _value: object) -> None:
        pass

    def inc_attr(self, _key: str, _amount: Union[int, float] = 1) -> None:
        pass

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "NULL_SPAN"


#: The shared do-nothing span.
NULL_SPAN = _NullSpan()


class Span:
    """One live span: a named, timed interval with attributes.

    Usable as a context manager (ends on exit) or ended explicitly with
    :meth:`end`.  Ending twice is harmless -- the second call is ignored
    -- so ``with`` blocks may also end early.
    """

    __slots__ = (
        "tracer", "trace_id", "span_id", "parent_id", "name", "attrs",
        "start", "_ended", "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start: float,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs: Dict[str, object] = dict(attrs or {})
        self._ended = False
        self._token = None

    def set_attr(self, key: str, value: object) -> None:
        """Set one attribute (overwrites)."""
        self.attrs[key] = value

    def inc_attr(self, key: str, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` to a numeric attribute (missing counts as 0)."""
        self.attrs[key] = self.attrs.get(key, 0) + amount  # type: ignore[operator]

    def end(self) -> None:
        """Finish the span and hand the record to the tracer."""
        if self._ended:
            return
        self._ended = True
        self.tracer._finish(self)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, *_exc) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self.end()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Span({self.name!r}, id={self.span_id}, trace={self.trace_id})"


class Tracer:
    """Span factory + finished-record buffer (see module docstring).

    Parameters
    ----------
    sampling:
        Head-based sampling policy applied to root spans.
    seed:
        Starting value of the span/trace id counter.  Two tracers with
        the same seed allocate the same id sequence.
    clock:
        Monotonic clock; injectable so tests can pin timings.

    Examples
    --------
    >>> tracer = Tracer(clock=iter(range(100)).__next__)
    >>> with tracer.span("request", seq=0) as root:
    ...     with tracer.span("match") as child:
    ...         child.set_attr("matched", 2)
    >>> [(r.name, r.parent_id is None) for r in tracer.records()]
    [('match', False), ('request', True)]
    """

    def __init__(
        self,
        sampling: Optional[SamplingConfig] = None,
        *,
        seed: int = 0,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.sampling = sampling or SamplingConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._next_id = int(seed)
        self._roots_started = 0
        self._roots_sampled = 0
        self._records: List[SpanRecord] = []

    # ------------------------------------------------------------------
    # Id allocation
    # ------------------------------------------------------------------
    def _allocate(self) -> int:
        with self._lock:
            value = self._next_id
            self._next_id += 1
            return value

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        parent: Union[Span, _NullSpan, None] = None,
        **attrs: object,
    ) -> Union[Span, _NullSpan]:
        """Start a span; the caller must :meth:`Span.end` it.

        With no explicit ``parent`` the context-local current span is
        used; with neither, this starts a new *root* span (and trace),
        subject to the head-sampling decision.  A ``NULL_SPAN`` parent
        propagates: the child is ``NULL_SPAN`` too.

        The parent contract is duck-typed: any object exposing
        ``trace_id``/``span_id`` works, notably a
        :class:`repro.obs.distrib.TraceContext` carried over the wire --
        the new span then joins the *remote* trace, which is how a
        server's ``request`` span nests under a client's
        ``wire_request`` span.  Remote-parented spans are never
        head-sampled away (the remote end already made that decision).
        """
        if parent is None:
            parent = _CURRENT.get()
        if parent is NULL_SPAN:
            return NULL_SPAN
        if parent is None:
            with self._lock:
                root_index = self._roots_started
                self._roots_started += 1
                keep = self.sampling.keep(root_index)
                if keep:
                    self._roots_sampled += 1
            if not keep:
                return NULL_SPAN
            trace_id = f"t{self._allocate():08d}"
            parent_id = None
        else:
            trace_id = parent.trace_id  # type: ignore[union-attr]
            parent_id = parent.span_id  # type: ignore[union-attr]
        return Span(
            self,
            trace_id,
            f"s{self._allocate():08d}",
            parent_id,
            name,
            self._clock(),
            attrs,
        )

    @contextmanager
    def span(
        self,
        name: str,
        parent: Union[Span, _NullSpan, None] = None,
        **attrs: object,
    ) -> Iterator[Union[Span, _NullSpan]]:
        """Context-manager convenience around :meth:`start_span`.

        The span becomes the context-local current span inside the
        block, so nested ``tracer.span(...)`` calls parent to it.
        """
        opened = self.start_span(name, parent, **attrs)
        if opened is NULL_SPAN:
            token = _CURRENT.set(NULL_SPAN)  # type: ignore[arg-type]
            try:
                yield NULL_SPAN
            finally:
                _CURRENT.reset(token)
            return
        with opened:  # type: ignore[union-attr]
            yield opened

    @contextmanager
    def activate(self, span: Union[Span, _NullSpan]) -> Iterator[None]:
        """Make ``span`` the current span inside the block.

        The cross-thread propagation primitive: a worker thread handed a
        request span activates it so its own ``tracer.span(...)`` calls
        attach to the right trace.
        """
        token = _CURRENT.set(span)  # type: ignore[arg-type]
        try:
            yield
        finally:
            _CURRENT.reset(token)

    def current(self) -> Union[Span, _NullSpan, None]:
        """Return the context-local current span (``None`` outside any)."""
        return _CURRENT.get()

    def record(
        self,
        name: str,
        *,
        start: float,
        duration: float,
        parent: Union[Span, SpanRecord, _NullSpan, None] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Optional[SpanRecord]:
        """Record an already-finished span from out-of-band timing data.

        This is how shard/executor work joins the tree: workers return
        plain picklable timing tuples, and the coordinator stitches them
        under the right parent.  Returns the new record (so callers can
        parent further records to it), or ``None`` when the parent was
        unsampled.
        """
        if parent is NULL_SPAN:
            return None
        if parent is None:
            trace_id = f"t{self._allocate():08d}"
            parent_id = None
        else:
            trace_id = parent.trace_id  # type: ignore[union-attr]
            parent_id = parent.span_id  # type: ignore[union-attr]
        finished = SpanRecord(
            trace_id=trace_id,
            span_id=f"s{self._allocate():08d}",
            parent_id=parent_id,
            name=name,
            start=start,
            duration=duration,
            attrs=dict(attrs or {}),
        )
        with self._lock:
            self._records.append(finished)
        return finished

    def _finish(self, span: Span) -> None:
        finished = SpanRecord(
            trace_id=span.trace_id,
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            start=span.start,
            duration=self._clock() - span.start,
            attrs=dict(span.attrs),
        )
        with self._lock:
            self._records.append(finished)

    # ------------------------------------------------------------------
    # Introspection + export
    # ------------------------------------------------------------------
    def records(self) -> Tuple[SpanRecord, ...]:
        """Return every finished span so far (finish order)."""
        with self._lock:
            return tuple(self._records)

    @property
    def roots_started(self) -> int:
        """Return how many root spans were requested (sampled or not)."""
        return self._roots_started

    @property
    def roots_sampled(self) -> int:
        """Return how many root spans passed the sampling decision."""
        return self._roots_sampled

    def clear(self) -> None:
        """Drop all finished records (id counters keep advancing)."""
        with self._lock:
            self._records.clear()

    def write_jsonl(self, path: str) -> int:
        """Write every finished span as one JSON object per line.

        Records are sorted by ``(trace_id, span_id)`` so the file is a
        deterministic function of the trace structure, not of executor
        finish order.  Returns the number of records written.
        """
        records = sorted(
            self.records(), key=lambda r: (r.trace_id, r.span_id)
        )
        with open(path, "w", encoding="utf-8") as stream:
            for finished in records:
                stream.write(
                    json.dumps(finished.to_dict(), sort_keys=True) + "\n"
                )
        return len(records)
