"""Metrics for the validation service: counters, gauges, histograms, hooks.

A tiny, dependency-free registry shaped like the usual production metric
kinds:

* :class:`Counter` -- monotone totals, optionally split by a label tuple
  (``requests_total{result=rejected, reason=equation}``);
* :class:`Gauge` -- last-written values (per-shard queue depths);
* :class:`Histogram` -- latency samples with p50/p95/p99 summaries.

Every observation also fans out to registered *hooks* --
``hook(metric, labels, value)`` callables -- so benchmarks and the
:mod:`repro.analysis` layer can stream service events without polling the
registry.  The registry itself is intentionally not thread-safe per metric
*cell*; the service routes all observations through its coordinator
thread, and Python-level ``dict``/`int`` updates of distinct metrics are
safe under concurrent shard workers.

Examples
--------
>>> registry = MetricsRegistry()
>>> registry.counter("requests_total").inc(("accepted",))
>>> registry.counter("requests_total").inc(("rejected", "instance"), 2)
>>> registry.counter("requests_total").total()
3
>>> registry.histogram("latency_seconds").observe(0.25)
>>> registry.histogram("latency_seconds").quantile(0.5)
0.25
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.obs.quantiles import nearest_rank

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricHook",
]

#: Signature of an event hook: ``(metric_name, labels, value)``.
MetricHook = Callable[[str, Tuple[str, ...], float], None]

#: Labels applied when an observation carries none.
_NO_LABELS: Tuple[str, ...] = ()


class Counter:
    """A monotone counter, optionally partitioned by a label tuple."""

    def __init__(self, name: str, emit: MetricHook):
        self.name = name
        self._emit = emit
        self._cells: Dict[Tuple[str, ...], int] = {}

    def inc(self, labels: Tuple[str, ...] = _NO_LABELS, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the labelled cell."""
        if amount < 0:
            raise ServiceError(f"counter {self.name} cannot decrease by {amount}")
        self._cells[labels] = self._cells.get(labels, 0) + amount
        self._emit(self.name, labels, float(amount))

    def value(self, labels: Tuple[str, ...] = _NO_LABELS) -> int:
        """Return one labelled cell (0 if never incremented)."""
        return self._cells.get(labels, 0)

    def total(self) -> int:
        """Return the sum across all label cells."""
        return sum(self._cells.values())

    def cells(self) -> Dict[Tuple[str, ...], int]:
        """Return a copy of the per-label cells."""
        return dict(self._cells)


class Gauge:
    """A last-value gauge, optionally partitioned by a label tuple."""

    def __init__(self, name: str, emit: MetricHook):
        self.name = name
        self._emit = emit
        self._cells: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, labels: Tuple[str, ...] = _NO_LABELS) -> None:
        """Overwrite the labelled cell."""
        self._cells[labels] = value
        self._emit(self.name, labels, float(value))

    def value(self, labels: Tuple[str, ...] = _NO_LABELS) -> float:
        """Return one labelled cell (0.0 if never set)."""
        return self._cells.get(labels, 0.0)

    def cells(self) -> Dict[Tuple[str, ...], float]:
        """Return a copy of the per-label cells."""
        return dict(self._cells)


class Histogram:
    """A sample histogram with exact quantiles over a bounded window.

    Samples are kept sorted (insertion via ``bisect``); beyond
    ``max_samples`` the *earliest-inserted* samples are forgotten, making
    quantiles/``max`` a sliding window rather than an all-time aggregate.
    The histogram therefore carries **two scopes** and :meth:`summary`
    reports both explicitly:

    * all-time: ``count``, ``sum``, ``mean`` -- monotone totals over every
      sample ever observed (what Prometheus ``_count``/``_sum`` series
      mean);
    * window: ``window_count``, ``window_sum``, ``p50``/``p95``/``p99``,
      ``max`` -- computed over at most the ``max_samples`` most recent
      samples.

    The two scopes coincide until the window first overflows.
    """

    def __init__(self, name: str, emit: MetricHook, max_samples: int = 65536):
        if max_samples < 1:
            raise ServiceError(f"histogram {name} needs max_samples >= 1")
        self.name = name
        self._emit = emit
        self._max = max_samples
        # Both buffers hold raw float64s (16 B per sample in all).
        self._sorted = array("d")
        # Insertion order for window eviction, as a ring: once full, the
        # newest sample overwrites the oldest at ``_head`` in O(1).
        self._ring = array("d")
        self._head = 0
        self.count = 0
        self.sum = 0.0
        self.window_sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        self.sum += value
        self.window_sum += value
        insort(self._sorted, value)
        if len(self._ring) < self._max:
            self._ring.append(value)
        else:
            oldest = self._ring[self._head]
            self._ring[self._head] = value
            self._head = (self._head + 1) % self._max
            self._sorted.pop(bisect_left(self._sorted, oldest))
            self.window_sum -= oldest
        self._emit(self.name, _NO_LABELS, value)

    @property
    def window_count(self) -> int:
        """Return how many samples the sliding window currently holds."""
        return len(self._ring)

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile (nearest-rank) of the current window.

        Returns 0.0 on an empty histogram.  Delegates to the shared
        :func:`repro.obs.quantiles.nearest_rank` (round convention) --
        the window list is kept sorted, so no re-sort happens here.
        """
        if not 0.0 <= q <= 1.0:
            raise ServiceError(f"quantile {q} outside [0, 1]")
        return nearest_rank(self._sorted, q, presorted=True)

    def summary(self) -> Dict[str, float]:
        """Return both scopes of the histogram in one flat dict.

        All-time: ``count``, ``sum``, ``mean``.  Window-scoped (the most
        recent ``max_samples`` samples): ``window_count``, ``window_sum``,
        ``p50``/``p95``/``p99``, ``max``.
        """
        mean = self.sum / self.count if self.count else 0.0
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": mean,
            "window_count": float(self.window_count),
            "window_sum": self.window_sum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self._sorted[-1] if self._sorted else 0.0,
        }


class MetricsRegistry:
    """Create-or-lookup registry of named metrics plus event hooks."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._hooks: List[MetricHook] = []

    # ------------------------------------------------------------------
    # Metric access
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Return the named counter, creating it on first use."""
        if name not in self._counters:
            self._counters[name] = Counter(name, self._fanout)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """Return the named gauge, creating it on first use."""
        if name not in self._gauges:
            self._gauges[name] = Gauge(name, self._fanout)
        return self._gauges[name]

    def histogram(self, name: str, max_samples: int = 65536) -> Histogram:
        """Return the named histogram, creating it on first use."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, self._fanout, max_samples)
        return self._histograms[name]

    def counters(self) -> Dict[str, Counter]:
        """Return a copy of the registered counters by name."""
        return dict(self._counters)

    def gauges(self) -> Dict[str, Gauge]:
        """Return a copy of the registered gauges by name."""
        return dict(self._gauges)

    def histograms(self) -> Dict[str, Histogram]:
        """Return a copy of the registered histograms by name."""
        return dict(self._histograms)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def add_hook(self, hook: MetricHook) -> None:
        """Register a callable invoked on every metric observation."""
        self._hooks.append(hook)

    def _fanout(self, name: str, labels: Tuple[str, ...], value: float) -> None:
        for hook in self._hooks:
            hook(name, labels, value)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Return a plain-dict dump of every metric (JSON-friendly)."""
        return {
            "counters": {
                name: {",".join(labels) or "_": count
                       for labels, count in counter.cells().items()}
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: {",".join(labels) or "_": value
                       for labels, value in gauge.cells().items()}
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def render(self, title: Optional[str] = None) -> str:
        """Return a human-readable metrics report."""
        lines: List[str] = []
        if title:
            lines.append(title)
            lines.append("=" * len(title))
        for name, counter in sorted(self._counters.items()):
            for labels, count in sorted(counter.cells().items()):
                suffix = "{" + ",".join(labels) + "}" if labels else ""
                lines.append(f"{name}{suffix} {count}")
        for name, gauge in sorted(self._gauges.items()):
            for labels, value in sorted(gauge.cells().items()):
                suffix = "{" + ",".join(labels) + "}" if labels else ""
                lines.append(f"{name}{suffix} {value:g}")
        for name, histogram in sorted(self._histograms.items()):
            summary = histogram.summary()
            lines.append(
                f"{name} count={int(summary['count'])} "
                f"window={int(summary['window_count'])} "
                f"mean={summary['mean']:.6f} "
                f"p50={summary['p50']:.6f} p95={summary['p95']:.6f} "
                f"p99={summary['p99']:.6f} max={summary['max']:.6f}"
            )
        return "\n".join(lines)
