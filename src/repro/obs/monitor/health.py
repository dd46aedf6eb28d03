"""Derived health indicators over metric streams.

Raw counters say what happened; an operator wants to know whether the
service is *degrading*.  :class:`HealthEvaluator` condenses the stream
state into four named indicators (five when a wire front end is
configured), each graded ``ok`` / ``warn`` / ``critical`` against
configurable :class:`HealthThresholds`:

* ``queue_saturation`` -- worst per-shard queue depth relative to the
  configured queue capacity (1.0 = a shard is one request away from
  backpressure);
* ``backpressure_rate`` -- overload rejections per second inside the
  window (sustained non-zero values mean the service is shedding load);
* ``latency_drift`` -- the rolling p99 of ``latency_seconds`` relative
  to a slow EWMA baseline of itself (2.0 = p99 doubled vs. its own
  recent history);
* ``efficiency_ratio`` -- the paper-specific signal: observed
  ``equations_checked_total`` per admission decision, relative to the
  group-decomposition bound ``Σ_k (2^{N_k} - 1)`` (Equation 3's
  denominator).  Batching and incremental revalidation keep real
  traffic far below 1.0; a ratio approaching 1.0 means every admission
  is paying a full grouped revalidation pass -- the grouping gain the
  paper promises is degrading.
* ``wire_saturation`` (only when ``wire_inflight_capacity`` is set,
  i.e. an :class:`repro.net.server.AdmissionServer` is attached) --
  occupancy of the bounded wire in-flight window relative to its
  ``max_inflight`` capacity, read from the ``wire_in_flight`` gauge the
  server keeps current on every submit, flush, and admin query.  1.0
  means the next arrival gets a wire ``OVERLOADED`` error.

Indicators that cannot be computed yet (no traffic, no capacity
configured) report ``ok`` with an explanatory detail rather than
guessing.  The evaluator is deterministic given the stream state: the
only mutable piece is the EWMA latency baseline, which updates on each
:meth:`HealthEvaluator.evaluate` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs.monitor.streams import MetricStreams

__all__ = [
    "HealthEvaluator",
    "HealthReport",
    "HealthThresholds",
    "Indicator",
    "STATUS_CRITICAL",
    "STATUS_OK",
    "STATUS_WARN",
]

STATUS_OK = "ok"
STATUS_WARN = "warn"
STATUS_CRITICAL = "critical"

_STATUS_RANK = {STATUS_OK: 0, STATUS_WARN: 1, STATUS_CRITICAL: 2}


@dataclass(frozen=True)
class HealthThresholds:
    """Grading thresholds for the built-in indicators."""

    queue_saturation_warn: float = 0.5
    queue_saturation_critical: float = 0.9
    #: Overload events per second (windowed rate).
    backpressure_warn: float = 0.5
    backpressure_critical: float = 5.0
    #: p99 as a multiple of its own EWMA baseline.
    latency_drift_warn: float = 2.0
    latency_drift_critical: float = 5.0
    #: EWMA smoothing for the latency baseline.
    latency_baseline_alpha: float = 0.05
    #: Observed equations per admission over the Σ(2^N_k - 1) bound.
    efficiency_warn: float = 0.5
    efficiency_critical: float = 1.0
    #: Admission decisions needed before efficiency is graded (single
    #: un-batched requests legitimately pay near the full bound).
    efficiency_min_admissions: int = 10
    #: Wire in-flight window occupancy vs. capacity.
    wire_saturation_warn: float = 0.5
    wire_saturation_critical: float = 0.9


@dataclass(frozen=True)
class Indicator:
    """One graded health signal."""

    name: str
    status: str
    value: float
    detail: str

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly dict."""
        return {
            "name": self.name,
            "status": self.status,
            "value": self.value,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class HealthReport:
    """All indicators plus the worst status across them."""

    status: str
    indicators: Tuple[Indicator, ...]

    def indicator(self, name: str) -> Optional[Indicator]:
        """Return one indicator by name (``None`` if absent)."""
        for indicator in self.indicators:
            if indicator.name == name:
                return indicator
        return None

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly dict."""
        return {
            "status": self.status,
            "indicators": [ind.to_dict() for ind in self.indicators],
        }

    def render(self) -> str:
        """Return a terse human-readable table."""
        lines = [f"health: {self.status}"]
        for ind in self.indicators:
            lines.append(
                f"  [{ind.status:8s}] {ind.name}: {ind.value:.4g}  ({ind.detail})"
            )
        return "\n".join(lines)


def _grade_high(value: float, warn: float, critical: float) -> str:
    """Grade a higher-is-worse value."""
    if value >= critical:
        return STATUS_CRITICAL
    if value >= warn:
        return STATUS_WARN
    return STATUS_OK


class HealthEvaluator:
    """Compute the built-in indicator set from a :class:`MetricStreams`.

    Parameters
    ----------
    streams:
        The windowed stream state to read.
    thresholds:
        Grading configuration.
    queue_capacity:
        Per-shard queue bound (``None`` when unknown -- the saturation
        indicator reports ok/no-data).
    equations_bound:
        The pool's ``Σ_k (2^{N_k} - 1)`` grouped-equation bound (``None``
        when unknown).
    wire_inflight_capacity:
        The wire server's ``max_inflight`` window bound.  ``None`` (no
        wire front end) leaves the indicator set at the base four;
        setting it adds the ``wire_saturation`` indicator.
    """

    def __init__(
        self,
        streams: MetricStreams,
        thresholds: Optional[HealthThresholds] = None,
        *,
        queue_capacity: Optional[int] = None,
        equations_bound: Optional[int] = None,
        wire_inflight_capacity: Optional[int] = None,
    ):
        self.streams = streams
        self.thresholds = thresholds or HealthThresholds()
        self.queue_capacity = queue_capacity
        self.equations_bound = equations_bound
        self.wire_inflight_capacity = wire_inflight_capacity
        #: EWMA baseline of the rolling p99 (None until first sample).
        self._latency_baseline: Optional[float] = None

    # ------------------------------------------------------------------
    # Individual indicators
    # ------------------------------------------------------------------
    def _queue_saturation(self) -> Indicator:
        thresholds = self.thresholds
        depths = self.streams.last_by_labels("queue_depth")
        if self.queue_capacity is None or not depths:
            return Indicator(
                "queue_saturation", STATUS_OK, 0.0,
                "no queue data in window",
            )
        worst_labels, worst = max(
            depths.items(), key=lambda item: (item[1], item[0])
        )
        value = worst / self.queue_capacity
        return Indicator(
            "queue_saturation",
            _grade_high(
                value,
                thresholds.queue_saturation_warn,
                thresholds.queue_saturation_critical,
            ),
            value,
            f"depth {worst:g}/{self.queue_capacity} on "
            f"{','.join(worst_labels) or 'default'}",
        )

    def _backpressure_rate(self) -> Indicator:
        thresholds = self.thresholds
        rate = self.streams.rate("overload_total")
        return Indicator(
            "backpressure_rate",
            _grade_high(
                rate, thresholds.backpressure_warn,
                thresholds.backpressure_critical,
            ),
            rate,
            f"{self.streams.delta('overload_total'):g} overload(s) in "
            f"{self.streams.window:g}s window",
        )

    def _latency_drift(self) -> Indicator:
        thresholds = self.thresholds
        p99 = self.streams.quantile("latency_seconds", 0.99)
        if not self.streams.values("latency_seconds"):
            return Indicator(
                "latency_drift", STATUS_OK, 1.0, "no latency samples in window"
            )
        if self._latency_baseline is None:
            self._latency_baseline = p99
        baseline = self._latency_baseline
        drift = p99 / baseline if baseline > 0 else 1.0
        # Update the slow baseline *after* grading, so a sudden spike is
        # judged against history rather than against itself.
        alpha = thresholds.latency_baseline_alpha
        self._latency_baseline = baseline + alpha * (p99 - baseline)
        return Indicator(
            "latency_drift",
            _grade_high(
                drift,
                thresholds.latency_drift_warn,
                thresholds.latency_drift_critical,
            ),
            drift,
            f"p99 {p99 * 1e3:.3f}ms vs baseline {baseline * 1e3:.3f}ms",
        )

    def _efficiency_ratio(self) -> Indicator:
        thresholds = self.thresholds
        checked = self.streams.delta("equations_checked_total")
        admissions = self.streams.delta(
            "requests_total", ("accepted",)
        ) + self.streams.delta("requests_total", ("rejected", "equation"))
        if self.equations_bound is None or admissions == 0:
            return Indicator(
                "efficiency_ratio", STATUS_OK, 0.0,
                "no admission decisions in window",
            )
        per_admission = checked / admissions
        if admissions < thresholds.efficiency_min_admissions:
            return Indicator(
                "efficiency_ratio", STATUS_OK,
                per_admission / self.equations_bound,
                f"warming up: {admissions:g} admission(s) < "
                f"{thresholds.efficiency_min_admissions} floor",
            )
        value = per_admission / self.equations_bound
        return Indicator(
            "efficiency_ratio",
            _grade_high(
                value, thresholds.efficiency_warn,
                thresholds.efficiency_critical,
            ),
            value,
            f"{per_admission:.1f} eq/admission vs grouped bound "
            f"{self.equations_bound} (Eq. 3)",
        )

    def _wire_saturation(self) -> Indicator:
        thresholds = self.thresholds
        capacity = self.wire_inflight_capacity
        assert capacity is not None  # evaluate() only calls when set
        in_flight = self.streams.last("wire_in_flight")
        if in_flight is None:
            return Indicator(
                "wire_saturation", STATUS_OK, 0.0,
                "no wire data in window",
            )
        value = in_flight / capacity
        return Indicator(
            "wire_saturation",
            _grade_high(
                value,
                thresholds.wire_saturation_warn,
                thresholds.wire_saturation_critical,
            ),
            value,
            f"{in_flight:g}/{capacity} request(s) in the wire window",
        )

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def evaluate(self) -> HealthReport:
        """Compute every indicator and the worst overall status.

        The wire-saturation indicator only joins the set when a wire
        capacity is configured, so file-sink deployments keep the exact
        four-indicator surface their golden reports pin down.
        """
        indicators = (
            self._queue_saturation(),
            self._backpressure_rate(),
            self._latency_drift(),
            self._efficiency_ratio(),
        )
        if self.wire_inflight_capacity is not None:
            indicators = indicators + (self._wire_saturation(),)
        worst = max(
            (ind.status for ind in indicators), key=_STATUS_RANK.__getitem__
        )
        return HealthReport(worst, indicators)
