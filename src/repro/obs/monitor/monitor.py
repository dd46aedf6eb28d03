"""The monitor: streams + health + SLOs + alerts behind one object.

:class:`Monitor` is the deterministic consumption layer over the metrics
and events PR 2 taught the pipeline to emit.  Hand one to a
:class:`~repro.service.service.ValidationService` via ``monitor=`` and:

1. **attach** -- the monitor subscribes its :class:`MetricStreams` to the
   service's registry hooks and captures the service-derived constants
   the indicators need (queue capacity and the pool's
   ``Σ_k (2^{N_k} - 1)`` grouped-equation bound);
2. **tick** -- after every drain the service calls :meth:`tick`, which
   (a) evaluates the health indicators and SLO trackers, (b) builds the
   *signal map* and runs the alert engine, (c) appends every alert
   transition to the structured event journal (kind ``alert``) and
   mirrors rule states / SLO grades into registry gauges, so the
   regular Prometheus/JSON exporters carry the full monitoring picture
   with zero extra wiring;
3. **report** -- :meth:`snapshot` (JSON-friendly), :meth:`report`
   (human), :meth:`timeline` (every alert transition so far, the object
   the byte-identical determinism tests compare).

Signal names available to alert rules (the ``source`` field):

* indicator values: ``queue_saturation``, ``backpressure_rate``,
  ``latency_drift``, ``efficiency_ratio`` (and ``wire_saturation``
  behind a wire server);
* SLO grades: ``slo_burn:<name>`` and ``slo_compliance:<name>``;
* raw stream views: ``rate:<metric>``, ``delta:<metric>``,
  ``last:<metric>``, ``p50:<metric>`` / ``p95:<metric>`` /
  ``p99:<metric>`` / ``mean:<metric>``.

Everything is strictly out-of-band: the monitor never touches admission
state, so verdict streams are byte-identical with ``monitor=`` set or
``None`` (pinned by the obs test suite), and the ``monitor=None`` hot
path costs a single ``is None`` branch (pinned by
``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.obs.events import EVENT_ALERT, EventLog
from repro.obs.monitor.alerts import (
    ALERT_STATE_VALUES,
    AlertEngine,
    AlertRule,
    AlertTransition,
    EwmaRule,
    ThresholdRule,
)
from repro.obs.monitor.health import (
    HealthEvaluator,
    HealthReport,
    HealthThresholds,
    STATUS_OK,
)
from repro.obs.monitor.slo import Slo, SloStatus, SloTracker
from repro.obs.monitor.streams import MetricStreams

__all__ = ["Monitor", "MonitorConfig", "default_rules", "default_slos"]


def default_slos() -> Tuple[Slo, ...]:
    """The stock objective set: 99.9% admission availability."""
    return (Slo("availability", objective=0.999, kind="availability"),)


def default_rules() -> Tuple[AlertRule, ...]:
    """The stock rule set over the built-in indicators and SLOs."""
    return (
        ThresholdRule(
            "queue-saturation", source="queue_saturation", threshold=0.9
        ),
        ThresholdRule(
            "backpressure", source="backpressure_rate", threshold=0.5
        ),
        ThresholdRule(
            "efficiency-degraded", source="efficiency_ratio", threshold=1.0
        ),
        ThresholdRule(
            "availability-burn", source="slo_burn:availability", threshold=1.0
        ),
        EwmaRule("latency-anomaly", source="p99:latency_seconds"),
    )


@dataclass(frozen=True)
class MonitorConfig:
    """Tuning knobs of a :class:`Monitor`.

    ``slos``/``rules`` default to :func:`default_slos` /
    :func:`default_rules`; pass empty tuples to disable either layer.
    """

    window: float = 60.0
    max_points: int = 8192
    thresholds: HealthThresholds = field(default_factory=HealthThresholds)
    slos: Tuple[Slo, ...] = field(default_factory=default_slos)
    rules: Tuple[AlertRule, ...] = field(default_factory=default_rules)

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ServiceError(f"window must be > 0, got {self.window}")


class Monitor:
    """Deterministic health/SLO/alert evaluation over one registry.

    Parameters
    ----------
    config:
        Window length, thresholds, SLOs, alert rules.
    clock:
        Monotonic clock shared by the streams and the alert engine;
        injectable so two runs over the same metric sequence produce
        byte-identical alert timelines.
    events:
        Optional :class:`~repro.obs.events.EventLog` for alert
        transitions.  When omitted, :meth:`attach` adopts the service's
        journal (if the service has one).

    Examples
    --------
    >>> from repro.workloads.scenarios import example1
    >>> from repro.service.service import ValidationService
    >>> scenario = example1()
    >>> monitor = Monitor()
    >>> service = ValidationService(scenario.pool, monitor=monitor)
    >>> [service.issue(usage).accepted for usage in scenario.usages]
    [True, True]
    >>> monitor.health().status
    'ok'
    """

    def __init__(
        self,
        config: Optional[MonitorConfig] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        events: Optional[EventLog] = None,
    ):
        self.config = config or MonitorConfig()
        self._clock = clock
        self.events = events
        self.streams = MetricStreams(
            window=self.config.window,
            clock=clock,
            max_points=self.config.max_points,
        )
        self._engine = AlertEngine(self.config.rules)
        self._slo_tracker = SloTracker(self.config.slos, self.streams)
        self._evaluator = HealthEvaluator(
            self.streams, self.config.thresholds
        )
        self._registry = None
        self._timeline: List[AlertTransition] = []
        self._last_health: Optional[HealthReport] = None
        self._last_slos: List[SloStatus] = []
        self.ticks = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach_registry(
        self,
        registry,
        *,
        queue_capacity: Optional[int] = None,
        equations_bound: Optional[int] = None,
        events: Optional[EventLog] = None,
        wire_inflight_capacity: Optional[int] = None,
    ) -> None:
        """Subscribe to a registry and set service-derived constants.

        Usable standalone (tests, replaying recorded metric sequences);
        :meth:`attach` is the service-facing wrapper.
        """
        if self._registry is not None:
            raise ServiceError("monitor is already attached")
        self.streams.attach(registry)
        self._registry = registry
        self._evaluator.queue_capacity = queue_capacity
        self._evaluator.equations_bound = equations_bound
        if wire_inflight_capacity is not None:
            self._evaluator.wire_inflight_capacity = wire_inflight_capacity
        if self.events is None and events is not None:
            self.events = events

    def set_wire_capacity(self, capacity: Optional[int]) -> None:
        """Configure (or clear) the wire in-flight window capacity.

        Called by :class:`repro.net.server.AdmissionServer` when it
        fronts the monitored service; enables the ``wire_saturation``
        health indicator.  Safe before or after attachment -- the
        capacity is a grading constant, not a stream subscription.
        """
        self._evaluator.wire_inflight_capacity = capacity
        self._last_health = None

    def attach(self, service) -> None:
        """Attach to a :class:`ValidationService` (called by its ctor)."""
        from repro.core.gain import equations_with_grouping

        self.attach_registry(
            service.metrics,
            queue_capacity=service.config.queue_capacity,
            equations_bound=equations_with_grouping(service.group_sizes),
            events=service.events,
        )

    @property
    def attached(self) -> bool:
        """Return whether :meth:`attach_registry` has run."""
        return self._registry is not None

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _signal(self, source: str) -> Optional[float]:
        """Resolve a raw-stream signal (``rate:metric`` etc.)."""
        if ":" not in source:
            return None
        view, metric = source.split(":", 1)
        if view == "rate":
            return self.streams.rate(metric)
        if view == "delta":
            return self.streams.delta(metric)
        if view == "last":
            return self.streams.last(metric)
        if view == "mean":
            return self.streams.mean(metric)
        if view in ("p50", "p95", "p99"):
            if not self.streams.values(metric):
                return None
            return self.streams.quantile(metric, int(view[1:]) / 100.0)
        return None

    def _signals(
        self, health: HealthReport, slo_statuses: List[SloStatus]
    ) -> Dict[str, float]:
        signals: Dict[str, float] = {
            indicator.name: indicator.value
            for indicator in health.indicators
        }
        for status in slo_statuses:
            signals[f"slo_burn:{status.name}"] = status.burn_rate
            signals[f"slo_compliance:{status.name}"] = status.compliance
        for rule in self.config.rules:
            if rule.source not in signals:
                value = self._signal(rule.source)
                if value is not None:
                    signals[rule.source] = value
        return signals

    def tick(self) -> List[AlertTransition]:
        """Run one evaluation pass; return the alert transitions it
        produced (also journaled and gauged -- see module docstring)."""
        if self._registry is None:
            raise ServiceError("monitor.tick() before attach")
        registry = self._registry
        health = self._evaluator.evaluate()
        slo_statuses = self._slo_tracker.evaluate()
        now = self._clock()
        transitions = self._engine.evaluate(
            self._signals(health, slo_statuses), now
        )
        for transition in transitions:
            registry.counter("alert_transitions_total").inc(
                (transition.rule, transition.to_state)
            )
            if self.events is not None:
                self.events.emit(EVENT_ALERT, **transition.to_dict())
        for rule_name, state in sorted(self._engine.states().items()):
            registry.gauge("alert_state").set(
                ALERT_STATE_VALUES[state], (rule_name,)
            )
        for status in slo_statuses:
            registry.gauge("slo_compliance").set(
                status.compliance, (status.name,)
            )
            registry.gauge("slo_burn_rate").set(
                status.burn_rate, (status.name,)
            )
        self._timeline.extend(transitions)
        self._last_health = health
        self._last_slos = slo_statuses
        self.ticks += 1
        return transitions

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def health(self) -> HealthReport:
        """Return the latest health report (evaluating once if needed)."""
        if self._last_health is None:
            self._last_health = self._evaluator.evaluate()
        return self._last_health

    def slo_statuses(self) -> List[SloStatus]:
        """Return the latest SLO grades (evaluating once if needed)."""
        if not self._last_slos and self.config.slos:
            self._last_slos = self._slo_tracker.evaluate()
        return list(self._last_slos)

    def alert_states(self) -> Dict[str, str]:
        """Return ``{rule name: lifecycle state}``."""
        return self._engine.states()

    def timeline(self) -> List[AlertTransition]:
        """Return every alert transition observed so far, in order."""
        return list(self._timeline)

    def snapshot(self) -> Dict[str, object]:
        """Return the full monitor state as a JSON-friendly dict."""
        health = self.health()
        return {
            "status": health.status,
            "ticks": self.ticks,
            "indicators": [ind.to_dict() for ind in health.indicators],
            "slos": [status.to_dict() for status in self.slo_statuses()],
            "alerts": dict(sorted(self.alert_states().items())),
            "transitions": [t.to_dict() for t in self._timeline],
        }

    def report(self) -> str:
        """Return a human-readable monitoring report."""
        lines = [self.health().render()]
        statuses = self.slo_statuses()
        if statuses:
            lines.append("slos:")
            for status in statuses:
                verdict = "met" if status.met else "VIOLATED"
                lines.append(
                    f"  [{verdict:8s}] {status.name} ({status.kind}): "
                    f"compliance {status.compliance:.6f} vs objective "
                    f"{status.objective:.6f}, burn {status.burn_rate:.3f} "
                    f"over {status.events:g} event(s)"
                )
        states = self.alert_states()
        if states:
            lines.append("alerts:")
            for rule_name in sorted(states):
                lines.append(f"  [{states[rule_name]:8s}] {rule_name}")
        firing = sum(1 for s in states.values() if s == "firing")
        lines.append(
            f"{self.ticks} tick(s), {len(self._timeline)} transition(s), "
            f"{firing} firing"
        )
        return "\n".join(lines)
