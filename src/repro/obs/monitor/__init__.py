"""Monitoring: metric streams, health, SLOs, anomaly alerts.

The consumption layer over :mod:`repro.obs` telemetry -- see
:mod:`repro.obs.monitor.monitor` for the wiring story.  Public surface:

* :class:`MetricStreams` -- windowed rate/delta/quantile views fed by
  :class:`~repro.service.metrics.MetricsRegistry` hooks;
* :class:`HealthEvaluator` / :class:`HealthReport` /
  :class:`HealthThresholds` -- derived indicators (queue saturation,
  backpressure, latency drift, and the Equation-3 efficiency-drift
  signal);
* :class:`Slo` / :class:`SloTracker` -- availability/latency objectives
  with error-budget burn rates;
* :class:`ThresholdRule` / :class:`EwmaRule` / :class:`AlertEngine` --
  declarative alerting with the pending -> firing -> resolved lifecycle;
* :class:`Monitor` / :class:`MonitorConfig` -- the composed object a
  :class:`~repro.service.service.ValidationService` accepts via
  ``monitor=``.
"""

from repro.obs.monitor.alerts import (
    ALERT_STATE_VALUES,
    AlertEngine,
    AlertRule,
    AlertTransition,
    EwmaRule,
    STATE_FIRING,
    STATE_INACTIVE,
    STATE_PENDING,
    STATE_RESOLVED,
    ThresholdRule,
)
from repro.obs.monitor.health import (
    HealthEvaluator,
    HealthReport,
    HealthThresholds,
    Indicator,
    STATUS_CRITICAL,
    STATUS_OK,
    STATUS_WARN,
)
from repro.obs.monitor.monitor import (
    Monitor,
    MonitorConfig,
    default_rules,
    default_slos,
)
from repro.obs.monitor.slo import Slo, SloStatus, SloTracker
from repro.obs.monitor.streams import MetricStreams

__all__ = [
    "ALERT_STATE_VALUES",
    "AlertEngine",
    "AlertRule",
    "AlertTransition",
    "EwmaRule",
    "HealthEvaluator",
    "HealthReport",
    "HealthThresholds",
    "Indicator",
    "MetricStreams",
    "Monitor",
    "MonitorConfig",
    "STATE_FIRING",
    "STATE_INACTIVE",
    "STATE_PENDING",
    "STATE_RESOLVED",
    "STATUS_CRITICAL",
    "STATUS_OK",
    "STATUS_WARN",
    "Slo",
    "SloStatus",
    "SloTracker",
    "ThresholdRule",
    "default_rules",
    "default_slos",
]
