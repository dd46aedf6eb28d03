"""Monitor end-to-end: service wiring, journaled alerts, determinism.

The two acceptance properties of the monitoring layer:

* **out-of-band** -- verdict streams are byte-identical with a monitor
  attached or ``monitor=None``;
* **deterministic** -- replaying the same metric sequence through two
  fresh monitors (injected clocks) produces byte-identical alert
  timelines, EWMA anomaly rules included.
"""

import json

import pytest

from repro.errors import ServiceError
from repro.obs.events import EVENT_ALERT, EventLog
from repro.obs.monitor import (
    EwmaRule,
    Monitor,
    MonitorConfig,
    Slo,
    ThresholdRule,
)
from repro.service import ServiceConfig, ValidationService
from repro.service.metrics import MetricsRegistry
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator

from tests.obs.test_streams import FakeClock


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(
        n_licenses=16,
        seed=3,
        n_records=0,
        target_groups=4,
        aggregate_range=(300, 900),
    )
    generator = WorkloadGenerator(config)
    pool = generator.generate_pool()
    stream = tuple(generator.issue_stream(pool, 200))
    return pool, stream


def _signature(outcome):
    return (
        outcome.usage_id,
        outcome.count,
        tuple(outcome.license_set),
        outcome.accepted,
        outcome.rejection_reason,
        outcome.rejection_detail,
    )


class TestServiceWiring:
    def test_verdicts_identical_with_and_without_monitor(self, workload):
        pool, stream = workload
        with ValidationService(
            pool, ServiceConfig(shards=2, batch_size=16)
        ) as plain:
            baseline = [_signature(o) for o in plain.process(stream)]
        with ValidationService(
            pool, ServiceConfig(shards=2, batch_size=16), monitor=Monitor()
        ) as monitored:
            observed = [_signature(o) for o in monitored.process(stream)]
        assert observed == baseline

    def test_monitor_ticks_once_per_drain(self, workload):
        pool, stream = workload
        monitor = Monitor()
        with ValidationService(pool, monitor=monitor) as service:
            service.process(stream)
            drained_ticks = monitor.ticks
            assert drained_ticks >= 1
            service.drain()
            assert monitor.ticks == drained_ticks + 1

    def test_monitor_cannot_attach_twice(self, workload):
        pool, _stream = workload
        monitor = Monitor()
        with ValidationService(pool, monitor=monitor):
            with pytest.raises(ServiceError):
                ValidationService(pool, monitor=monitor)

    def test_tick_before_attach_raises(self):
        with pytest.raises(ServiceError):
            Monitor().tick()

    def test_monitor_state_lands_in_registry_gauges(self, workload):
        pool, stream = workload
        monitor = Monitor()
        with ValidationService(pool, monitor=monitor) as service:
            service.process(stream)
            gauge = service.metrics.gauge("alert_state")
            assert ("queue-saturation",) in gauge.cells()
            compliance = service.metrics.gauge("slo_compliance")
            assert compliance.value(("availability",)) == 1.0
            gauges = service.metrics.snapshot()["gauges"]
            assert not [name for name in gauges if "match_cache" in name]

    def test_service_exposes_group_sizes_and_cache_stats(self, workload):
        pool, stream = workload
        with ValidationService(pool) as service:
            sizes = service.group_sizes
            assert len(sizes) == service.group_count
            assert sum(sizes) == len(pool)
            service.process(stream)
            # No match cache: every request is matched afresh.
            assert service.match_cache_stats() == (0, 0, 0)

    def test_snapshot_and_report_cover_all_layers(self, workload):
        pool, stream = workload
        monitor = Monitor()
        with ValidationService(pool, monitor=monitor) as service:
            service.process(stream)
        snapshot = monitor.snapshot()
        assert snapshot["ticks"] == monitor.ticks
        assert {i["name"] for i in snapshot["indicators"]} == {
            "queue_saturation", "backpressure_rate", "latency_drift",
            "efficiency_ratio",
        }
        assert snapshot["slos"][0]["name"] == "availability"
        assert set(snapshot["alerts"]) == {
            "queue-saturation", "backpressure", "efficiency-degraded",
            "availability-burn", "latency-anomaly",
        }
        text = monitor.report()
        assert "health:" in text
        assert "slos:" in text
        assert "alerts:" in text

    def test_generator_stream_grades_healthy(self, workload):
        # The generator draws a fresh box per request, the traffic the
        # paper's section 5 describes; nothing in it is degraded.
        pool, stream = workload
        monitor = Monitor()
        with ValidationService(pool, monitor=monitor) as service:
            service.process(stream)
        indicators = {
            entry["name"]: entry["status"]
            for entry in monitor.snapshot()["indicators"]
        }
        assert set(indicators) == {
            "queue_saturation", "backpressure_rate", "latency_drift",
            "efficiency_ratio",
        }
        # latency_drift grades wall-clock p99 drift, which no test pins.
        del indicators["latency_drift"]
        assert set(indicators.values()) == {"ok"}


def _scripted_replay(events_path=None):
    """Replay one scripted metric sequence through a fresh monitor.

    The sequence drives every alert kind: queue saturation crosses its
    threshold (threshold rule), latency spikes after a steady baseline
    (EWMA rule), and then everything recovers.  Returns the monitor.
    """
    clock = FakeClock()
    config = MonitorConfig(
        window=30.0,
        rules=(
            ThresholdRule("queue-hot", "queue_saturation", threshold=0.8),
            ThresholdRule(
                "slow-burn", "slo_burn:availability", threshold=1.0,
                for_seconds=2.0,
            ),
            EwmaRule(
                "latency-anomaly", "p99:latency_seconds",
                z_threshold=4.0, warmup=3,
            ),
        ),
        slos=(Slo("availability", objective=0.99),),
    )
    events = EventLog(events_path) if events_path else None
    monitor = Monitor(config, clock=clock, events=events)
    registry = MetricsRegistry()
    monitor.attach_registry(registry, queue_capacity=100, equations_bound=31)

    jitter = [0.010, 0.011, 0.009, 0.010, 0.011, 0.009, 0.010, 0.011]
    for step in range(24):
        registry.counter("requests_total").inc(("accepted",))
        registry.gauge("queue_depth").set(
            90.0 if 8 <= step < 14 else 10.0, ("shard0",)
        )
        if 10 <= step < 16:
            registry.counter("overload_total").inc(("shard0",))
        registry.histogram("latency_seconds").observe(
            0.5 if step == 18 else jitter[step % len(jitter)]
        )
        monitor.tick()
        clock.advance(1.0)
    return monitor


class TestDeterministicTimelines:
    def test_replay_produces_byte_identical_timelines(self):
        first = _scripted_replay()
        second = _scripted_replay()
        encode = lambda monitor: json.dumps(
            [t.to_dict() for t in monitor.timeline()], sort_keys=True
        )
        assert encode(first) == encode(second)
        assert encode(first).encode("utf-8") == encode(second).encode("utf-8")
        assert json.dumps(first.snapshot(), sort_keys=True) == json.dumps(
            second.snapshot(), sort_keys=True
        )

    def test_scripted_sequence_exercises_every_lifecycle_stage(self):
        monitor = _scripted_replay()
        moves = {
            (t.rule, t.from_state, t.to_state) for t in monitor.timeline()
        }
        assert ("queue-hot", "inactive", "pending") in moves
        assert ("queue-hot", "pending", "firing") in moves
        assert ("queue-hot", "firing", "resolved") in moves
        assert ("slow-burn", "pending", "firing") in moves
        assert ("latency-anomaly", "pending", "firing") in moves
        assert ("latency-anomaly", "firing", "resolved") in moves

    def test_alert_transitions_are_journaled(self, tmp_path):
        path = tmp_path / "events.jsonl"
        monitor = _scripted_replay(str(path))
        monitor.events.close()
        journaled = [
            event for event in EventLog.iter_file(str(path))
            if event["kind"] == EVENT_ALERT
        ]
        assert len(journaled) == len(monitor.timeline())
        for event, transition in zip(journaled, monitor.timeline()):
            assert event["rule"] == transition.rule
            assert event["to_state"] == transition.to_state
            assert event["at"] == transition.at

    def test_counter_tracks_transitions(self):
        monitor = _scripted_replay()
        registry = monitor._registry
        total = registry.counter("alert_transitions_total").total()
        assert total == len(monitor.timeline())
