"""Wire-layer observability: saturation indicator, event ingest, summaries."""

import pytest

from repro.obs.export import summarize_events
from repro.obs.monitor import (
    HealthEvaluator,
    HealthThresholds,
    MetricStreams,
    STATUS_CRITICAL,
    STATUS_OK,
    STATUS_WARN,
)

from tests.obs.test_streams import FakeClock


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def streams(clock):
    return MetricStreams(window=10.0, clock=clock)


class TestWireSaturationIndicator:
    def test_absent_without_capacity(self, streams):
        report = HealthEvaluator(streams).evaluate()
        assert report.indicator("wire_saturation") is None
        assert len(report.indicators) == 4

    def test_present_with_capacity(self, streams):
        report = HealthEvaluator(streams, wire_inflight_capacity=64).evaluate()
        indicator = report.indicator("wire_saturation")
        assert indicator is not None
        assert len(report.indicators) == 5
        assert indicator.status == STATUS_OK
        assert "no wire data" in indicator.detail

    def test_grading_bands(self, streams):
        evaluator = HealthEvaluator(streams, wire_inflight_capacity=100)
        streams.observe("wire_in_flight", (), 10.0)
        assert (
            evaluator.evaluate().indicator("wire_saturation").status
            == STATUS_OK
        )
        streams.observe("wire_in_flight", (), 60.0)
        assert (
            evaluator.evaluate().indicator("wire_saturation").status
            == STATUS_WARN
        )
        streams.observe("wire_in_flight", (), 95.0)
        indicator = evaluator.evaluate().indicator("wire_saturation")
        assert indicator.status == STATUS_CRITICAL
        assert indicator.value == pytest.approx(0.95)
        assert "95/100" in indicator.detail

    def test_thresholds_configurable(self, streams):
        thresholds = HealthThresholds(
            wire_saturation_warn=0.1, wire_saturation_critical=0.2
        )
        evaluator = HealthEvaluator(
            streams, thresholds=thresholds, wire_inflight_capacity=100
        )
        streams.observe("wire_in_flight", (), 15.0)
        assert (
            evaluator.evaluate().indicator("wire_saturation").status
            == STATUS_WARN
        )

    def test_scripted_timeline_is_deterministic(self, clock):
        """The same scripted gauge timeline yields byte-identical reports."""

        def run():
            timeline_clock = FakeClock()
            timeline_streams = MetricStreams(window=10.0, clock=timeline_clock)
            evaluator = HealthEvaluator(
                timeline_streams, wire_inflight_capacity=32
            )
            snapshots = []
            for step, in_flight in enumerate([0, 8, 20, 31, 4]):
                timeline_clock.advance(1.0)
                timeline_streams.observe("wire_in_flight", (), float(in_flight))
                report = evaluator.evaluate()
                snapshots.append(
                    (step, report.indicator("wire_saturation").to_dict())
                )
            return snapshots

        first, second = run(), run()
        assert first == second
        statuses = [entry["status"] for _step, entry in first]
        assert statuses == ["ok", "ok", "warn", "critical", "ok"]
        # The window makes the indicator *current*: after the last
        # observation ages out, the indicator reports no data, not the
        # stale critical value.
        timeline_clock = FakeClock()
        timeline_streams = MetricStreams(window=10.0, clock=timeline_clock)
        evaluator = HealthEvaluator(timeline_streams, wire_inflight_capacity=32)
        timeline_streams.observe("wire_in_flight", (), 31.0)
        timeline_clock.advance(11.0)
        indicator = evaluator.evaluate().indicator("wire_saturation")
        assert indicator.status == STATUS_OK
        assert "no wire data" in indicator.detail


class TestStreamEventIngest:
    def test_wire_kinds_map_to_cells(self, streams, clock):
        events = [
            {"kind": "conn_open", "peer": "127.0.0.1:1"},
            {"kind": "conn_open", "peer": "127.0.0.1:2"},
            {"kind": "conn_close", "peer": "127.0.0.1:1", "requests": 7},
            {"kind": "drain", "in_flight_flushed": 5},
            {"kind": "admission", "seq": 0},  # not a wire kind
        ]
        assert streams.ingest_events(events) == 4
        assert streams.delta("wire_conn_events", ("conn_open",)) == 2.0
        assert streams.delta("wire_conn_events", ("conn_close",)) == 1.0
        assert streams.delta("wire_drain_flushed") == 5.0

    def test_unknown_kind_is_ignored(self, streams):
        assert streams.ingest_event({"kind": "epoch_change"}) is False
        assert streams.points("wire_conn_events") == []


class TestEventSummaryWireSection:
    def test_wire_section_renders(self):
        events = [
            {"kind": "conn_open", "peer": "p1"},
            {"kind": "conn_open", "peer": "p2"},
            {"kind": "conn_close", "peer": "p1", "requests": 12},
            {"kind": "conn_close", "peer": "p2", "requests": 3},
            {"kind": "drain", "in_flight_flushed": 4},
            {"kind": "rejection", "reason": "aggregate"},
        ]
        text = summarize_events(events)
        assert "wire:" in text
        assert "connections: 2 opened, 2 closed" in text
        assert "requests on closed connections: 15" in text
        assert "drains: 1 (4 in-flight flushed)" in text
        assert "aggregate: 1" in text

    def test_no_wire_events_no_section(self):
        text = summarize_events([{"kind": "admission"}])
        assert "wire:" not in text
