"""Health indicators: grading, floors, and the Equation-3 efficiency signal."""

import pytest

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


def evaluator(streams, **kwargs):
    return HealthEvaluator(streams, **kwargs)


class TestQueueSaturation:
    def test_no_data_is_ok(self, streams):
        report = evaluator(streams, queue_capacity=100).evaluate()
        indicator = report.indicator("queue_saturation")
        assert indicator.status == STATUS_OK
        assert "no queue data" in indicator.detail

    def test_worst_shard_wins(self, streams):
        streams.observe("queue_depth", ("shard0",), 10.0)
        streams.observe("queue_depth", ("shard1",), 95.0)
        indicator = (
            evaluator(streams, queue_capacity=100)
            .evaluate()
            .indicator("queue_saturation")
        )
        assert indicator.value == pytest.approx(0.95)
        assert indicator.status == STATUS_CRITICAL
        assert "shard1" in indicator.detail

    def test_warn_band(self, streams):
        streams.observe("queue_depth", ("shard0",), 60.0)
        indicator = (
            evaluator(streams, queue_capacity=100)
            .evaluate()
            .indicator("queue_saturation")
        )
        assert indicator.status == STATUS_WARN


class TestBackpressureRate:
    def test_rate_grading(self, streams):
        for _ in range(10):  # 10 overloads / 10s window = 1.0/s
            streams.observe("overload_total", ("shard0",), 1.0)
        indicator = (
            evaluator(streams).evaluate().indicator("backpressure_rate")
        )
        assert indicator.value == pytest.approx(1.0)
        assert indicator.status == STATUS_WARN

    def test_quiet_is_ok(self, streams):
        indicator = (
            evaluator(streams).evaluate().indicator("backpressure_rate")
        )
        assert indicator.status == STATUS_OK
        assert indicator.value == 0.0


class TestLatencyDrift:
    def test_first_sample_establishes_baseline(self, streams):
        streams.observe("latency_seconds", (), 0.01)
        indicator = (
            evaluator(streams).evaluate().indicator("latency_drift")
        )
        assert indicator.status == STATUS_OK
        assert indicator.value == pytest.approx(1.0)

    def test_spike_is_judged_against_history(self, streams, clock):
        health = evaluator(streams)
        streams.observe("latency_seconds", (), 0.01)
        health.evaluate()
        # p99 jumps 10x; the slow EWMA baseline barely moved.
        for _ in range(5):
            streams.observe("latency_seconds", (), 0.1)
        indicator = health.evaluate().indicator("latency_drift")
        assert indicator.value > 5.0
        assert indicator.status == STATUS_CRITICAL

    def test_no_samples_is_ok(self, streams):
        indicator = (
            evaluator(streams).evaluate().indicator("latency_drift")
        )
        assert indicator.status == STATUS_OK
        assert "no latency samples" in indicator.detail


class TestEfficiencyRatio:
    def _admissions(self, streams, n):
        for _ in range(n):
            streams.observe("requests_total", ("accepted",), 1.0)

    def test_batched_traffic_is_ok(self, streams):
        self._admissions(streams, 100)
        streams.observe("equations_checked_total", (), 300.0)
        indicator = (
            evaluator(streams, equations_bound=31)
            .evaluate()
            .indicator("efficiency_ratio")
        )
        # 3 equations/admission over a 31-equation bound.
        assert indicator.value == pytest.approx(3 / 31)
        assert indicator.status == STATUS_OK
        assert "Eq. 3" in indicator.detail

    def test_full_pass_per_admission_is_critical(self, streams):
        self._admissions(streams, 50)
        streams.observe("equations_checked_total", (), 50 * 31.0)
        indicator = (
            evaluator(streams, equations_bound=31)
            .evaluate()
            .indicator("efficiency_ratio")
        )
        assert indicator.value == pytest.approx(1.0)
        assert indicator.status == STATUS_CRITICAL

    def test_equation_rejections_count_as_admission_decisions(self, streams):
        self._admissions(streams, 30)
        for _ in range(30):
            streams.observe("requests_total", ("rejected", "equation"), 1.0)
        streams.observe("equations_checked_total", (), 60.0)
        indicator = (
            evaluator(streams, equations_bound=10)
            .evaluate()
            .indicator("efficiency_ratio")
        )
        assert indicator.value == pytest.approx(0.1)

    def test_below_floor_is_warming_up(self, streams):
        self._admissions(streams, 2)
        streams.observe("equations_checked_total", (), 62.0)
        indicator = (
            evaluator(streams, equations_bound=31)
            .evaluate()
            .indicator("efficiency_ratio")
        )
        assert indicator.status == STATUS_OK
        assert "warming up" in indicator.detail

    def test_unknown_bound_is_ok(self, streams):
        self._admissions(streams, 100)
        indicator = (
            evaluator(streams).evaluate().indicator("efficiency_ratio")
        )
        assert indicator.status == STATUS_OK


class TestReport:
    def test_worst_status_wins(self, streams):
        streams.observe("queue_depth", ("shard0",), 95.0)
        report = evaluator(streams, queue_capacity=100).evaluate()
        assert report.status == STATUS_CRITICAL

    def test_all_quiet_is_ok(self, streams):
        report = evaluator(streams).evaluate()
        assert report.status == STATUS_OK
        assert len(report.indicators) == 4

    def test_render_and_to_dict(self, streams):
        report = evaluator(streams).evaluate()
        text = report.render()
        assert text.startswith("health: ok")
        payload = report.to_dict()
        assert payload["status"] == "ok"
        assert len(payload["indicators"]) == 4
        assert report.indicator("no_such_indicator") is None

    def test_thresholds_are_configurable(self, streams):
        streams.observe("queue_depth", ("shard0",), 30.0)
        thresholds = HealthThresholds(
            queue_saturation_warn=0.2, queue_saturation_critical=0.25
        )
        report = HealthEvaluator(
            streams, thresholds, queue_capacity=100
        ).evaluate()
        assert report.indicator("queue_saturation").status == STATUS_CRITICAL
