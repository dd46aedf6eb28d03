"""Unit tests for the service metrics registry."""

import pytest

from repro.errors import ServiceError
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_unlabelled_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc()
        counter.inc(amount=4)
        assert counter.value() == 5
        assert counter.total() == 5

    def test_labelled_cells_are_independent(self):
        counter = MetricsRegistry().counter("requests_total")
        counter.inc(("accepted",))
        counter.inc(("rejected", "instance"), 2)
        counter.inc(("rejected", "equation"))
        assert counter.value(("accepted",)) == 1
        assert counter.value(("rejected", "instance")) == 2
        assert counter.total() == 4
        assert counter.cells() == {
            ("accepted",): 1,
            ("rejected", "instance"): 2,
            ("rejected", "equation"): 1,
        }

    def test_never_incremented_cell_reads_zero(self):
        counter = MetricsRegistry().counter("overload_total")
        assert counter.value(("shard0",)) == 0
        assert counter.total() == 0

    def test_negative_amount_rejected(self):
        counter = MetricsRegistry().counter("requests_total")
        with pytest.raises(ServiceError):
            counter.inc(amount=-1)


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("queue_depth")
        gauge.set(7, ("shard0",))
        gauge.set(3, ("shard0",))
        gauge.set(12, ("shard1",))
        assert gauge.value(("shard0",)) == 3
        assert gauge.value(("shard1",)) == 12
        assert gauge.value(("shard9",)) == 0.0


class TestHistogram:
    def test_quantiles_nearest_rank(self):
        hist = MetricsRegistry().histogram("latency_seconds")
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.quantile(0.50) == 50.0
        assert hist.quantile(0.95) == 95.0
        assert hist.quantile(0.99) == 99.0
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 100.0

    def test_empty_histogram_quantile_is_zero(self):
        hist = MetricsRegistry().histogram("latency_seconds")
        assert hist.quantile(0.5) == 0.0
        assert hist.summary()["p99"] == 0.0

    def test_quantile_outside_unit_interval_rejected(self):
        hist = MetricsRegistry().histogram("latency_seconds")
        with pytest.raises(ServiceError):
            hist.quantile(1.5)

    def test_sliding_window_evicts_oldest(self):
        hist = MetricsRegistry().histogram("small", max_samples=3)
        for value in (10.0, 1.0, 2.0, 3.0):
            hist.observe(value)
        # The window holds the last three samples; 10.0 was evicted, so
        # the max quantile reflects the window, not all time.
        assert hist.quantile(1.0) == 3.0
        # Count and sum stay all-time; the window scope is reported
        # separately so the two can never be confused.
        summary = hist.summary()
        assert summary["count"] == 4.0
        assert summary["sum"] == 16.0
        assert summary["window_count"] == 3.0
        assert summary["window_sum"] == 6.0

    def test_summary_shape(self):
        hist = MetricsRegistry().histogram("latency_seconds")
        hist.observe(0.25)
        summary = hist.summary()
        assert set(summary) == {
            "count", "sum", "mean", "window_count", "window_sum",
            "p50", "p95", "p99", "max",
        }
        assert summary["mean"] == 0.25
        assert summary["max"] == 0.25
        # Window not yet overflowed: the two scopes coincide.
        assert summary["window_count"] == summary["count"]
        assert summary["window_sum"] == summary["sum"]

    def test_summary_scopes_diverge_after_window_overflow(self):
        """Regression: max/quantiles were window-scoped while count/sum
        were all-time, with nothing in the summary saying so.  With
        ``max_samples`` smaller than the sample count the summary must
        report both scopes explicitly and keep them self-consistent."""
        hist = MetricsRegistry().histogram("windowed", max_samples=4)
        for value in range(1, 11):  # 1..10; window ends as {7, 8, 9, 10}
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == 10.0
        assert summary["sum"] == 55.0
        assert summary["mean"] == 5.5
        assert summary["window_count"] == 4.0
        assert summary["window_sum"] == 34.0
        # Quantiles and max are window-scoped: 10 is the window max, and
        # nothing below 7 can appear in any quantile.
        assert summary["max"] == 10.0
        assert summary["p50"] >= 7.0
        assert hist.quantile(0.0) == 7.0

    def test_max_samples_validated(self):
        with pytest.raises(ServiceError):
            MetricsRegistry().histogram("bad", max_samples=0)

    def test_window_eviction_is_constant_time(self):
        """Regression: eviction must overwrite a ring slot, not pop a
        list head.

        ``list.pop(0)`` on the insertion-order buffer made every observe
        beyond the window O(window).  The structural check (the buffer
        really is a fixed-size float64 ring whose oldest slot is
        overwritten in O(1)) is what pins the fix; the behavioural sweep
        alongside it proves eviction order survived the data-structure
        swap.
        """
        from array import array

        hist = MetricsRegistry().histogram("windowed", max_samples=5)
        assert isinstance(hist._ring, array) and hist._ring.typecode == "d"
        assert isinstance(hist._sorted, array)
        for value in range(100):
            hist.observe(float(value))
        # Window holds exactly the 5 newest samples, in order.
        assert len(hist._ring) == 5
        ring = list(hist._ring)
        window = ring[hist._head:] + ring[: hist._head]
        assert window == [95.0, 96.0, 97.0, 98.0, 99.0]
        assert list(hist._sorted) == [95.0, 96.0, 97.0, 98.0, 99.0]
        assert hist.quantile(0.0) == 95.0
        assert hist.quantile(1.0) == 99.0
        assert hist.summary()["count"] == 100.0

    def test_ring_wraps_mid_buffer(self):
        """A sample count that is not a multiple of the window leaves the
        ring's oldest slot mid-buffer; the window must still be the
        newest samples."""
        hist = MetricsRegistry().histogram("wrapped", max_samples=5)
        for value in range(7):
            hist.observe(float(value))
        assert hist.window_count == 5
        assert hist.window_sum == 20.0
        assert list(hist._sorted) == [2.0, 3.0, 4.0, 5.0, 6.0]
        assert hist.quantile(0.0) == 2.0

    def test_window_eviction_with_duplicate_samples(self):
        """Duplicates: evicting one copy must leave the others counted."""
        hist = MetricsRegistry().histogram("dups", max_samples=3)
        for value in (7.0, 7.0, 7.0, 1.0):
            hist.observe(value)
        assert sorted(hist._sorted) == [1.0, 7.0, 7.0]
        assert hist.quantile(0.0) == 1.0


class TestRegistry:
    def test_create_or_lookup_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_hooks_see_every_observation(self):
        registry = MetricsRegistry()
        events = []
        registry.add_hook(lambda name, labels, value: events.append((name, labels, value)))
        registry.counter("requests_total").inc(("accepted",))
        registry.gauge("queue_depth").set(4, ("shard0",))
        registry.histogram("latency_seconds").observe(0.5)
        assert events == [
            ("requests_total", ("accepted",), 1.0),
            ("queue_depth", ("shard0",), 4.0),
            ("latency_seconds", (), 0.5),
        ]

    def test_snapshot_is_json_friendly(self):
        import json

        registry = MetricsRegistry()
        registry.counter("requests_total").inc(("accepted",), 3)
        registry.gauge("queue_depth").set(2, ("shard0",))
        registry.histogram("latency_seconds").observe(0.125)
        snap = registry.snapshot()
        assert snap["counters"]["requests_total"]["accepted"] == 3
        assert snap["gauges"]["queue_depth"]["shard0"] == 2
        assert snap["histograms"]["latency_seconds"]["count"] == 1.0
        json.dumps(snap)  # must not raise

    def test_render_lists_all_metrics(self):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc(("accepted",), 3)
        registry.gauge("queue_depth").set(2.0, ("shard1",))
        registry.histogram("latency_seconds").observe(0.5)
        text = registry.render(title="svc")
        assert "svc" in text
        assert "requests_total{accepted} 3" in text
        assert "queue_depth{shard1} 2" in text
        assert "latency_seconds count=1" in text
