"""Exporter tests: Prometheus round-trip, JSON, span trees, reports."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.obs.export import (
    load_trace_jsonl,
    parse_prometheus,
    registry_to_json,
    render_prometheus,
    render_span_tree,
    summarize_events,
    top_slowest,
)
from repro.obs.trace import SpanRecord, Tracer
from repro.service.metrics import MetricsRegistry


def _populated_registry():
    registry = MetricsRegistry()
    registry.counter("requests_total").inc(("accepted",), amount=7)
    registry.counter("requests_total").inc(("rejected", "equation"), amount=2)
    registry.counter("batches_total").inc(amount=3)
    registry.gauge("queue_depth").set(5, ("shard0",))
    histogram = registry.histogram("latency_seconds")
    for value in (0.001, 0.002, 0.004, 0.008):
        histogram.observe(value)
    return registry


class TestPrometheus:
    def test_render_round_trips_through_parse(self):
        registry = _populated_registry()
        samples = parse_prometheus(render_prometheus(registry))
        assert samples["repro_requests_total"][
            (("label0", "accepted"),)
        ] == 7.0
        assert samples["repro_requests_total"][
            (("label0", "rejected"), ("label1", "equation"))
        ] == 2.0
        assert samples["repro_batches_total"][()] == 3.0
        assert samples["repro_queue_depth"][(("label0", "shard0"),)] == 5.0
        summary = registry.histogram("latency_seconds").summary()
        assert samples["repro_latency_seconds"][
            (("quantile", "0.5"),)
        ] == summary["p50"]
        assert samples["repro_latency_seconds_count"][()] == 4.0
        assert samples["repro_latency_seconds_sum"][()] == pytest.approx(0.015)

    def test_every_rendered_sample_survives_parsing(self):
        text = render_prometheus(_populated_registry())
        sample_lines = [
            line for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        parsed = parse_prometheus(text)
        assert sum(len(cells) for cells in parsed.values()) == len(sample_lines)

    def test_namespace_is_configurable(self):
        text = render_prometheus(_populated_registry(), namespace="drm")
        assert "drm_requests_total" in text
        assert "repro_" not in text

    def test_parse_rejects_malformed_lines(self):
        for bad in (
            "no_value_here",
            "metric{unterminated 1",
            "m{k=v} 1",
            'm{k="trailing",} 1',
            'm{k="bad escape \\x"} 1',
            'm{k="unclosed} 1',
        ):
            with pytest.raises(ServiceError):
                parse_prometheus(bad)

    def test_hostile_label_values_round_trip(self):
        """Regression: label values containing ``"``, ``,``, ``=``, or
        ``\\`` used to render unescaped and shred the parser."""
        hostile = ('he said "hi"', "a,b=c", "back\\slash", "new\nline", "}")
        registry = MetricsRegistry()
        for value in hostile:
            registry.counter("hostile_total").inc((value,), amount=3)
        samples = parse_prometheus(render_prometheus(registry))
        cells = samples["repro_hostile_total"]
        assert len(cells) == len(hostile)
        for value in hostile:
            assert cells[(("label0", value),)] == 3.0

    @given(
        values=st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs",),
                    # The sample separator is a space-split; keep label
                    # values printable-ish but include every escape-relevant
                    # character explicitly below.
                ),
                max_size=12,
            ).map(lambda s: s + '",\\=\n'),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_label_round_trip_property(self, values):
        registry = MetricsRegistry()
        for index, value in enumerate(values):
            registry.counter("prop_total").inc((value, f"v{index}"))
        samples = parse_prometheus(render_prometheus(registry))
        cells = samples["repro_prop_total"]
        assert len(cells) == len(values)
        for index, value in enumerate(values):
            labels = tuple(sorted([("label0", value), ("label1", f"v{index}")]))
            assert cells[labels] == 1.0

    def test_histogram_exports_both_scopes(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", max_samples=2)
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        samples = parse_prometheus(render_prometheus(registry))
        assert samples["repro_lat_count"][()] == 3.0
        assert samples["repro_lat_sum"][()] == 6.0
        assert samples["repro_lat_window_count"][()] == 2.0
        assert samples["repro_lat_max"][()] == 3.0

    def test_registry_to_json_is_deterministic(self):
        first = registry_to_json(_populated_registry())
        second = registry_to_json(_populated_registry())
        assert first == second
        assert "requests_total" in json.loads(first)["counters"]


def _span(trace, span, parent, name, start, duration, **attrs):
    return SpanRecord(
        trace_id=trace, span_id=span, parent_id=parent, name=name,
        start=start, duration=duration, attrs=attrs,
    )


class TestTraceReports:
    def test_load_trace_jsonl(self, tmp_path):
        tracer = Tracer(clock=iter(range(100)).__next__)
        with tracer.span("request"):
            with tracer.span("match"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        loaded = load_trace_jsonl(str(path))
        assert sorted(r.name for r in loaded) == ["match", "request"]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(ServiceError):
            load_trace_jsonl(str(path))

    def test_span_tree_nests_and_orders(self):
        records = [
            _span("t1", "s2", "s1", "match", 1.0, 0.1, matched=2),
            _span("t1", "s1", None, "request", 0.0, 2.0),
            _span("t1", "s3", "s1", "admission", 1.5, 0.2),
            _span("t0", "s0", None, "earlier", -1.0, 0.5),
        ]
        text = render_span_tree(records)
        lines = text.splitlines()
        assert lines[0] == "trace t0"  # ordered by root start time
        assert "trace t1" in lines
        request_at = next(i for i, l in enumerate(lines) if "request" in l)
        match_at = next(i for i, l in enumerate(lines) if "match" in l)
        admission_at = next(i for i, l in enumerate(lines) if "admission" in l)
        assert request_at < match_at < admission_at
        assert "[matched=2]" in lines[match_at]
        # Children are indented beneath their parent.
        assert lines[match_at].startswith("   ")

    def test_orphan_span_promoted_to_root(self):
        records = [_span("t1", "s9", "s_missing", "lonely", 0.0, 1.0)]
        text = render_span_tree(records)
        assert "lonely" in text

    def test_max_traces_limits_output(self):
        records = [
            _span(f"t{i}", f"s{i}", None, "request", float(i), 1.0)
            for i in range(5)
        ]
        text = render_span_tree(records, max_traces=2)
        assert text.count("trace ") == 2

    def test_top_slowest_ranks_by_duration(self):
        records = [
            _span("t0", "s0", None, "request", 0.0, 0.5),
            _span("t0", "s1", "s0", "match", 0.0, 2.0),
            _span("t1", "s2", None, "request", 0.0, 1.0),
        ]
        lines = top_slowest(records, 2).splitlines()
        assert "top 2 slowest" in lines[0]
        assert "match" in lines[3]
        assert "request" in lines[4]

    def test_top_slowest_filters_by_name(self):
        records = [
            _span("t0", "s0", None, "request", 0.0, 0.5),
            _span("t0", "s1", "s0", "match", 0.0, 2.0),
        ]
        text = top_slowest(records, 5, name="request")
        assert "match" not in text
        assert "(name=request)" in text


class TestEventSummary:
    def test_counts_kinds_and_rejection_reasons(self):
        events = [
            {"kind": "admission"},
            {"kind": "admission"},
            {"kind": "rejection", "reason": "equation"},
            {"kind": "rejection", "reason": "instance"},
            {"kind": "rejection", "reason": "equation"},
            {"kind": "backpressure"},
        ]
        text = summarize_events(events)
        assert "6 event(s)" in text
        assert "admission: 2" in text
        assert "rejection: 3" in text
        assert "equation: 2" in text
        assert "instance: 1" in text

    def test_empty_stream(self):
        assert summarize_events([]) == "0 event(s)"
