"""Every metric the benchmark reports, with the layer map.

``BENCHMARK.json`` lists the same names; the self-test checks that the
two agree and that every per-layer metric names end-to-end metrics and
runnable workloads.
"""

from __future__ import annotations

WIRE = ("wire-small-groups", "wire-large-groups")
SMALL = ("wire-small-groups",)
LARGE = ("wire-large-groups",)
AUDIT = ("offline-audit",)
#: The workloads in BENCHMARK.json.  wire-small-groups stays runnable
#: for diagnosis (it is where the net layers dominate) but is not
#: benchmarked: its open-loop p50 spread over ten seeds was 44% of the
#: median, against a 25% bound (perfbench/README.md).
BENCHMARKED = LARGE + AUDIT

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_rps": ("1/s", "higher", 0.25),
    "latency_ms": ("ms", "lower", 0.25),
    "cpu_us_per_req": ("us", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}

#: name -> (unit, better, module, {end-to-end metric: workloads it moves on})
PER_LAYER = {
    "protocol.encode_us_per_frame": (
        "us", "lower", "net.protocol",
        {"throughput_rps": SMALL, "cpu_us_per_req": SMALL},
    ),
    "protocol.decode_us_per_frame": (
        "us", "lower", "net.protocol",
        {"throughput_rps": SMALL, "cpu_us_per_req": SMALL},
    ),
    "protocol.request_bytes": (
        "B", "lower", "net.protocol",
        {"throughput_rps": SMALL, "cpu_us_per_req": SMALL},
    ),
    "protocol.response_bytes": (
        "B", "lower", "net.protocol",
        {"throughput_rps": SMALL, "cpu_us_per_req": SMALL},
    ),
    "client.writes_per_req": (
        "count", "lower", "net.client", {"throughput_rps": SMALL},
    ),
    "client.drains_per_req": (
        "count", "lower", "net.client", {"throughput_rps": SMALL},
    ),
    "server.writes_per_req": (
        "count", "lower", "net.server",
        {"throughput_rps": SMALL, "latency_ms": SMALL},
    ),
    "server.drains_per_req": (
        "count", "lower", "net.server",
        {"throughput_rps": SMALL, "latency_ms": SMALL},
    ),
    "server.reqs_per_flush": (
        "count", "higher", "net.server",
        {"throughput_rps": SMALL, "latency_ms": SMALL},
    ),
    "server.hop_us_per_flush": (
        "us", "lower", "net.server",
        {"throughput_rps": SMALL, "latency_ms": SMALL},
    ),
    "service.submit_us": (
        "us", "lower", "service", {"latency_ms": WIRE},
    ),
    "service.drain_us_per_req": (
        "us", "lower", "service", {"latency_ms": WIRE},
    ),
    "service.reqs_per_drain": (
        "count", "higher", "service", {"latency_ms": WIRE},
    ),
    "service.queue_wait_us": (
        "us", "lower", "service", {"latency_ms": WIRE},
    ),
    "executor.hop_us_per_drain": (
        "us", "lower", "service.executor", {"cpu_us_per_req": SMALL},
    ),
    "shard.process_pending_us_per_req": (
        "us", "lower", "service.shard", {"cpu_us_per_req": SMALL},
    ),
    "match.us_per_call": (
        "us", "lower", "matching", {"cpu_us_per_req": SMALL},
    ),
    "match.cache_hit_ratio": (
        "ratio", "higher", "matching", {"cpu_us_per_req": SMALL},
    ),
    "match.licenses_per_req": (
        "count", "lower", "matching", {"cpu_us_per_req": SMALL},
    ),
    "kernel.headroom_us_per_call": (
        "us", "lower", "core.kernel",
        {"throughput_rps": LARGE, "latency_ms": LARGE},
    ),
    "kernel.insert_us_per_call": (
        "us", "lower", "core.kernel",
        {"throughput_rps": LARGE, "latency_ms": LARGE},
    ),
    "kernel.revalidate_us_per_call": (
        "us", "lower", "core.incremental",
        {"throughput_rps": LARGE, "latency_ms": LARGE},
    ),
    "kernel.equations_per_admission": (
        "count", "lower", "core.incremental",
        {"throughput_rps": LARGE, "latency_ms": LARGE},
    ),
    "kernel.masks_per_insert": (
        "count", "lower", "core.kernel",
        {"throughput_rps": LARGE, "latency_ms": LARGE},
    ),
    "log.append_us_per_call": (
        "us", "lower", "logstore", {"cpu_us_per_req": WIRE},
    ),
    # On offline-audit, latency_ms is the audit time (build +
    # validate) and throughput_rps the records audited per second.
    "audit.group_s": (
        "s", "lower", "core.validator", {"setup_s": AUDIT},
    ),
    "audit.build_s": (
        "s", "lower", "validation.tree", {"latency_ms": AUDIT},
    ),
    "audit.divide_s": (
        "s", "lower", "core.grouped_tree", {"latency_ms": AUDIT},
    ),
    "audit.validate_s": (
        "s", "lower", "core.grouped_tree",
        {"latency_ms": AUDIT, "throughput_rps": LARGE},
    ),
    "audit.equations": (
        "count", "lower", "core.grouped_tree", {"latency_ms": AUDIT},
    ),
    "audit.equations_per_s": (
        "1/s", "higher", "validation.tree", {"throughput_rps": AUDIT},
    ),
    "driver.late_p99_ms": (
        "ms", "lower", "driver", {"latency_ms": WIRE},
    ),
    "driver.cpu_us_per_req": (
        "us", "lower", "driver", {"throughput_rps": WIRE},
    ),
    "trace.unattributed_share": (
        "ratio", "lower", "driver", {"latency_ms": WIRE},
    ),
    "trace.overhead": (
        "ratio", "lower", "driver", {"throughput_rps": WIRE},
    ),
}
