"""End-to-end wire serving: RPS and latency through a real TCP socket.

Measures the :mod:`repro.net` stack -- framing, JSON codec, asyncio
streams, bounded in-flight window -- wrapped around the same
:class:`ValidationService` the in-process benchmarks drive directly:

* **Parity** (gated exactly): one pipelined connection replays the
  stream and every verdict must be byte-identical to
  :meth:`ValidationService.process` on the same stream.  The wire layer
  is a pure transport; if this flips, admission semantics leaked into
  the socket code.
* **Closed-loop throughput**: ``CONCURRENCY`` persistent connections
  issue back-to-back requests (saturation probe).
* **Open-loop latency**: requests depart on a fixed arrival schedule,
  so percentiles include queueing delay without coordinated omission.
* **Tracing overhead**: the same closed-loop run three ways -- a
  protocol-v1 client, which gets no timing echo (the legacy
  baseline), a v2 client with tracing disabled (contexts absent, timing
  echo present), and a fully traced run (client + server tracers).  The
  disabled-path ratio is gated: v2 support must stay essentially free
  when nobody traces.

RPS and percentile numbers are informational in the perf gate (CI
runners cannot reproduce absolute timings); the deterministic shape
fields -- parity, accepted count of the pipelined run, measured request
counts, zero overload failures under an unsaturated window -- are gated
exactly.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workload for CI smoke runs.
"""

import asyncio
import json
import os

from repro.net import protocol
from repro.net.client import AdmissionClient
from repro.net.loadgen import LoadGenerator, LoadgenConfig
from repro.net.server import AdmissionServer, WireServerConfig
from repro.obs.trace import Tracer
from repro.service import ServiceConfig, ValidationService
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

N_LICENSES = 24 if SMOKE else 48
TARGET_GROUPS = 6
STREAM = 300 if SMOKE else 1500
SEED = 0
CONCURRENCY = 4
#: Open-loop arrival rate (requests/second).  Far below the closed-loop
#: ceiling so the open run measures latency, not saturation collapse.
OPEN_RATE = 1500.0 if SMOKE else 3000.0
#: Service config of every run; ``kernel_cap=0`` keeps the tree path,
#: which the committed rows measured.
CONFIG = ServiceConfig(shards=4, batch_size=32, kernel_cap=0)


def _workload():
    config = WorkloadConfig(
        n_licenses=N_LICENSES,
        seed=SEED,
        n_records=0,
        target_groups=TARGET_GROUPS,
        # Tight enough that the stream exhausts capacity part-way: the
        # parity check then covers accepted AND rejected verdicts.
        aggregate_range=(150, 400),
    )
    generator = WorkloadGenerator(config)
    pool = generator.generate_pool()
    stream = list(generator.issue_stream(pool, STREAM))
    return pool, stream


def _signature(outcomes):
    return [
        json.dumps(protocol.outcome_to_payload(outcome), sort_keys=True)
        for outcome in outcomes
    ]


async def _with_server(pool, run, *, tracer=None):
    """Start a fresh service+server, run ``run(host, port)``, drain."""
    service = ValidationService(pool, CONFIG, tracer=tracer)
    server = AdmissionServer(
        service,
        # Window sized to the whole stream: backpressure never triggers,
        # so request counts below are deterministic and gateable.
        WireServerConfig(max_inflight=max(STREAM, 256)),
    )
    host, port = await server.start()
    try:
        result = await run(host, port)
    finally:
        await server.shutdown()
        service.close()
    return result


def _loadgen_row(report_obj):
    return {
        "concurrency": report_obj.concurrency,
        "measured": report_obj.measured,
        "overloaded_failures": report_obj.overloaded_failures,
        "retries": report_obj.retries,
        "accepted": report_obj.accepted,
        "elapsed": report_obj.elapsed,
        "rps": report_obj.rps,
        "p50": report_obj.quantile(0.50),
        "p95": report_obj.quantile(0.95),
        "p99": report_obj.quantile(0.99),
    }


def test_wire_end_to_end(report, bench_json):
    pool, stream = _workload()

    # In-process reference: the same stream through the bare service.
    service = ValidationService(pool, CONFIG)
    reference = _signature(service.process(stream))
    accepted_reference = sum(
        1 for line in reference if json.loads(line)["accepted"]
    )
    service.close()

    async def pipelined(host, port):
        async with AdmissionClient(host, port) as client:
            return await client.request_many(stream, window=64)

    wire_outcomes = asyncio.run(_with_server(pool, pipelined))
    parity = _signature(wire_outcomes) == reference
    assert parity, "wire verdicts diverged from in-process admission"

    async def closed(host, port):
        generator = LoadGenerator(
            LoadgenConfig(
                mode="closed",
                concurrency=CONCURRENCY,
                warmup=min(50, STREAM // 10),
            )
        )
        return await generator.run(host, port, stream)

    closed_report = asyncio.run(_with_server(pool, closed))
    assert closed_report.overloaded_failures == 0

    async def open_loop(host, port):
        generator = LoadGenerator(
            LoadgenConfig(
                mode="open",
                concurrency=CONCURRENCY,
                rate=OPEN_RATE,
                warmup=min(50, STREAM // 10),
            )
        )
        return await generator.run(host, port, stream)

    open_report = asyncio.run(_with_server(pool, open_loop))
    assert open_report.overloaded_failures == 0

    # ------------------------------------------------------------------
    # Tracing overhead: legacy v1 baseline vs v2-disabled vs fully traced
    # ------------------------------------------------------------------
    def closed_run(*, tracer=None, protocol_versions=protocol.SUPPORTED_VERSIONS):
        async def scenario(host, port):
            generator = LoadGenerator(
                LoadgenConfig(
                    mode="closed",
                    concurrency=CONCURRENCY,
                    warmup=min(50, STREAM // 10),
                ),
                tracer=tracer,
                protocol_versions=protocol_versions,
            )
            return await generator.run(host, port, stream)

        return scenario

    baseline_report = asyncio.run(
        _with_server(pool, closed_run(protocol_versions=(1,)))
    )
    untraced_report = asyncio.run(_with_server(pool, closed_run()))
    traced_report = asyncio.run(
        _with_server(pool, closed_run(tracer=Tracer()), tracer=Tracer())
    )
    for tracing_run in (baseline_report, untraced_report, traced_report):
        assert tracing_run.overloaded_failures == 0
    assert baseline_report.timed == 0  # v1: no timing echo on the wire
    assert untraced_report.timed == untraced_report.measured
    disabled_ratio = baseline_report.rps / max(untraced_report.rps, 1e-9)
    traced_ratio = baseline_report.rps / max(traced_report.rps, 1e-9)

    lines = [
        f"wire end-to-end serving ({N_LICENSES} licenses, {STREAM} requests, "
        f"4 shards, batch=32)",
        "",
        f"parity: wire verdicts byte-identical to in-process: "
        f"{'yes' if parity else 'NO'} "
        f"({accepted_reference}/{STREAM} accepted)",
        "",
        "run            | req/s    | p50 ms  | p95 ms  | p99 ms",
        "---------------+----------+---------+---------+--------",
    ]
    for name, run_report in (
        (f"closed (c={CONCURRENCY})", closed_report),
        (f"open ({OPEN_RATE:,.0f}/s)", open_report),
    ):
        lines.append(
            f"{name:14s} | {run_report.rps:8,.0f} | "
            f"{run_report.quantile(0.5) * 1e3:7.3f} | "
            f"{run_report.quantile(0.95) * 1e3:7.3f} | "
            f"{run_report.quantile(0.99) * 1e3:7.3f}"
        )
    lines += [
        "",
        "tracing overhead (closed loop, same stream):",
        f"  v1 baseline (no echo)   {baseline_report.rps:8,.0f} req/s",
        f"  v2, tracing disabled    {untraced_report.rps:8,.0f} req/s "
        f"(ratio {disabled_ratio:.3f})",
        f"  v2, fully traced        {traced_report.rps:8,.0f} req/s "
        f"(ratio {traced_ratio:.3f})",
    ]
    report("wire_end_to_end", "\n".join(lines))

    bench_json(
        "wire_end_to_end",
        {
            "smoke": SMOKE,
            "stream": STREAM,
            "licenses": N_LICENSES,
            "parity": parity,
            "accepted": accepted_reference,
            "closed": _loadgen_row(closed_report),
            "open": _loadgen_row(open_report),
            "tracing": {
                "measured": untraced_report.measured,
                "baseline_rps": baseline_report.rps,
                "untraced_rps": untraced_report.rps,
                "traced_rps": traced_report.rps,
                "disabled_ratio": disabled_ratio,
                "traced_ratio": traced_ratio,
            },
        },
    )
