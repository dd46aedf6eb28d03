"""Observability overhead: a disabled tracer or monitor must be ~free.

The service's tracing and monitoring hooks follow one pattern: the
observed code only runs when a ``Tracer``/``Monitor`` object is
actually passed; with the default ``None``, the original code path
executes behind a single ``is None`` branch.  This benchmark pins that
claim down:

* **service macro-bench** -- one full :class:`ValidationService` run with
  ``tracer=None`` vs. with a live :class:`Tracer` + span recording.
  Reports the *enabled* overhead too (informational), and re-asserts the
  byte-identical-verdicts guarantee with tracing on.
* **monitor macro-bench** -- the same run with no ``monitor`` keyword,
  ``monitor=None`` and a live :class:`Monitor`.

Minimum-of-repeats timing throughout; margins are deliberately loose so
scheduler noise cannot flake CI (the real disabled overhead is a branch
and a default-argument load, far below 1%).

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workload for CI smoke runs.
"""

import os
import time

from repro.obs.monitor import Monitor
from repro.obs.trace import SamplingConfig, Tracer
from repro.service import ServiceConfig, ValidationService
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

N_LICENSES = 32 if SMOKE else 64
TARGET_GROUPS = 8
STREAM = 400 if SMOKE else 1600
SEED = 0
REPEATS = 3 if SMOKE else 5
#: Disabled-path overhead ceiling.  The claim is "under 5%" and quiet-
#: machine runs measure ~1.00x, but wall-clock on this shared single
#: core is noisy even with interleaved min-of-repeats, so the hard
#: assertion leaves a noise allowance on top of the 5% bar (the table
#: reports the actual ratio either way).
DISABLED_MARGIN = 1.25 if SMOKE else 1.10


def _workload():
    config = WorkloadConfig(
        n_licenses=N_LICENSES,
        seed=SEED,
        n_records=0,
        target_groups=TARGET_GROUPS,
        aggregate_range=(400, 1200),
    )
    generator = WorkloadGenerator(config)
    pool = generator.generate_pool()
    stream = list(generator.issue_stream(pool, STREAM))
    return pool, stream


def _time_min(fn, repeats=REPEATS):
    """Minimum wall time of ``fn()`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _time_min_interleaved(fns, repeats=REPEATS):
    """Minimum wall time per function, repeats interleaved A,B,A,B,...

    Interleaving means a frequency ramp, page-cache warm-up, or noisy
    neighbour hits both variants symmetrically instead of biasing
    whichever happened to run second.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            started = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - started)
    return best


def _service_run(pool, stream, tracer, monitor=None):
    service = ValidationService(
        pool,
        # kernel_cap=0: the tree path, which the committed rows measured.
        ServiceConfig(
            shards=4, batch_size=32, queue_capacity=512, kernel_cap=0
        ),
        tracer=tracer,
        monitor=monitor,
    )
    outcomes = service.process(stream)
    service.close()
    return outcomes


def test_disabled_service_overhead(report, bench_json):
    """Service with ``tracer=None`` vs. full tracing; verdicts identical."""
    pool, stream = _workload()

    # Warm-up run so import costs / allocator growth hit neither timing.
    baseline_outcomes = _service_run(pool, stream, tracer=None)

    disabled_s = _time_min(lambda: _service_run(pool, stream, tracer=None))

    tracers = []

    def traced():
        tracer = Tracer(SamplingConfig(rate=1.0))
        tracers.append(tracer)
        return _service_run(pool, stream, tracer)

    traced_outcomes = traced()
    enabled_s = _time_min(traced)

    # The hard guarantee: tracing must never change a verdict.
    assert [o.accepted for o in traced_outcomes] == [
        o.accepted for o in baseline_outcomes
    ], "tracing changed the verdict stream"
    assert [o.rejection_reason for o in traced_outcomes] == [
        o.rejection_reason for o in baseline_outcomes
    ], "tracing changed rejection reasons"

    enabled_ratio = enabled_s / disabled_s
    spans = len(tracers[-1].records())
    lines = [
        f"service tracing overhead ({STREAM} requests, 4 shards, batch=32, "
        f"min of {REPEATS})",
        "",
        f"tracer=None:   {disabled_s * 1e3:8.1f} ms",
        f"tracer on:     {enabled_s * 1e3:8.1f} ms  ({spans} spans/run)",
        f"enabled cost:  {enabled_ratio:8.3f}x",
        "",
        "verdict stream byte-identical with tracing on/off: yes",
    ]
    report("obs_overhead_service", "\n".join(lines))
    bench_json(
        "obs_overhead_service",
        {
            "smoke": SMOKE,
            "stream": STREAM,
            "disabled_s": disabled_s,
            "enabled_s": enabled_s,
            "enabled_ratio": enabled_ratio,
            "spans_per_run": spans,
        },
    )
    # Informational bound only: even full tracing should stay within a
    # small constant factor of the untraced run on this workload.
    assert enabled_ratio < 3.0, (
        f"full tracing unexpectedly expensive: {enabled_ratio:.2f}x"
    )


def test_monitor_overhead(report, bench_json):
    """Service with ``monitor=None`` vs. a live monitor ticking per drain.

    Same contract as tracing: the ``monitor=None`` hot path is one ``is
    None`` branch (covered by the disabled-margin assertion against the
    plain legacy run), a live monitor is drain-frequency work -- not
    per-request -- so even its enabled cost stays modest, and verdict
    streams are byte-identical either way.
    """
    pool, stream = _workload()

    baseline_outcomes = _service_run(pool, stream, tracer=None)

    def plain():
        return _service_run(pool, stream, tracer=None)

    def disabled():
        return _service_run(pool, stream, tracer=None, monitor=None)

    monitors = []

    def monitored():
        monitor = Monitor()
        monitors.append(monitor)
        return _service_run(pool, stream, tracer=None, monitor=monitor)

    monitored_outcomes = monitored()
    assert [o.accepted for o in monitored_outcomes] == [
        o.accepted for o in baseline_outcomes
    ], "monitoring changed the verdict stream"
    assert [o.rejection_reason for o in monitored_outcomes] == [
        o.rejection_reason for o in baseline_outcomes
    ], "monitoring changed rejection reasons"

    plain_s, disabled_s = _time_min_interleaved(
        [plain, disabled], repeats=2 * REPEATS
    )
    monitored_s = _time_min(monitored)
    disabled_ratio = disabled_s / plain_s
    monitored_ratio = monitored_s / disabled_s
    ticks = monitors[-1].ticks
    lines = [
        f"service monitoring overhead ({STREAM} requests, 4 shards, "
        f"batch=32, min of {REPEATS})",
        "",
        f"no monitor kwarg: {plain_s * 1e3:8.1f} ms",
        f"monitor=None:     {disabled_s * 1e3:8.1f} ms  "
        f"({disabled_ratio:.3f}x, ceiling {DISABLED_MARGIN}x)",
        f"live monitor:     {monitored_s * 1e3:8.1f} ms  "
        f"({monitored_ratio:.3f}x, {ticks} tick(s)/run)",
        "",
        "verdict stream byte-identical with monitoring on/off: yes",
    ]
    report("obs_overhead_monitor", "\n".join(lines))
    bench_json(
        "obs_overhead_monitor",
        {
            "smoke": SMOKE,
            "stream": STREAM,
            "plain_s": plain_s,
            "disabled_s": disabled_s,
            "monitored_s": monitored_s,
            "disabled_ratio": disabled_ratio,
            "monitored_ratio": monitored_ratio,
            "ticks_per_run": ticks,
        },
    )
    assert disabled_ratio < DISABLED_MARGIN, (
        f"monitor=None should be free, measured {disabled_ratio:.3f}x"
    )
    # Informational bound: per-drain evaluation, not per-request.
    assert monitored_ratio < 3.0, (
        f"live monitoring unexpectedly expensive: {monitored_ratio:.2f}x"
    )
