"""Run the program under test in its own process.

Two modes, both started by ``perfbench/run.py``:

``serve``
    Build the pool from the workload seed, then serve it exactly as a
    user would: ``ValidationService(pool)`` behind
    ``AdmissionServer(service)``, every knob at its library default.
    Prints ``READY <port>`` once the port is listening, serves until
    SIGTERM (or until its stdin closes, so it never outlives the
    driver), drains gracefully and prints one JSON report line.

``audit``
    Build the pool and the Section 5 log from the workload seed, then
    time ``GroupedValidator.from_pool`` (set-up) and ``build`` +
    ``validate`` (the audit) for ``--seconds``; print one JSON line.

With ``--trace 1`` the public functions of each layer are wrapped
(:mod:`spans`) and the spans are part of the report.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro import ValidationService  # noqa: E402
from repro.net import protocol  # noqa: E402
from repro.net.server import AdmissionServer  # noqa: E402

import audit  # noqa: E402
from spans import (  # noqa: E402
    Recorder,
    entry_key,
    frame_bytes,
    frame_keys,
    payload_key,
    returned,
)
from workloads import WORKLOADS, Inputs, scaled  # noqa: E402

#: ``from_pool`` timings before each audit (for setup_s).
SETUP_REPEATS = 3


def trace_server(recorder: Recorder) -> None:
    """Wrap the server-side layers (see README: layer -> metric map)."""
    from repro.core.incremental import GroupSlice
    from repro.core.kernel import DenseHeadroomKernel
    from repro.logstore.log import ValidationLog
    from repro.matching.index import IndexedMatcher
    from repro.net.protocol import FrameDecoder
    from repro.service.shard import GroupShard

    def outcome_key(args, _kwargs, _result, _key):
        recorder.pending_key = args[0].usage_id
        return recorder.pending_key, 1

    def usage_key(args, _kwargs, _result, _key):
        return args[1].license_id, 1

    def drained(_args, _kwargs, result, _key):
        return ",".join(o.usage_id for o in result) or None, len(result)

    def batch(args, _kwargs, _result, _key):
        return None, len(args[1])

    recorder.wrap(FrameDecoder, "feed", "protocol.decode", frame_keys)
    recorder.wrap(protocol, "usage_from_payload", "protocol.decode", payload_key)
    recorder.wrap(protocol, "outcome_to_payload", "protocol.encode", outcome_key)
    recorder.wrap(protocol, "timing_to_payload", "protocol.encode", entry_key)
    recorder.wrap(
        protocol, "encode_frame", "protocol.encode",
        frame_bytes(protocol.MSG_RESPONSE),
    )
    recorder.wrap(asyncio.StreamWriter, "write", "server.write", entry_key)
    recorder.wrap_async(asyncio.StreamWriter, "drain", "server.drain", entry_key)
    recorder.wrap_async(AdmissionServer, "flush", "server.flush", returned)
    recorder.wrap(ValidationService, "submit", "service.submit", usage_key)
    recorder.wrap(ValidationService, "drain", "service.drain", drained)
    recorder.wrap(GroupShard, "process_pending", "shard.process_pending")
    recorder.wrap(IndexedMatcher, "match", "match")
    recorder.wrap(GroupSlice, "headroom", "kernel.headroom")
    recorder.wrap(GroupSlice, "headroom_batch", "kernel.headroom_batch", batch)
    recorder.wrap(GroupSlice, "insert", "kernel.insert")
    # Masks rewritten per insert; the dense kernel returns the count,
    # the tree path never calls it (0 masks).
    recorder.wrap(DenseHeadroomKernel, "insert", "kernel.masks", returned)
    recorder.wrap(GroupSlice, "revalidate", "kernel.revalidate")
    recorder.wrap(ValidationLog, "append", "log.append")


def peak_rss_mb() -> float:
    """Return this process's peak RSS in MiB (``ru_maxrss`` is KiB);
    the audit's figure (the server's is read from ``/proc``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def serve(args: argparse.Namespace) -> dict:
    workload = scaled(WORKLOADS[args.workload], args.scale)
    inputs = Inputs(workload, args.seed)
    recorder = Recorder() if args.trace else None
    if recorder is not None:
        trace_server(recorder)
    if args.flip:
        flip_one_verdict()
    service = ValidationService(inputs.pool)
    try:
        server = AdmissionServer(service)
        _host, port = await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        # EOF on stdin means the driver is gone: stop rather than linger.
        stdin = sys.stdin.fileno()

        def on_stdin() -> None:
            if not os.read(stdin, 4096):
                loop.remove_reader(stdin)
                stop.set()

        loop.add_reader(stdin, on_stdin)
        print(f"READY {port}", flush=True)
        await stop.wait()
        await server.shutdown()
    finally:
        service.close()
    hits, misses, _evictions = service.match_cache_stats()
    report = {
        "served": server.requests_served,
        "executor": service.executor_backend,
        "cache_hits": hits,
        "cache_misses": misses,
        "equations_checked": service.metrics.counter(
            "equations_checked_total"
        ).total(),
    }
    if recorder is not None:
        recorder.unwrap()
        report["trace"] = recorder.dump()
    return report


def flip_one_verdict() -> None:
    """Self-test hook: answer the first request with the opposite
    verdict, so the benchmark's output check must catch a wrong output."""
    original = protocol.outcome_to_payload
    flipped = []

    def outcome_to_payload(outcome):
        payload = original(outcome)
        if not flipped:
            flipped.append(outcome.usage_id)
            payload["accepted"] = not payload["accepted"]
            payload["reason"] = None if payload["accepted"] else "equation"
        return payload

    protocol.outcome_to_payload = outcome_to_payload


def run_audit(args: argparse.Namespace) -> dict:
    workload = scaled(WORKLOADS[args.workload], args.scale)
    inputs = Inputs(workload, args.seed)
    log = inputs.audit_log()
    # One untimed audit warms the interpreter and the allocator.
    validator, _seconds = audit.setup(inputs.pool)
    report, _seconds = audit.audit(validator, log)
    started = time.perf_counter()
    setups, durations, cpus = [], [], []
    # At least two audits, then more while another fits in the window.
    # Each starts from a collected heap, so none pays for the garbage
    # of the one before it, as a user's single audit would not.  Set-up
    # is timed before every audit, so its median spans the window
    # rather than one moment of the host.  The audits take turns on the
    # allowed CPUs: the host's speed differs between its vCPUs and
    # drifts on each, and a lone process would otherwise stay on
    # whichever vCPU it started on.
    cores = sorted(os.sched_getaffinity(0))
    while len(durations) < 2 or (
        time.perf_counter() - started + durations[-1] <= args.seconds
    ):
        os.sched_setaffinity(0, {cores[len(durations) % len(cores)]})
        gc.collect()
        for _ in range(SETUP_REPEATS):
            validator, seconds = audit.setup(inputs.pool)
            setups.append(seconds)
        cpu_started = time.process_time()
        report, seconds = audit.audit(validator, log)
        cpus.append(time.process_time() - cpu_started)
        durations.append(seconds)
        if args.trace:
            break
    os.sched_setaffinity(0, cores)
    result = {
        "setups": setups,
        "audits": durations,
        "records": len(log),
        "cpu_s": cpus,
        "equations": report.equations_checked,
        "violations": audit.violations(report),
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.trace:
        # One more audit, traced; the untraced one above is its baseline.
        recorder = Recorder()
        audit.trace(recorder)
        traced_started = time.perf_counter()
        validator, _seconds = audit.setup(inputs.pool)
        report, seconds = audit.audit(validator, log)
        recorder.unwrap()
        result["traced_audit_s"] = seconds
        result["traced_span"] = [traced_started, time.perf_counter()]
        result["trace"] = recorder.dump()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("serve", "audit"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--flip", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "serve":
        report = asyncio.run(serve(args))
    else:
        report = run_audit(args)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
