"""The repository benchmark: socket admission and offline audit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wire-small-groups --seed 1 \\
        --seconds 40 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Lines before it
are the human-readable report: run metadata, phase figures, the
per-layer table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import contextlib
import gc
import hashlib
import json
import math
import operator
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launcher.py"
#: Launches per run for the set-up figure (median reported).
SETUP_REPEATS = 5
#: Rounds of closed loop then open loop in a wire run.
ROUNDS = 4
#: Seconds a launcher gets to print READY, and to exit after SIGTERM.
READY_TIMEOUT = 60.0
EXIT_TIMEOUT = 30.0
#: Driver CPU share of one core above which the driver, not the
#: program, limited the closed loop.
DRIVER_BOUND_SHARE = 0.9
CONNECTIONS = 2
#: Closed-loop virtual users, pipelined over the connections.
USERS = 64
#: How long before a send's due time the open loop stops sleeping and
#: yields in a loop instead (seconds).
PACING_SLACK = 0.002
#: Open-loop samples per window of the reported p99 (see windowed_p99).
P99_WINDOW = 2000
#: Seconds of each of the three bursts of repeated audits behind a wire
#: workload's ``audit_s``.
AUDIT_BURST_S = 1.0


# ----------------------------------------------------------------------
# Process-tree accounting (Linux /proc)
# ----------------------------------------------------------------------
CLOCK_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
            text = stream.read()
    except OSError:
        return None
    # Fields after the parenthesised command name; index 0 is `state`.
    return text[text.rindex(")") + 2:].split()


def descendants(pid: int) -> Dict[int, str]:
    """Return ``{pid: start time}`` of every live descendant of ``pid``."""
    children: Dict[int, List[int]] = {}
    starts: Dict[int, str] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat(int(entry))
        if fields is None:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
        starts[int(entry)] = fields[19]
    found: Dict[int, str] = {}
    stack = list(children.get(pid, []))
    while stack:
        child = stack.pop()
        found[child] = starts[child]
        stack.extend(children.get(child, []))
    return found


def tree_cpu_seconds(pids: List[int]) -> float:
    """Return user+system CPU of ``pids`` (and their reaped children)."""
    ticks = 0
    for pid in pids:
        fields = _stat(pid)
        if fields is not None:
            ticks += sum(int(value) for value in fields[11:15])
    return ticks / CLOCK_TICK


def tree_peak_rss_mb(pids: List[int]) -> float:
    """Return the summed peak RSS (VmHWM) of ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as stream:
                for line in stream:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def shm_segments() -> set:
    """Return the names of the library's shared-memory segments."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}
    except OSError:
        return set()


class Launched:
    """One launcher process (the program under test) and its hygiene."""

    def __init__(self, mode: str, args: argparse.Namespace, *extra: str):
        self.shm_before = shm_segments()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(LAUNCHER), mode,
                "--workload", args.workload, "--seed", str(args.seed),
                "--scale", str(args.scale), *extra,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
        )
        self.known: Dict[int, str] = {}
        self.problems: List[str] = []
        self.report: Optional[dict] = None

    def wait_ready(self) -> int:
        """Wait for ``READY <port>``; return the port."""
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"launcher did not become ready: {line!r}")
        self.setup_s = time.perf_counter() - self.started
        self.note_children()
        return int(line.split()[1])

    def pids(self) -> List[int]:
        """Return the launcher's pid and its live descendants."""
        return [self.proc.pid, *descendants(self.proc.pid)]

    def note_children(self) -> None:
        """Remember every process the launcher has started so far."""
        self.known.update(descendants(self.proc.pid))

    def stop(self) -> Optional[dict]:
        """SIGTERM, escalate to SIGKILL, then check nothing is left."""
        if self.proc.poll() is None:
            self.note_children()
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.problems.append("launcher ignored SIGTERM; killed")
            self.proc.kill()
            out, _ = self.proc.communicate()
        return self._finish(out)

    def wait(self, timeout: float) -> Optional[dict]:
        """Let a launcher that ends by itself finish; kill it if late."""
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.problems.append("launcher overran its window; killed")
            self.proc.kill()
            out, _ = self.proc.communicate()
        return self._finish(out)

    def _finish(self, out: bytes) -> Optional[dict]:
        if self.proc.returncode != 0:
            self.problems.append(f"launcher exited {self.proc.returncode}")
        for pid, start in self.known.items():
            fields = _stat(pid)
            if fields is not None and fields[19] == start:
                self.problems.append(f"process {pid} outlived the launcher")
                os.kill(pid, signal.SIGKILL)
        leaked = shm_segments() - self.shm_before
        if leaked:
            self.problems.append(f"shared memory left behind: {sorted(leaked)}")
        lines = out.decode().strip().splitlines()
        try:
            self.report = json.loads(lines[-1])
        except (IndexError, ValueError):
            self.problems.append("launcher printed no report")
        return self.report


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class Feed:
    """Hands out the workload's request stream in order.

    Each timed phase draws its requests before it starts (``reserve``);
    a closed loop that outruns its reserve draws a few at a time.
    """

    def __init__(self, inputs):
        self.inputs = inputs
        self.buffer: collections.deque = collections.deque()

    def next(self):
        if not self.buffer:
            self.buffer.extend(self.inputs.usages(32))
        return self.buffer.popleft()

    def reserve(self, count: int) -> None:
        """Draw the next ``count`` requests now, outside any timing."""
        if len(self.buffer) < count:
            self.buffer.extend(self.inputs.usages(count - len(self.buffer)))


@contextlib.contextmanager
def frozen_driver_heap():
    """Hide the driver's own heap from its garbage collector.

    The driver holds the request stream and every verdict so far.  A
    full collection over that heap takes tens of milliseconds and grows
    through the run; frozen, it no longer stalls the open loop or slows
    the audits timed in this process.  The program's process is left
    alone: its collector's pauses are part of what is measured.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class Session:
    """One server under load: what was sent, what came back."""

    def __init__(self, launched: Launched, port: int):
        self.launched = launched
        self.port = port
        self.clients: list = []
        self.sent: list = []
        self.outcomes: Dict[str, object] = {}
        self.errors: Dict[str, int] = {}

    async def connect(self) -> None:
        from repro.net.client import AdmissionClient

        for index in range(CONNECTIONS):
            client = AdmissionClient(
                "127.0.0.1", self.port, timeout=30.0,
                client_name=f"perfbench-{index}", jitter_seed=index,
            )
            await client.connect()
            self.clients.append(client)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def call(self, index: int, usage) -> bool:
        """Send one request; record its verdict or its failure."""
        from repro.errors import ReproError

        self.sent.append(usage)
        try:
            result = await self.clients[index % CONNECTIONS].call(usage)
        except (ReproError, OSError) as exc:
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            return False
        self.outcomes[usage.license_id] = result.outcome
        return True


async def closed_loop(session: Session, feed: Feed, seconds: float):
    """``USERS`` virtual users, each sending its next request only when
    the previous verdict is back; return ``(completed, elapsed)``."""
    completed = 0

    async def user(index: int) -> None:
        nonlocal completed
        while time.perf_counter() < deadline:
            if await session.call(index, feed.next()):
                completed += 1

    with frozen_driver_heap():
        started = time.perf_counter()
        deadline = started + seconds
        await asyncio.gather(*(user(index) for index in range(USERS)))
        return completed, time.perf_counter() - started


async def warm_up(session: Session, feed: Feed, warm: float, timed: float):
    """Run the closed loop for ``warm`` seconds, then draw the requests
    of the ``timed`` phase that follows (at 1.5x the warm-up rate), so
    the stream generator's cost stays out of the timed loop."""
    completed, elapsed = await closed_loop(session, feed, warm)
    feed.reserve(int(1.5 * timed * completed / elapsed))


async def open_loop(session: Session, feed: Feed, rate: float, seconds: float,
                    calls: Optional[list] = None):
    """Send at a fixed rate regardless of responses; return per-request
    ``(latency, lateness)`` in seconds, both from the due time."""
    count = max(1, int(rate * seconds))
    feed.reserve(count)
    samples: list = []
    tasks = []

    async def one(index: int, usage, due: float) -> None:
        started = time.perf_counter()
        ok = await session.call(index, usage)
        done = time.perf_counter()
        if ok:
            samples.append((done - due, started - due))
            if calls is not None:
                calls.append((usage.license_id, due, started, done))

    with frozen_driver_heap():
        origin = time.perf_counter() + 0.005
        for index in range(count):
            due = origin + index / rate
            delay = due - time.perf_counter()
            if delay > PACING_SLACK:
                await asyncio.sleep(delay - PACING_SLACK)
            # Event-loop timers fire up to a millisecond late (epoll
            # waits in whole milliseconds), which the due-time clock
            # would book as program latency: yield until the due time.
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            tasks.append(asyncio.ensure_future(one(index, feed.next(), due)))
        await asyncio.gather(*tasks)
    return samples


def nearest_rank(values: List[float], q: float) -> float:
    """Exact nearest-rank quantile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def windowed_p99(latencies: List[float]) -> float:
    """Return the median of the p99s of consecutive windows of at least
    ``P99_WINDOW`` samples (one window when there are fewer).

    A single stall of the host lands in one window and moves that
    window's p99 only, where a p99 over the whole phase would take it
    in full; each window still has at least 20 samples beyond its p99.
    """
    count = max(1, len(latencies) // P99_WINDOW)
    size = len(latencies) / count
    return statistics.median(
        nearest_rank(latencies[round(i * size):round((i + 1) * size)], 0.99)
        for i in range(count)
    )


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def verify_wire(pool, session: Session, notes: List[str]) -> int:
    """Return the number of wrong outputs of one server session.

    Wire verdicts must equal ``ValidationService.process`` on the same
    stream, which is order-independent only while no aggregate binds:
    so the reference must accept everything.  The accepted issuances,
    taken as a log, must pass the offline audit.
    """
    from repro import GroupedValidator, ValidationLog, ValidationService

    with ValidationService(pool) as reference:
        expected = reference.process(session.sent)
    wrong = 0
    if not all(outcome.accepted for outcome in expected):
        notes.append("an aggregate binds: the verdict check is not order-free")
        wrong += 1
    log = ValidationLog()
    for usage, want in zip(session.sent, expected):
        got = session.outcomes.get(usage.license_id)
        if got is None:
            continue  # counted as a transport failure
        if got != want:
            wrong += 1
        if got.accepted:
            log.record_issuance(usage, got.license_set)
    if not GroupedValidator.from_pool(pool).validate(log).is_valid:
        notes.append("accepted issuances fail the offline audit")
        wrong += 1
    return wrong


# ----------------------------------------------------------------------
# Tracing: client-side wrappers and the per-layer table
# ----------------------------------------------------------------------
def trace_client(recorder) -> None:
    """Wrap the client-side layers in this (the driver's) process."""
    from repro.net import protocol
    from repro.net.protocol import FrameDecoder
    from spans import entry_key, frame_bytes, frame_keys, payload_key

    def usage_key(args, _kwargs, _result, _key):
        recorder.pending_key = args[0].license_id
        return recorder.pending_key, 1

    recorder.wrap(protocol, "usage_to_payload", "client.encode", usage_key)
    recorder.wrap(
        protocol, "encode_frame", "client.encode",
        frame_bytes(protocol.MSG_REQUEST),
    )
    recorder.wrap(asyncio.StreamWriter, "write", "client.write", entry_key)
    recorder.wrap_async(asyncio.StreamWriter, "drain", "client.drain", entry_key)
    recorder.wrap(FrameDecoder, "feed", "client.decode", frame_keys)
    recorder.wrap(protocol, "outcome_from_payload", "client.decode", payload_key)
    recorder.wrap(protocol, "timing_from_payload", "client.decode")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _by_key(rows, pick):
    """Map each request key of ``rows`` to ``pick(row)`` (the last one
    wins; comma-joined keys fan out)."""
    found = {}
    for row in rows:
        if row[5]:
            for key in row[5].split(","):
                found[key] = pick(row)
    return found


def _first_start(rows):
    """Map each request key of ``rows`` to the earliest span start."""
    found = {}
    for row in rows:
        for key in (row[5] or "").split(","):
            if key and (key not in found or row[2] < found[key]):
                found[key] = row[2]
    return found


def request_segments(server, client, calls) -> Dict[str, List[float]]:
    """Split each open-loop request's latency into named segments.

    ``calls`` holds ``(key, due, sent, done)``; server and client spans
    are joined to it by usage id on the shared monotonic clock.  The
    ``*unattributed`` segments are time no wrapped layer covers:
    socket transit plus event-loop wake-ups.
    """
    last = operator.itemgetter(3)
    # Frames decode first, payloads after: the earliest keyed decode
    # span of a request starts when its frame was read.
    srv_in = _first_start(server.of("protocol.decode"))
    sub_end = _by_key(server.of("service.submit"), last)
    drain = _by_key(server.of("service.drain"), lambda row: (row[2], row[3]))
    srv_out = _by_key(server.of("server.drain"), last)
    sent = _by_key(client.of("client.drain"), last)
    cli_in = _first_start(client.of("client.decode"))
    dec_end = _by_key(client.of("client.decode"), last)
    segments: Dict[str, List[float]] = {
        name: [] for name in (
            "driver.late", "client.send", "net.up.unattributed",
            "server.ingest", "service.queue", "service.drain",
            "server.respond", "net.down.unattributed", "client.decode",
            "client.wake.unattributed",
        )
    }
    for key, due, started, done in calls:
        try:
            stamps = [
                due, started, sent[key], srv_in[key], sub_end[key],
                drain[key][0], drain[key][1], srv_out[key], cli_in[key],
                dec_end[key], done,
            ]
        except KeyError:
            continue
        for name, (a, b) in zip(segments, zip(stamps, stamps[1:])):
            segments[name].append(max(0.0, b - a))
    return segments


def wire_layers(server_dump, client_dump, closed_window, open_window, calls,
                report) -> tuple:
    """Return the wire per-layer metrics of one traced session, and the
    mean open-loop latency segments (microseconds per request)."""
    from spans import Spans

    srv = Spans(server_dump["spans"], *closed_window)
    cli = Spans(client_dump["spans"], *closed_window)
    requests = srv.size("service.drain")
    us = 1e6
    flushes = [row for row in srv.of("server.flush") if row[6]]
    headroom_rows = [
        row for row in srv.of("kernel.headroom")
        if srv.parent_layer(row) != "kernel.headroom_batch"
    ]
    headroom_queries = len(headroom_rows) + srv.size("kernel.headroom_batch")
    headroom_time = sum(r[3] - r[2] for r in headroom_rows) + srv.total(
        "kernel.headroom_batch"
    )
    drains = [row for row in srv.of("service.drain") if row[6]]
    encode_frames = [r for r in srv.of("protocol.encode") if r[6] > 1]
    request_frames = [r for r in cli.of("client.encode") if r[6] > 1]
    metrics = {
        "protocol.encode_us_per_frame": us * _ratio(
            srv.self_time("protocol.encode"), len(encode_frames)
        ),
        "protocol.decode_us_per_frame": us * _ratio(
            srv.self_time("protocol.decode"), srv.size("service.submit")
        ),
        "protocol.request_bytes": _ratio(
            sum(r[6] for r in request_frames), len(request_frames)
        ),
        "protocol.response_bytes": _ratio(
            sum(r[6] for r in encode_frames), len(encode_frames)
        ),
        "client.writes_per_req": _ratio(
            cli.calls("client.write"), len(request_frames)
        ),
        "client.drains_per_req": _ratio(
            cli.calls("client.drain"), len(request_frames)
        ),
        "server.writes_per_req": _ratio(srv.calls("server.write"), requests),
        "server.drains_per_req": _ratio(srv.calls("server.drain"), requests),
        "server.reqs_per_flush": _ratio(
            sum(r[6] for r in flushes), len(flushes)
        ),
        "server.hop_us_per_flush": us * _ratio(
            sum(r[3] - r[2] for r in flushes) - srv.total("service.drain"),
            len(flushes),
        ),
        "service.submit_us": us * _ratio(
            srv.self_time("service.submit"), srv.calls("service.submit")
        ),
        "service.drain_us_per_req": us * _ratio(
            srv.self_time("service.drain"), requests
        ),
        "service.reqs_per_drain": _ratio(requests, len(drains)),
        "executor.hop_us_per_drain": us * _ratio(
            srv.total("service.drain") - srv.total("shard.process_pending"),
            len(drains),
        ),
        "shard.process_pending_us_per_req": us * _ratio(
            srv.self_time("shard.process_pending"), requests
        ),
        "match.us_per_call": us * _ratio(srv.total("match"), srv.calls("match")),
        "match.cache_hit_ratio": _ratio(
            report["cache_hits"], report["cache_hits"] + report["cache_misses"]
        ),
        "kernel.headroom_us_per_call": us * _ratio(headroom_time, headroom_queries),
        "kernel.insert_us_per_call": us * _ratio(
            srv.total("kernel.insert"), srv.calls("kernel.insert")
        ),
        "kernel.revalidate_us_per_call": us * _ratio(
            srv.total("kernel.revalidate"), srv.calls("kernel.revalidate")
        ),
        "kernel.masks_per_insert": _ratio(
            srv.size("kernel.masks"), srv.calls("kernel.insert")
        ),
        "log.append_us_per_call": us * _ratio(
            srv.self_time("log.append"), srv.calls("log.append")
        ),
    }
    # Equations over the whole session (the server counts them itself).
    everything = Spans(server_dump["spans"])
    metrics["kernel.equations_per_admission"] = _ratio(
        report["equations_checked"], everything.calls("kernel.insert")
    )
    # Queue wait and the latency split come from the open loop.
    open_srv = Spans(server_dump["spans"], *open_window)
    open_cli = Spans(client_dump["spans"], *open_window)
    submitted = _by_key(open_srv.of("service.submit"), lambda row: row[3])
    started = _by_key(open_srv.of("service.drain"), lambda row: row[2])
    waits = [started[k] - t for k, t in submitted.items() if k in started]
    metrics["service.queue_wait_us"] = us * _ratio(sum(waits), len(waits))
    segments = request_segments(open_srv, open_cli, calls)
    total = sum(sum(values) for values in segments.values())
    unattributed = sum(
        sum(values) for name, values in segments.items()
        if name.endswith("unattributed")
    )
    metrics["trace.unattributed_share"] = _ratio(unattributed, total)
    means = {
        name: us * _ratio(sum(values), len(values))
        for name, values in segments.items()
    }
    return metrics, means


def audit_layers(dump, wall_s: float) -> Dict[str, float]:
    """Compute the audit per-layer metrics from one traced audit."""
    from spans import Spans

    spans = Spans(dump["spans"])
    validate_s = spans.total("audit.validate")
    equations = spans.size("audit.validate")
    covered = sum(
        spans.total(layer)
        for layer in ("audit.group", "audit.build", "audit.divide", "audit.validate")
    )
    return {
        "audit.group_s": spans.total("audit.group"),
        "audit.build_s": spans.self_time("audit.build"),
        "audit.divide_s": spans.total("audit.divide"),
        "audit.validate_s": validate_s,
        "audit.equations": float(equations),
        "audit.equations_per_s": _ratio(equations, validate_s),
        # The audit's whole wall time is its latency; the four steps
        # should cover it.
        "trace.unattributed_share": max(0.0, 1.0 - _ratio(covered, wall_s)),
    }


# ----------------------------------------------------------------------
# Workload runners
# ----------------------------------------------------------------------
def launch_server(args, trace: int = 0) -> tuple:
    flip = ["--flip"] if args.flip_verdict else []
    launched = Launched("serve", args, "--trace", str(trace), *flip)
    return launched, launched.wait_ready()


async def measure_wire(args, workload, inputs, feed, out) -> List[Session]:
    """The untraced wire run: every end-to-end metric."""
    seconds = args.seconds
    # Set-up launches and the short audits behind audit_s are spread
    # over the run (start, between the phases, end), so their
    # medians span the host's speed swings instead of sampling one.
    import audit

    log = inputs.audit_log()
    validator, _seconds = audit.setup(inputs.pool)
    audits: List[float] = []

    def audit_burst() -> None:
        with frozen_driver_heap():
            started = time.perf_counter()
            while time.perf_counter() - started < AUDIT_BURST_S:
                audits.append(audit.audit(validator, log)[1])

    setups: List[float] = []

    def setup_launches(count: int) -> None:
        for _ in range(count):
            launched, _port = launch_server(args)
            setups.append(launched.setup_s)
            launched.stop()
            out["problems"].extend(launched.problems)
            out["failed"] += len(launched.problems)

    audit_burst()
    setup_launches(SETUP_REPEATS // 2)
    launched, port = launch_server(args)
    setups.append(launched.setup_s)
    session = Session(launched, port)
    await session.connect()
    closed = workload.closed_share * seconds
    warm = 0.1 * closed
    await warm_up(session, feed, warm, closed - warm)
    # The closed and open loops alternate in ROUNDS rounds, so each
    # phase spans the whole run, not one spell of the host.
    samples: list = []
    completed, elapsed, server_cpu, driver_cpu = 0, 0.0, 0.0, 0.0
    for round_ in range(ROUNDS):
        pids = launched.pids()
        cpu0, driver0 = tree_cpu_seconds(pids), time.process_time()
        count, span = await closed_loop(session, feed, (closed - warm) / ROUNDS)
        server_cpu += tree_cpu_seconds(launched.pids()) - cpu0
        driver_cpu += time.process_time() - driver0
        completed += count
        elapsed += span
        if round_ == ROUNDS // 2:
            audit_burst()
        samples += await open_loop(
            session, feed, workload.open_rate, (seconds - closed) / ROUNDS
        )
    out["throughput_rps"] = completed / elapsed
    out["cpu_us_per_req"] = 1e6 * _ratio(server_cpu, completed)
    out["closed"] = (completed, elapsed)
    out["driver_cpu_us_per_req"] = 1e6 * _ratio(driver_cpu, completed)
    out["driver_busy_share"] = driver_cpu / elapsed
    out["latencies"] = [latency for latency, _late in samples]
    if samples:
        out["latency_ms"] = 1e3 * statistics.median(out["latencies"])
    out["lateness"] = [late for _latency, late in samples]
    launched.note_children()
    out["peak_rss_mb"] = tree_peak_rss_mb(launched.pids())
    await session.close()
    report = launched.stop()
    if report is not None:
        out["server"] = {key: report[key] for key in ("executor", "served")}
    setup_launches(SETUP_REPEATS - 1 - SETUP_REPEATS // 2)
    audit_burst()
    out["setup_s"] = statistics.median(setups)
    out["audit_s"] = statistics.median(audits)
    return [session]


async def trace_wire(args, workload, feed, out) -> List[Session]:
    """The traced wire run: every per-layer metric."""
    from spans import Recorder

    seconds = args.seconds

    # Untraced baseline for trace.overhead, then the traced session.
    launched, port = launch_server(args)
    session = Session(launched, port)
    await session.connect()
    await warm_up(session, feed, 0.05 * seconds, 0.2 * seconds)
    cpu0 = time.process_time()
    completed, elapsed = await closed_loop(session, feed, 0.2 * seconds)
    out["driver_cpu_us_per_req"] = 1e6 * _ratio(
        time.process_time() - cpu0, completed
    )
    untraced_rps = completed / elapsed
    await session.close()
    launched.stop()
    launched, port = launch_server(args, trace=1)
    traced = Session(launched, port)
    recorder = Recorder()
    trace_client(recorder)
    await traced.connect()
    await warm_up(traced, feed, 0.05 * seconds, 0.2 * seconds)
    closed_start = time.perf_counter()
    completed, elapsed = await closed_loop(traced, feed, 0.2 * seconds)
    closed_end = time.perf_counter()
    out["trace_overhead"] = _ratio(untraced_rps, completed / elapsed)
    calls: list = []
    open_start = time.perf_counter()
    samples = await open_loop(
        traced, feed, workload.open_rate, 0.5 * seconds, calls
    )
    open_end = time.perf_counter()
    out["lateness"] = [late for _latency, late in samples]
    await traced.close()
    recorder.unwrap()
    report = launched.stop()
    if report is not None:
        out["layers"], out["segments"] = wire_layers(
            report["trace"], recorder.dump(),
            (closed_start, closed_end), (open_start, open_end),
            calls, report,
        )
    return [session, traced]


def check_sessions(inputs, sessions: List[Session], out: dict) -> None:
    """Count failed requests, wrong outputs and leaks of every session."""
    for session in sessions:
        out["problems"].extend(session.launched.problems)
        out["attempted"] += len(session.sent)
        out["failed"] += sum(session.errors.values())
        if session.errors:
            out["problems"].append(f"request failures: {session.errors}")
        wrong = verify_wire(inputs.pool, session, out["problems"])
        if wrong:
            out["problems"].append(f"{wrong} wrong output(s)")
        out["failed"] += wrong
        out["licenses_per_req"] = _ratio(
            sum(len(o.license_set) for o in session.outcomes.values()),
            len(session.outcomes),
        )
        out["failed"] += len(session.launched.problems)


def run_wire(args, workload, inputs) -> dict:
    out = {"problems": [], "attempted": 0, "failed": 0}
    feed = Feed(inputs)
    drive = trace_wire(args, workload, feed, out) if args.trace else (
        measure_wire(args, workload, inputs, feed, out)
    )
    check_sessions(inputs, asyncio.run(drive), out)
    if args.trace:
        # The traced offline audit of this pool's Section 5 log.
        import audit
        from spans import Recorder

        log = inputs.audit_log()
        recorder = Recorder()
        audit.trace(recorder)
        with frozen_driver_heap():
            started = time.perf_counter()
            validator, _seconds = audit.setup(inputs.pool)
            audit.audit(validator, log)
            wall = time.perf_counter() - started
        recorder.unwrap()
        out["audit_layers"] = audit_layers(recorder.dump(), wall)
    return out


def run_audit(args, workload, inputs) -> dict:
    """The offline-audit workload: the audit runs in a launcher process;
    its violations must equal the independent grouped-zeta engine's."""
    import audit
    from repro.core.grouped_zeta import GroupedZetaValidator

    out = {"problems": [], "attempted": 0, "failed": 0}
    log = inputs.audit_log()
    expected = audit.violations(GroupedZetaValidator.from_pool(inputs.pool).validate(log))
    cpu0 = time.process_time()
    launched = Launched(
        "audit", args, "--seconds", str(args.seconds), "--trace", str(args.trace),
    )
    report = launched.wait(timeout=max(150.0, 6 * args.seconds))
    driver_cpu = time.process_time() - cpu0
    out["problems"].extend(launched.problems)
    out["failed"] += len(launched.problems)
    if report is None:
        out["attempted"] = 1
        out["failed"] = max(1, out["failed"])
        return out
    audits = report["audits"]
    out["attempted"] += len(audits)
    if report["violations"] != expected:
        out["problems"].append(
            f"audit violations differ from grouped-zeta: {len(report['violations'])}"
            f" vs {len(expected)}"
        )
        out["failed"] += len(audits)
    records = report["records"]
    out["records"] = records
    out["violations"] = len(expected)
    out["equations"] = report["equations"]
    out["setup_s"] = statistics.median(report["setups"])
    out["audit_s"] = statistics.median(audits)
    # Throughput, latency and CPU are totals over all the run's audits.
    # Audit times cluster by the host's spell (fast or up to 1.7x slow),
    # so their median jumps between clusters from run to run; their
    # mean moves with the share of slow time.  Ten runs of one code gave
    # a median spread of 34% against 18% for the mean.
    out["throughput_rps"] = records * len(audits) / sum(audits)
    out["latency_ms"] = 1e3 * statistics.fmean(audits)
    out["cpu_us_per_req"] = 1e6 * sum(report["cpu_s"]) / (records * len(audits))
    out["peak_rss_mb"] = report["peak_rss_mb"]
    out["driver_cpu_us_per_req"] = 1e6 * driver_cpu / (records * len(audits))
    if args.trace:
        wall = report["traced_span"][1] - report["traced_span"][0]
        out["audit_layers"] = audit_layers(report["trace"], wall)
        out["trace_overhead"] = _ratio(report["traced_audit_s"], audits[0])
    return out


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Return a SHA-256 over ``src/`` (the checkout may not be a git
    repository, so the commit alone cannot identify the code)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
    }


def end_to_end(out: dict) -> Dict[str, float]:
    return {
        "setup_s": out["setup_s"],
        "throughput_rps": out["throughput_rps"],
        "latency_ms": out["latency_ms"],
        "cpu_us_per_req": out["cpu_us_per_req"],
        "peak_rss_mb": out["peak_rss_mb"],
    }


def per_layer(kind: str, out: dict) -> Dict[str, float]:
    from catalog import PER_LAYER

    values = {name: 0.0 for name in PER_LAYER}
    values.update(out.get("audit_layers", {}))
    # On the wire workloads the request path, not the audit, is traced.
    values.update(out.get("layers", {}))
    values["driver.cpu_us_per_req"] = out.get("driver_cpu_us_per_req", 0.0)
    values["trace.overhead"] = out.get("trace_overhead", 0.0)
    if kind == "wire":
        values["match.licenses_per_req"] = out.get("licenses_per_req", 0.0)
        values["driver.late_p99_ms"] = 1e3 * nearest_rank(out["lateness"], 0.99)
    return values


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the audit log and open-loop rate (self-test only)",
    )
    parser.add_argument(
        "--flip-verdict", action="store_true",
        help="make the server answer one request wrongly (self-test only)",
    )
    args = parser.parse_args(argv)

    from catalog import END_TO_END, PER_LAYER
    from workloads import Inputs, scaled

    meta = metadata(args)
    print("# run " + json.dumps(meta, sort_keys=True), flush=True)
    workload = scaled(WORKLOADS[args.workload], args.scale)
    inputs = Inputs(workload, args.seed)
    if workload.kind == "wire":
        out = run_wire(args, workload, inputs)
    else:
        out = run_audit(args, workload, inputs)
    attempted = max(1, out["attempted"])
    failed = min(out["failed"], attempted)
    correct = failed == 0
    if not correct and "latency_ms" not in out and not args.trace:
        metrics: Dict[str, dict] = {}
    elif args.trace:
        values = per_layer(workload.kind, out)
        metrics = {
            name: {"value": values[name], "unit": PER_LAYER[name][0]}
            for name in PER_LAYER
        }
    else:
        values = end_to_end(out)
        metrics = {
            name: {"value": values[name], "unit": END_TO_END[name][0]}
            for name in END_TO_END
        }
    print_report(args, workload, out, metrics, attempted, failed)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def print_report(args, workload, out, metrics, attempted, failed) -> None:
    print(f"# failed_share {failed / attempted:.6f} ({failed} of {attempted})")
    for problem in out["problems"]:
        print(f"# problem: {problem}")
    if "driver_busy_share" in out:
        bound = out["driver_busy_share"] >= DRIVER_BOUND_SHARE
        print(
            f"# driver: {out['driver_cpu_us_per_req']:.1f} us CPU/req, "
            f"busy {out['driver_busy_share']:.0%} of a core"
            + (" -- DRIVER-BOUND: the driver, not the program, limited "
               "the closed loop" if bound else "")
        )
    if "server" in out:
        print(f"# server: executor {out['server']['executor']}, "
              f"{out['server']['served']} requests served")
    if "closed" in out:
        completed, elapsed = out["closed"]
        print(f"# closed loop: {completed} verdicts in {elapsed:.2f} s "
              f"over {ROUNDS} rounds, {USERS} users on {CONNECTIONS} connections")
    if workload.kind == "wire" and out.get("latencies"):
        # The p99 is printed, not bounded: on a 2-vCPU VM with noisy
        # neighbours its run-to-run spread is about half its median.
        lat = out["latencies"]
        print(f"# open-loop latency over {len(lat)} samples: "
              f"p50 {1e3 * nearest_rank(lat, 0.5):.3f} ms, "
              f"p99 {1e3 * windowed_p99(lat):.3f} ms")
    if "audit_s" in out:
        # Printed, not bounded (see perfbench/README.md).
        print(f"# audit_s {out['audit_s']:.4f} s (build + validate, median)")
    if out.get("lateness"):
        late = out["lateness"]
        print(f"# open-loop generator late: p50 {1e3 * nearest_rank(late, 0.5):.3f} ms, "
              f"p99 {1e3 * nearest_rank(late, 0.99):.3f} ms over {len(late)} sends")
    for name, value in out.get("segments", {}).items():
        print(f"# segment {name:28s} {value:10.1f} us/req (open loop)")
    for name, entry in metrics.items():
        print(f"# {name:36s} {entry['value']:14.4f} {entry['unit']}")


if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    sys.exit(main())
