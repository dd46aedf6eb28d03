"""Asyncio admission client: deadlines, bounded retry, pipelining.

:class:`AdmissionClient` speaks the :mod:`repro.net.protocol` framing to
an :class:`~repro.net.server.AdmissionServer`:

* **Handshake.**  :meth:`connect` sends HELLO with every locally
  supported protocol version and records the negotiated one.
* **Deadlines.**  Every request carries a client-side timeout; a server
  that never answers raises :class:`repro.errors.RequestTimeoutError`.
* **Bounded retry with jitter.**  A wire ``OVERLOADED`` error is
  backpressure, not failure: the client sleeps
  ``min(cap, base * 2^attempt) * (0.5 + u)`` with ``u`` drawn from a
  *seeded* ``random.Random`` (the repository's REP001 determinism
  discipline -- no ambient entropy) and retries up to ``retries`` times
  before raising :class:`repro.errors.WireOverloadedError`.  The sleep
  function is injectable so tests run the whole ladder in microseconds.
* **Pipelining.**  :meth:`request_many` keeps up to ``window`` requests
  in flight on one connection; responses are matched back by request id,
  so the server can batch one read chunk's worth of requests through a
  single service drain.

The client is a pure transport too: it never reorders the stream it is
given, so per-group submission order -- the thing verdicts depend on --
is exactly the caller's order.

Distributed tracing (protocol v2): give the client a
:class:`~repro.obs.trace.Tracer` and every request becomes a
``wire_request`` span whose context (trace id + span id) rides in the
REQUEST frame, so the server's ``request`` span tree parents under it --
one request, one trace, across the process boundary.  The server's
per-phase timing echo comes back on :class:`WireResult` (and as span
attributes).  Both features negotiate away cleanly against v1 servers.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Sequence

from repro.errors import (
    ProtocolError,
    RequestTimeoutError,
    TransportError,
    WireOverloadedError,
)
from repro.net import protocol
from repro.net.protocol import Frame, FrameDecoder
from repro.obs.distrib import ServerTiming, TraceContext
from repro.obs.trace import NULL_SPAN, Tracer
from repro.online.session import IssuanceOutcome

__all__ = ["AdmissionClient", "RequestStats", "WireResult"]

#: Injectable sleeper type (tests swap in a no-op recorder).
SleepFn = Callable[[float], Awaitable[None]]
#: First retry backoff, in seconds; each retry doubles it.
BACKOFF_BASE = 0.02
#: Ceiling of the retry backoff, in seconds (before jitter).
BACKOFF_CAP = 0.5


class RequestStats:
    """Mutable counters of one client's traffic (attempts, retries)."""

    __slots__ = ("requests", "responses", "retries", "overloaded", "timeouts")

    def __init__(self) -> None:
        self.requests = 0
        self.responses = 0
        self.retries = 0
        self.overloaded = 0
        self.timeouts = 0


@dataclass(frozen=True)
class WireResult:
    """One answered request: verdict plus v2 tracing extras.

    ``timing`` is ``None`` on v1 connections and ``trace_id`` when no
    client tracer is configured -- the verdict itself is identical
    either way.
    """

    outcome: IssuanceOutcome
    timing: Optional[ServerTiming] = None
    trace_id: Optional[str] = None
    attempts: int = 1


class AdmissionClient:
    """One connection to an admission server (see module docstring).

    Parameters
    ----------
    host, port:
        Server address.
    timeout:
        Per-attempt deadline in seconds.
    retries:
        Extra attempts after the first when the server answers
        ``OVERLOADED`` (so ``retries=4`` makes at most 5 attempts).
    jitter_seed:
        Seed of the jitter's ``random.Random`` on the exponential retry
        backoff (:data:`BACKOFF_BASE` doubling up to :data:`BACKOFF_CAP`).
    sleep:
        Awaitable sleeper used between retries (default
        ``asyncio.sleep``; tests inject a recorder).
    client_name:
        Advertised in HELLO, echoed in server logs.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when set, every
        request emits a ``wire_request`` span and (on v2 connections)
        propagates its context to the server.
    protocol_versions:
        Versions offered in HELLO (default: everything this codec
        speaks).  Pin to ``(1,)`` to behave exactly like a pre-v2
        client -- compatibility tests and the tracing-overhead baseline
        benchmark do.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 5.0,
        retries: int = 4,
        jitter_seed: int = 0,
        sleep: Optional[SleepFn] = None,
        client_name: str = "repro-client",
        tracer: Optional[Tracer] = None,
        protocol_versions: Sequence[int] = protocol.SUPPORTED_VERSIONS,
    ):
        if timeout <= 0:
            raise TransportError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise TransportError(f"retries must be >= 0, got {retries}")
        versions = tuple(sorted(set(protocol_versions)))
        if not versions or any(
            v not in protocol.SUPPORTED_VERSIONS for v in versions
        ):
            raise TransportError(
                f"protocol_versions must be a non-empty subset of "
                f"{protocol.SUPPORTED_VERSIONS}, got {protocol_versions!r}"
            )
        self.tracer = tracer
        self._versions = versions
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.client_name = client_name
        self.stats = RequestStats()
        self._sleep: SleepFn = sleep if sleep is not None else asyncio.sleep
        self._jitter = random.Random(jitter_seed)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._waiters: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._negotiated: Optional[int] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def connect(self) -> Dict[str, object]:
        """Open the connection and negotiate; return the HELLO_OK payload."""
        if self._writer is not None:
            raise TransportError("client is already connected")
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._reader_task = asyncio.ensure_future(self._read_loop())
        request_id = self._allocate_id()
        future = self._register(request_id)
        await self._send(
            protocol.encode_frame(
                protocol.MSG_HELLO,
                request_id,
                protocol.hello_payload(
                    client=self.client_name, versions=self._versions
                ),
                # HELLO precedes negotiation, so it is framed at the
                # lowest offered version -- the one frame any server in
                # the offer's range is guaranteed to decode.
                version=min(self._versions),
            )
        )
        frame = await self._await_frame(future, request_id)
        if frame.msg_type == protocol.MSG_ERROR:
            raise ProtocolError(
                f"handshake refused: {frame.payload.get('detail')}"
            )
        if frame.msg_type != protocol.MSG_HELLO_OK:
            raise ProtocolError(
                f"expected HELLO_OK, got message type {frame.msg_type:#x}"
            )
        version = frame.payload.get("version")
        if not isinstance(version, int) or version not in self._versions:
            raise ProtocolError(f"server negotiated unusable version {version!r}")
        self._negotiated = version
        return dict(frame.payload)

    @property
    def negotiated_version(self) -> Optional[int]:
        """Return the negotiated protocol version (None before connect)."""
        return self._negotiated

    async def close(self) -> None:
        """Close the connection; outstanding requests fail fast."""
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._fail_waiters(TransportError("client closed"))

    async def __aenter__(self) -> "AdmissionClient":
        await self.connect()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def ping(self) -> None:
        """Round-trip a PING frame (liveness probe)."""
        request_id = self._allocate_id()
        future = self._register(request_id)
        await self._send(
            protocol.encode_frame(
                protocol.MSG_PING, request_id, version=self._frame_version()
            )
        )
        frame = await self._await_frame(future, request_id)
        if frame.msg_type != protocol.MSG_PONG:
            raise ProtocolError(
                f"expected PONG, got message type {frame.msg_type:#x}"
            )

    async def request(self, usage) -> IssuanceOutcome:
        """Submit one usage license; return the server's verdict.

        Retries (with jittered exponential backoff) when the server
        answers ``OVERLOADED``; raises
        :class:`repro.errors.WireOverloadedError` once the retry budget
        is spent and :class:`repro.errors.RequestTimeoutError` when an
        attempt's deadline passes with no response at all.
        """
        return (await self.call(usage)).outcome

    async def call(self, usage) -> WireResult:
        """Like :meth:`request`, but return the full :class:`WireResult`
        (verdict + server timing echo + the request's trace id)."""
        payload = protocol.usage_to_payload(usage)
        tracer = self.tracer
        span = (
            tracer.start_span("wire_request", usage_id=usage.license_id)
            if tracer is not None
            else NULL_SPAN
        )
        if span and self._speaks_v2():
            payload["trace"] = protocol.trace_context_to_payload(
                TraceContext(span.trace_id, span.span_id)
            )
        attempts = self.retries + 1
        last_id = 0
        try:
            for attempt in range(attempts):
                request_id = self._allocate_id()
                last_id = request_id
                future = self._register(request_id)
                self.stats.requests += 1
                await self._send(
                    protocol.encode_frame(
                        protocol.MSG_REQUEST,
                        request_id,
                        payload,
                        version=self._frame_version(),
                    )
                )
                frame = await self._await_frame(future, request_id)
                outcome = self._interpret(frame)
                if outcome is not None:
                    self.stats.responses += 1
                    timing = protocol.timing_from_payload(frame.payload)
                    trace_id = None
                    if span:
                        trace_id = span.trace_id
                        self._finish_span(span, outcome, timing, attempt + 1)
                        span = NULL_SPAN
                    return WireResult(
                        outcome=outcome,
                        timing=timing,
                        trace_id=trace_id,
                        attempts=attempt + 1,
                    )
                # OVERLOADED: back off and retry on the same connection.
                self.stats.overloaded += 1
                if attempt + 1 < attempts:
                    self.stats.retries += 1
                    await self._sleep(self._backoff_delay(attempt))
        except BaseException:
            if span:
                span.set_attr("outcome", "error")
                span.end()
            raise
        if span:
            span.set_attr("outcome", "overloaded")
            span.set_attr("attempts", attempts)
            span.end()
        raise WireOverloadedError(last_id, attempts)

    async def admin(
        self, query: str, *, limit: Optional[int] = None
    ) -> Dict[str, object]:
        """Run one live-introspection query (protocol v2 only).

        ``query`` is one of :data:`repro.net.protocol.ADMIN_QUERIES`;
        ``limit`` bounds the ``slowest``/``events`` replies.  Returns
        the ADMIN_OK payload (``{"query": ..., "data": ...}``).
        """
        if not self._speaks_v2():
            raise TransportError(
                f"admin queries need a protocol-v2 connection "
                f"(negotiated: {self._negotiated})"
            )
        request_id = self._allocate_id()
        future = self._register(request_id)
        await self._send(
            protocol.encode_frame(
                protocol.MSG_ADMIN,
                request_id,
                protocol.admin_payload(query, limit=limit),
                version=self._frame_version(),
            )
        )
        frame = await self._await_frame(future, request_id)
        if frame.msg_type == protocol.MSG_ERROR:
            raise TransportError(
                f"admin query refused: {frame.payload.get('detail')}"
            )
        if frame.msg_type != protocol.MSG_ADMIN_OK:
            raise ProtocolError(
                f"expected ADMIN_OK, got message type {frame.msg_type:#x}"
            )
        return dict(frame.payload)

    def _speaks_v2(self) -> bool:
        return self._negotiated is not None and self._negotiated >= 2

    def _frame_version(self) -> int:
        """Frame version for outgoing messages: the negotiated one, or
        the lowest we offer while the handshake is still pending."""
        return (
            self._negotiated
            if self._negotiated is not None
            else min(self._versions)
        )

    @staticmethod
    def _finish_span(
        span, outcome: IssuanceOutcome, timing: Optional[ServerTiming], attempts: int
    ) -> None:
        """Close a ``wire_request`` span with verdict + timing attrs."""
        span.set_attr("outcome", "accepted" if outcome.accepted else "rejected")
        span.set_attr("attempts", attempts)
        if timing is not None:
            span.set_attr("server_queue_us", timing.queue_us)
            span.set_attr("server_match_us", timing.match_us)
            span.set_attr("server_admission_us", timing.admission_us)
            span.set_attr("server_revalidate_us", timing.revalidate_us)
            span.set_attr("server_total_us", timing.total_us)
            span.set_attr("shard", timing.shard_id)
            span.set_attr("kernel", timing.kernel)
        span.end()

    async def request_many(
        self, usages: Sequence[object], *, window: int = 64
    ) -> List[IssuanceOutcome]:
        """Pipeline a stream; return verdicts in stream order.

        Keeps up to ``window`` requests outstanding.  Requests that come
        back ``OVERLOADED`` are retried (with the same backoff budget as
        :meth:`request`) *after* the main sweep, so one saturated window
        does not head-of-line-block the rest of the stream.
        """
        if window < 1:
            raise TransportError(f"window must be >= 1, got {window}")
        results: List[Optional[IssuanceOutcome]] = [None] * len(usages)
        retry_queue: List[int] = []
        in_flight: Dict[int, int] = {}  # request id -> stream index
        futures: Dict[int, asyncio.Future] = {}
        spans: Dict[int, object] = {}  # request id -> live wire span

        async def _collect_one() -> None:
            done, _ = await asyncio.wait(
                set(futures.values()),
                return_when=asyncio.FIRST_COMPLETED,
                timeout=self.timeout,
            )
            if not done:
                raise RequestTimeoutError(next(iter(in_flight)), self.timeout)
            for future in done:
                frame = future.result()
                index = in_flight.pop(frame.request_id)
                futures.pop(frame.request_id, None)
                span = spans.pop(frame.request_id, None)
                outcome = self._interpret(frame)
                if outcome is None:
                    self.stats.overloaded += 1
                    retry_queue.append(index)
                    if span is not None:
                        # The post-sweep retry opens its own span (a new
                        # attempt is a new wire exchange).
                        span.set_attr("outcome", "overloaded")
                        span.end()
                else:
                    self.stats.responses += 1
                    results[index] = outcome
                    if span is not None:
                        self._finish_span(
                            span,
                            outcome,
                            protocol.timing_from_payload(frame.payload),
                            1,
                        )

        for index in range(len(usages)):
            while len(in_flight) >= window:
                await _collect_one()
            request_id = self._allocate_id()
            futures[request_id] = self._register(request_id)
            in_flight[request_id] = index
            self.stats.requests += 1
            payload = protocol.usage_to_payload(usages[index])
            tracer = self.tracer
            if tracer is not None:
                span = tracer.start_span(
                    "wire_request", usage_id=usages[index].license_id
                )
                if span:
                    spans[request_id] = span
                    if self._speaks_v2():
                        payload["trace"] = protocol.trace_context_to_payload(
                            TraceContext(span.trace_id, span.span_id)
                        )
            await self._send(
                protocol.encode_frame(
                    protocol.MSG_REQUEST,
                    request_id,
                    payload,
                    version=self._frame_version(),
                )
            )
        while in_flight:
            await _collect_one()
        for index in retry_queue:
            results[index] = await self.request(usages[index])
        missing = sum(1 for outcome in results if outcome is None)
        if missing:
            raise TransportError(
                f"{missing} request(s) completed with no verdict"
            )
        return [outcome for outcome in results if outcome is not None]

    def _backoff_delay(self, attempt: int) -> float:
        base = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** attempt))
        return base * (0.5 + self._jitter.random())

    def _interpret(self, frame: Frame) -> Optional[IssuanceOutcome]:
        """Map a response frame to a verdict; ``None`` means retryable."""
        if frame.msg_type == protocol.MSG_RESPONSE:
            return protocol.outcome_from_payload(frame.payload)
        if frame.msg_type == protocol.MSG_ERROR:
            code = frame.payload.get("code")
            if code == protocol.ERR_OVERLOADED:
                return None
            raise TransportError(
                f"server error {frame.payload.get('error')!r}: "
                f"{frame.payload.get('detail')}"
            )
        raise ProtocolError(
            f"unexpected message type {frame.msg_type:#x} in response"
        )

    def _allocate_id(self) -> int:
        self._next_id = (self._next_id + 1) % 0xFFFFFFFF
        return self._next_id

    def _register(self, request_id: int) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._waiters[request_id] = future
        return future

    async def _await_frame(
        self, future: asyncio.Future, request_id: int
    ) -> Frame:
        try:
            return await asyncio.wait_for(future, self.timeout)
        except asyncio.TimeoutError:
            self._waiters.pop(request_id, None)
            self.stats.timeouts += 1
            raise RequestTimeoutError(request_id, self.timeout) from None

    async def _send(self, data: bytes) -> None:
        if self._writer is None or self._closed:
            raise TransportError("client is not connected")
        try:
            self._writer.write(data)
            await self._writer.drain()
        except ConnectionError as exc:
            raise TransportError(f"connection lost mid-send: {exc}") from exc

    async def _read_loop(self) -> None:
        assert self._reader is not None
        decoder = FrameDecoder()
        try:
            while True:
                chunk = await self._reader.read(1 << 16)
                if not chunk:
                    decoder.finish()
                    self._fail_waiters(
                        TransportError("server closed the connection")
                    )
                    return
                for frame in decoder.feed(chunk):
                    waiter = self._waiters.pop(frame.request_id, None)
                    if waiter is not None and not waiter.done():
                        waiter.set_result(frame)
        except asyncio.CancelledError:
            raise
        except ProtocolError as exc:
            self._fail_waiters(exc)
        except (ConnectionError, OSError) as exc:
            self._fail_waiters(TransportError(f"connection lost: {exc}"))

    def _fail_waiters(self, exc: Exception) -> None:
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.set_exception(exc)
        self._waiters.clear()
