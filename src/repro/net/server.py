"""Asyncio TCP admission server over a :class:`ValidationService`.

:class:`AdmissionServer` is the wire-level face of the serving layer --
the paper's distributor node answering online admission checks over a
real socket.  Design points:

* **Pure transport.**  The server decodes requests, calls
  :meth:`ValidationService.submit`, and batches completions through
  :meth:`ValidationService.drain`.  It never makes an admission decision
  itself, so verdicts are byte-identical to in-process admission for the
  same per-group request order (the parity tests pin this down).
* **Bounded in-flight window.**  At most ``max_inflight`` requests may
  be submitted-but-unanswered; past that, the server answers a wire
  ``OVERLOADED`` error -- the same shape a full shard queue
  (:class:`repro.errors.ServiceOverloadedError`) produces -- and keeps
  the connection alive.  Backpressure is always an explicit response,
  never a dropped connection or an unbounded buffer.
* **Read-side backpressure.**  Connections are read in bounded chunks
  through asyncio's flow-controlled streams (``limit=`` on the reader),
  so one firehosing client cannot balloon server memory.
* **Batched flushes.**  Requests parsed from one TCP read chunk are
  submitted together and completed by a single service drain, so
  pipelining clients get the same batch-amortized revalidation the
  in-process :meth:`ValidationService.process` loop enjoys.
* **Graceful drain.**  :meth:`shutdown` (also armed for SIGTERM/SIGINT
  by the ``repro serve`` CLI) stops accepting, flushes every in-flight
  request, emits a ``drain`` event, and only then closes connections.
* **Distributed tracing (protocol v2).**  REQUEST frames may carry a
  client trace context; the server threads it into
  :meth:`ValidationService.submit` so server spans parent under the
  client's wire span, and echoes a per-request phase breakdown
  (:class:`repro.obs.distrib.ServerTiming`) in RESPONSE frames.  Both
  are negotiated away transparently for v1 peers.
* **Live introspection (protocol v2).**  The ADMIN message family
  answers metrics-snapshot, health, SLO, top-N-slowest and event-tail
  queries over the same port (see :meth:`admin_snapshot` and the
  ``repro admin`` CLI) -- the monitor becomes a queryable endpoint
  instead of a file sink.
* **Telemetry.**  Connection/request counters land in the service's
  :class:`~repro.service.metrics.MetricsRegistry` (``wire_*`` names) and
  ``conn_open``/``conn_close``/``drain`` events in the optional
  :class:`~repro.obs.events.EventLog` -- strictly out-of-band, like all
  observability in this repository.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import (
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.net import protocol
from repro.net.protocol import Frame, FrameDecoder
from repro.obs.events import (
    EVENT_CONN_CLOSE,
    EVENT_CONN_OPEN,
    EVENT_DRAIN,
    EventLog,
)
from repro.service.service import ValidationService

__all__ = ["AdmissionServer", "WireServerConfig"]

logger = logging.getLogger(__name__)

#: High-water mark of each connection's stream reader -- the
#: per-connection read-side backpressure bound, in bytes.
READ_LIMIT = 1 << 16


@dataclass(frozen=True)
class WireServerConfig:
    """Tuning knobs of an :class:`AdmissionServer`.

    Attributes
    ----------
    host, port:
        Listen address.  Port ``0`` binds an ephemeral port; read the
        actual one from :attr:`AdmissionServer.address` after
        :meth:`AdmissionServer.start`.
    max_inflight:
        Bound on submitted-but-unanswered requests across all
        connections.  Arrivals beyond it get a wire ``OVERLOADED``
        error (retryable; the connection stays alive).
    auto_flush:
        When ``True`` (default), requests are flushed through the
        service as soon as the batch parsed from one read chunk has been
        submitted.  Tests set ``False`` to drive :meth:`flush` manually
        and observe window saturation deterministically.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 256
    auto_flush: bool = True

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ServiceError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )


class _Connection:
    """Per-connection bookkeeping (writer + counters)."""

    __slots__ = ("writer", "peer", "requests", "negotiated")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        peername = writer.get_extra_info("peername")
        self.peer = (
            f"{peername[0]}:{peername[1]}"
            if isinstance(peername, tuple) and len(peername) >= 2
            else str(peername)
        )
        self.requests = 0
        self.negotiated: Optional[int] = None


class AdmissionServer:
    """Wire admission front end over one :class:`ValidationService`.

    The server assumes it is the service's only submitter while running
    (drains map completions back to wire requests by sequence number).

    Examples
    --------
    ::

        service = ValidationService(pool, ServiceConfig(shards=4))
        server = AdmissionServer(service, WireServerConfig(port=0))
        host, port = await server.start()
        ...
        await server.shutdown()   # graceful drain
    """

    def __init__(
        self,
        service: ValidationService,
        config: Optional[WireServerConfig] = None,
        *,
        events: Optional[EventLog] = None,
    ):
        self.service = service
        self.config = config or WireServerConfig()
        self.events = events if events is not None else service.events
        self.metrics = service.metrics
        # The service collects a per-request phase breakdown
        # (:class:`repro.obs.distrib.ServerTiming`), echoed under the
        # ``"timing"`` key of RESPONSE frames on protocol-v2 connections;
        # v1 connections never see the key.
        service.enable_request_timings()
        monitor = service.monitor
        if monitor is not None:
            # Lets the monitor grade wire window saturation (the sixth
            # health indicator) against this server's actual capacity.
            monitor.set_wire_capacity(self.config.max_inflight)
        self._server: Optional[asyncio.base_events.Server] = None
        #: seq -> (connection, request id) for submitted, unanswered requests.
        self._pending: Dict[int, Tuple[_Connection, int]] = {}
        self._connections: Set[_Connection] = set()
        self._flush_mutex = asyncio.Lock()
        self._draining = False
        self._drained = asyncio.Event()
        self._requests_served = 0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; return the actual ``(host, port)``."""
        if self._started:
            raise ServiceError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=READ_LIMIT,
        )
        self._started = True
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        logger.info("admission server listening on %s:%d", host, port)
        return host, port

    @property
    def address(self) -> Tuple[str, int]:
        """Return the bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not listening")
        sock = self._server.sockets[0]
        return tuple(sock.getsockname()[:2])  # type: ignore[return-value]

    @property
    def in_flight(self) -> int:
        """Return submitted-but-unanswered request count."""
        return len(self._pending)

    @property
    def requests_served(self) -> int:
        """Return how many wire requests have been answered."""
        return self._requests_served

    @property
    def connections_open(self) -> int:
        """Return the number of currently open connections."""
        return len(self._connections)

    async def wait_drained(self) -> None:
        """Block until a graceful :meth:`shutdown` has completed."""
        await self._drained.wait()

    async def shutdown(self) -> None:
        """Gracefully drain: stop accepting, flush in-flight, close.

        Idempotent.  New requests arriving on still-open connections
        while the drain flushes get a ``SHUTTING_DOWN`` error response.
        Emits one ``drain`` event with the flushed in-flight count.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        flushed = len(self._pending)
        await self.flush()
        if self.events is not None:
            self.events.emit(
                EVENT_DRAIN,
                in_flight_flushed=flushed,
                requests_served=self._requests_served,
                connections=len(self._connections),
            )
        self.metrics.counter("wire_drains_total").inc()
        for connection in list(self._connections):
            await self._close_connection(connection)
        logger.info(
            "admission server drained: %d in-flight flushed, %d served",
            flushed,
            self._requests_served,
        )
        self._drained.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer)
        self._connections.add(connection)
        self.metrics.counter("wire_connections_total").inc()
        self.metrics.gauge("wire_connections_open").set(len(self._connections))
        if self.events is not None:
            self.events.emit(EVENT_CONN_OPEN, peer=connection.peer)
        decoder = FrameDecoder()
        try:
            while True:
                chunk = await reader.read(READ_LIMIT)
                if not chunk:
                    decoder.finish()
                    break
                frames = decoder.feed(chunk)
                submitted = 0
                for frame in frames:
                    submitted += await self._handle_frame(connection, frame)
                if submitted and self.config.auto_flush:
                    await self.flush()
        except ProtocolError as exc:
            logger.warning(
                "protocol error from %s: %s", connection.peer, exc
            )
            self.metrics.counter("wire_protocol_errors_total").inc()
            await self._send_error(
                connection, 0, protocol.ERR_BAD_REQUEST, str(exc)
            )
        except ServiceError as exc:
            # The service refused or broke mid-flush (closed, another
            # submitter, ...).  Frame it as INTERNAL so the peer learns
            # the admission failed instead of watching the socket drop.
            logger.error(
                "service failure on connection %s: %s", connection.peer, exc
            )
            self.metrics.counter("wire_internal_errors_total").inc()
            await self._send_error(
                connection, 0, protocol.ERR_INTERNAL, str(exc)
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            logger.info("connection from %s dropped", connection.peer)
        finally:
            await self._close_connection(connection)

    async def _handle_frame(self, connection: _Connection, frame: Frame) -> int:
        """Process one frame; return 1 if a request was submitted."""
        if frame.msg_type == protocol.MSG_HELLO:
            await self._handle_hello(connection, frame)
            return 0
        if frame.msg_type == protocol.MSG_PING:
            await self._send(
                connection,
                protocol.encode_frame(
                    protocol.MSG_PONG,
                    frame.request_id,
                    version=self._wire_version(connection),
                ),
            )
            return 0
        if frame.msg_type == protocol.MSG_ADMIN:
            await self._handle_admin(connection, frame)
            return 0
        if frame.msg_type != protocol.MSG_REQUEST:
            await self._send_error(
                connection,
                frame.request_id,
                protocol.ERR_BAD_REQUEST,
                f"unexpected message type {frame.msg_type:#x} on the "
                f"server side of the connection",
            )
            return 0
        return await self._handle_request(connection, frame)

    async def _handle_hello(self, connection: _Connection, frame: Frame) -> None:
        offered = frame.payload.get("versions")
        try:
            if not isinstance(offered, list):
                raise ProtocolError(
                    f"HELLO payload must list offered versions, got "
                    f"{offered!r}"
                )
            version = protocol.negotiate_version(offered)
        except ProtocolError as exc:
            await self._send_error(
                connection,
                frame.request_id,
                protocol.ERR_UNSUPPORTED_VERSION,
                str(exc),
            )
            return
        connection.negotiated = version
        await self._send(
            connection,
            protocol.encode_frame(
                protocol.MSG_HELLO_OK,
                frame.request_id,
                {
                    "version": version,
                    "server": "repro",
                    "groups": self.service.group_count,
                    "licenses": len(self.service.pool),
                    "shards": self.service.shard_count,
                },
                # Framed at the negotiated version: a v1-only peer must
                # be able to decode everything we send from here on.
                version=version,
            ),
        )

    async def _handle_request(self, connection: _Connection, frame: Frame) -> int:
        if connection.negotiated is None:
            await self._send_error(
                connection,
                frame.request_id,
                protocol.ERR_BAD_REQUEST,
                "REQUEST before HELLO: negotiate a version first",
            )
            return 0
        if self._draining:
            await self._send_error(
                connection,
                frame.request_id,
                protocol.ERR_SHUTTING_DOWN,
                "server is draining; no new admissions",
            )
            return 0
        try:
            usage = protocol.usage_from_payload(frame.payload)
            # The trace context only exists on v2 connections; a v1
            # client cannot have sent one, so don't even look (a stray
            # "trace" key from a v1 peer is ignored, not an error).
            context = (
                protocol.trace_context_from_payload(frame.payload)
                if connection.negotiated >= 2
                else None
            )
        except ProtocolError as exc:
            self.metrics.counter("wire_requests_total").inc(("bad_request",))
            await self._send_error(
                connection, frame.request_id, protocol.ERR_BAD_REQUEST, str(exc)
            )
            return 0
        if len(self._pending) >= self.config.max_inflight:
            self.metrics.counter("wire_requests_total").inc(("overloaded",))
            await self._send_error(
                connection,
                frame.request_id,
                protocol.ERR_OVERLOADED,
                f"in-flight window full ({self.config.max_inflight} "
                f"submitted, none drained yet); retry with backoff",
            )
            return 0
        try:
            # The service is single-submitter, and flush() runs its drain
            # on a worker thread while holding this mutex: submitting --
            # and recording the seq as in flight -- must not interleave
            # with a drain, or responses could no longer be mapped back.
            async with self._flush_mutex:
                seq = self.service.submit(usage, trace_context=context)
                self._pending[seq] = (connection, frame.request_id)
        except ServiceOverloadedError as exc:
            self.metrics.counter("wire_requests_total").inc(("overloaded",))
            await self._send_error(
                connection, frame.request_id, protocol.ERR_OVERLOADED, str(exc)
            )
            return 0
        except ServiceError as exc:
            self.metrics.counter("wire_requests_total").inc(("internal",))
            await self._send_error(
                connection, frame.request_id, protocol.ERR_INTERNAL, str(exc)
            )
            return 0
        connection.requests += 1
        self.metrics.counter("wire_requests_total").inc(("submitted",))
        # Kept current on the submit side too (not just after flushes),
        # so health evaluation sees true window occupancy under load.
        self.metrics.gauge("wire_in_flight").set(len(self._pending))
        return 1

    # ------------------------------------------------------------------
    # Admin introspection (protocol v2)
    # ------------------------------------------------------------------
    def admin_snapshot(self) -> Dict[str, object]:
        """Wire-level occupancy summary served by admin ``health``.

        This is the live feed of the wire-saturation health indicator:
        window occupancy vs. capacity, open connections, served count.
        """
        return {
            "in_flight": len(self._pending),
            "max_inflight": self.config.max_inflight,
            "connections_open": len(self._connections),
            "requests_served": self._requests_served,
            "draining": self._draining,
            "timing_echo": True,
        }

    async def _handle_admin(self, connection: _Connection, frame: Frame) -> None:
        """Answer one MSG_ADMIN query with a MSG_ADMIN_OK frame.

        ADMIN is a v2 message: it requires a negotiated v2 connection
        (v1 peers never send it -- the type postdates their codec).
        """
        if connection.negotiated is None or connection.negotiated < 2:
            await self._send_error(
                connection,
                frame.request_id,
                protocol.ERR_BAD_REQUEST,
                "ADMIN requires a negotiated protocol-v2 connection",
            )
            return
        try:
            query, limit = protocol.admin_query_from_payload(frame.payload)
        except ProtocolError as exc:
            await self._send_error(
                connection, frame.request_id, protocol.ERR_BAD_REQUEST, str(exc)
            )
            return
        monitor = self.service.monitor
        data: object
        if query == "metrics":
            self.metrics.gauge("wire_in_flight").set(len(self._pending))
            data = self.metrics.snapshot()
        elif query == "health":
            self.metrics.gauge("wire_in_flight").set(len(self._pending))
            if monitor is not None and monitor.attached:
                monitor.tick()
            data = {
                "wire": self.admin_snapshot(),
                "monitor": monitor.snapshot() if monitor is not None else None,
            }
        elif query == "slo":
            data = (
                [status.to_dict() for status in monitor.slo_statuses()]
                if monitor is not None
                else []
            )
        elif query == "slowest":
            tracer = self.service.tracer
            records = list(tracer.records()) if tracer is not None else []
            records.sort(key=lambda r: (-r.duration, r.trace_id, r.span_id))
            data = [record.to_dict() for record in records[: limit or 10]]
        else:  # "events" -- admin_query_from_payload vetted the name
            data = self.events.tail(limit or 50) if self.events is not None else []
        await self._send(
            connection,
            protocol.encode_frame(
                protocol.MSG_ADMIN_OK,
                frame.request_id,
                {"query": query, "data": data},
                version=self._wire_version(connection),
            ),
        )

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    async def flush(self) -> int:
        """Drain the service; answer every completed request.

        Returns how many responses were written.  Concurrent callers are
        serialized; a second caller whose requests were already flushed
        by the first simply finds nothing pending.
        """
        async with self._flush_mutex:
            if not self._pending:
                # Nothing of ours in flight -- nothing to map back.
                return 0
            ordered_seqs = sorted(self._pending)
            # drain() joins shard worker futures -- blocking work that
            # would stall every connection if run on the event loop.
            # The flush mutex still serializes drains, so outcome order
            # stays deterministic.
            loop = asyncio.get_running_loop()
            outcomes = await loop.run_in_executor(None, self.service.drain)
            if len(outcomes) != len(ordered_seqs):
                # The server must be the service's only submitter; a
                # mismatch means that contract broke and responses can
                # no longer be routed trustworthily.
                raise ServiceError(
                    f"drain returned {len(outcomes)} outcome(s) for "
                    f"{len(ordered_seqs)} wire request(s); the service "
                    f"has another submitter"
                )
            self.metrics.counter("wire_flushes_total").inc()
            written = 0
            for seq, outcome in zip(ordered_seqs, outcomes):
                connection, request_id = self._pending.pop(seq)
                self._requests_served += 1
                payload = protocol.outcome_to_payload(outcome)
                # Timings must be claimed for every seq (the buffer is
                # pop-once); only v2 peers get the echo on the wire.
                timing = self.service.pop_request_timing(seq)
                version = self._wire_version(connection)
                if timing is not None and version >= 2:
                    payload["timing"] = protocol.timing_to_payload(timing)
                frame = protocol.encode_frame(
                    protocol.MSG_RESPONSE, request_id, payload, version=version
                )
                await self._send(connection, frame)
                written += 1
            self.metrics.gauge("wire_in_flight").set(len(self._pending))
            return written

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    async def _send(self, connection: _Connection, data: bytes) -> None:
        writer = connection.writer
        if writer.is_closing():
            return
        try:
            writer.write(data)
            await writer.drain()
        except ConnectionError:  # peer vanished mid-write
            logger.info("write to %s failed; closing", connection.peer)

    @staticmethod
    def _wire_version(connection: _Connection) -> int:
        """Frame version for replies: the negotiated one, else v1 (the
        lowest common denominator every client can decode)."""
        return connection.negotiated if connection.negotiated is not None else 1

    async def _send_error(
        self, connection: _Connection, request_id: int, code: int, detail: str
    ) -> None:
        try:
            frame = protocol.encode_frame(
                protocol.MSG_ERROR,
                request_id,
                protocol.error_payload(code, detail),
                version=self._wire_version(connection),
            )
        except ProtocolError:  # pragma: no cover - server-built payload
            # The ERROR frame itself would not encode; there is nothing
            # better left to answer with, so log and let the connection
            # close instead of raising out of the error path.
            logger.exception(
                "could not encode ERROR frame for %s", connection.peer
            )
            return
        await self._send(connection, frame)

    async def _close_connection(self, connection: _Connection) -> None:
        if connection not in self._connections:
            return
        self._connections.discard(connection)
        self.metrics.gauge("wire_connections_open").set(len(self._connections))
        if self.events is not None:
            self.events.emit(
                EVENT_CONN_CLOSE,
                peer=connection.peer,
                requests=connection.requests,
            )
        writer = connection.writer
        if not writer.is_closing():
            writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:  # pragma: no cover - racy peer teardown
            pass
