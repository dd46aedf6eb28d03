"""AdmissionServer behaviour: backpressure, drain, telemetry, errors."""

import asyncio

import pytest

from repro.errors import ServiceError, TransportError, WireOverloadedError
from repro.net import protocol
from repro.net.client import AdmissionClient
from repro.net.protocol import FrameDecoder, encode_frame
from repro.net.server import AdmissionServer, WireServerConfig
from repro.obs.events import (
    EVENT_CONN_CLOSE,
    EVENT_CONN_OPEN,
    EVENT_DRAIN,
    EventLog,
)
from repro.service import ServiceConfig, ValidationService


def run(coro):
    return asyncio.run(coro)


async def _start_server(pool, *, events=None, **config_kwargs):
    service = ValidationService(pool, ServiceConfig(), events=events)
    server = AdmissionServer(
        service, WireServerConfig(**config_kwargs), events=events
    )
    host, port = await server.start()
    return server, service, host, port


def _hold_flushes(server):
    """Stop the read loop's flush after each chunk, so submissions pile
    up in the window; ``AdmissionServer.flush(server)`` releases them."""

    async def held() -> int:
        return 0

    server.flush = held


class TestConfigValidation:
    def test_bad_max_inflight(self):
        with pytest.raises(ServiceError, match="max_inflight"):
            WireServerConfig(max_inflight=0)


class TestBasicServing:
    def test_handshake_reports_pool_shape(self, workload):
        pool, _stream = workload

        async def scenario():
            server, service, host, port = await _start_server(pool)
            try:
                client = AdmissionClient(host, port)
                info = await client.connect()
                assert info["version"] == protocol.PROTOCOL_VERSION
                assert info["licenses"] == len(pool)
                assert info["groups"] == service.group_count
                assert client.negotiated_version == protocol.PROTOCOL_VERSION
                await client.ping()
                await client.close()
            finally:
                await server.shutdown()
                service.close()

        run(scenario())

    def test_verdicts_flow_and_counters_advance(self, workload):
        pool, stream = workload

        async def scenario():
            server, service, host, port = await _start_server(pool)
            try:
                async with AdmissionClient(host, port) as client:
                    outcomes = [
                        await client.request(usage) for usage in stream[:20]
                    ]
                assert len(outcomes) == 20
                assert server.requests_served == 20
                assert server.in_flight == 0
                counters = service.metrics.counter("wire_requests_total")
                assert counters.value(("submitted",)) == 20
                return outcomes
            finally:
                await server.shutdown()
                service.close()

        outcomes = run(scenario())
        assert any(outcome.accepted for outcome in outcomes)


class TestBackpressure:
    def test_window_saturation_yields_overloaded_not_disconnect(self, workload):
        pool, stream = workload

        async def scenario():
            # Flushes held: submissions accumulate until we flush, so
            # the 4-slot window saturates deterministically.
            server, service, host, port = await _start_server(
                pool, max_inflight=4
            )
            _hold_flushes(server)
            try:
                client = AdmissionClient(
                    host, port, retries=0, timeout=5.0
                )
                await client.connect()
                sent = []
                for usage in stream[:4]:
                    request_id = client._allocate_id()
                    future = client._register(request_id)
                    await client._send(
                        encode_frame(
                            protocol.MSG_REQUEST,
                            request_id,
                            protocol.usage_to_payload(usage),
                        )
                    )
                    sent.append(future)
                await asyncio.sleep(0.05)
                assert server.in_flight == 4

                # Fifth request: window full -> wire OVERLOADED.
                with pytest.raises(WireOverloadedError):
                    await client.request(stream[4])
                assert client.stats.overloaded == 1

                # The connection survived: flush the window, then the
                # same client keeps working on the same connection.
                flushed = await AdmissionServer.flush(server)
                assert flushed == 4
                for future in sent:
                    frame = await asyncio.wait_for(future, 5.0)
                    assert frame.msg_type == protocol.MSG_RESPONSE
                task = asyncio.ensure_future(client.request(stream[5]))
                await asyncio.sleep(0.05)
                await AdmissionServer.flush(server)
                outcome = await asyncio.wait_for(task, 5.0)
                assert outcome.usage_id == stream[5].license_id
                await client.close()
            finally:
                await server.shutdown()
                service.close()

        run(scenario())

    def test_overloaded_retry_succeeds_after_flush(self, workload):
        pool, stream = workload

        async def scenario():
            server, service, host, port = await _start_server(
                pool, max_inflight=2
            )
            _hold_flushes(server)
            try:
                delays = []

                async def draining_sleep(delay):
                    # Stand-in for asyncio.sleep that also frees the
                    # window, emulating the server catching up while the
                    # client backs off.
                    delays.append(delay)
                    await AdmissionServer.flush(server)

                client = AdmissionClient(
                    host, port, retries=3, sleep=draining_sleep
                )
                await client.connect()
                # Fill the window (responses arrive only on flush).
                fill = []
                for usage in stream[:2]:
                    request_id = client._allocate_id()
                    fill.append(client._register(request_id))
                    await client._send(
                        encode_frame(
                            protocol.MSG_REQUEST,
                            request_id,
                            protocol.usage_to_payload(usage),
                        )
                    )
                await asyncio.sleep(0.05)
                assert server.in_flight == 2

                # This request gets OVERLOADED once, backs off (which
                # flushes), then succeeds on the retry. The final flush
                # answers the retry itself.
                task = asyncio.ensure_future(client.request(stream[2]))
                await asyncio.sleep(0.05)
                await AdmissionServer.flush(server)
                outcome = await task
                assert outcome.usage_id == stream[2].license_id
                assert client.stats.retries >= 1
                assert delays and all(delay > 0 for delay in delays)
                await client.close()
            finally:
                await server.shutdown()
                service.close()

        run(scenario())


class TestGracefulDrain:
    def test_drain_mid_batch_answers_pending_then_closes(self, workload):
        pool, stream = workload

        async def scenario():
            events = EventLog()
            server, service, host, port = await _start_server(
                pool, events=events
            )
            _hold_flushes(server)
            try:
                client = AdmissionClient(host, port)
                await client.connect()
                pending = []
                for usage in stream[:6]:
                    request_id = client._allocate_id()
                    pending.append(client._register(request_id))
                    await client._send(
                        encode_frame(
                            protocol.MSG_REQUEST,
                            request_id,
                            protocol.usage_to_payload(usage),
                        )
                    )
                await asyncio.sleep(0.05)
                assert server.in_flight == 6

                del server.flush  # the drain flushes through the real one
                await server.shutdown()

                # Every in-flight request was answered before the close.
                for future in pending:
                    frame = await asyncio.wait_for(future, 5.0)
                    assert frame.msg_type == protocol.MSG_RESPONSE
                assert server.in_flight == 0
                assert server.requests_served == 6
                assert server.connections_open == 0

                kinds = [record["kind"] for record in events.tail()]
                assert EVENT_CONN_OPEN in kinds
                assert EVENT_DRAIN in kinds
                assert EVENT_CONN_CLOSE in kinds
                drain = next(
                    record
                    for record in events.tail()
                    if record["kind"] == EVENT_DRAIN
                )
                assert drain["in_flight_flushed"] == 6
                await client.close()
            finally:
                service.close()

        run(scenario())

    def test_shutdown_is_idempotent_and_wait_drained_unblocks(self, workload):
        pool, _stream = workload

        async def scenario():
            server, service, host, port = await _start_server(pool)
            waiter = asyncio.ensure_future(server.wait_drained())
            await server.shutdown()
            await server.shutdown()  # second call is a no-op
            await asyncio.wait_for(waiter, 5.0)
            assert service.metrics.counter("wire_drains_total").value() == 1
            service.close()

        run(scenario())

    def test_requests_during_drain_get_shutting_down(self, workload):
        pool, stream = workload

        async def scenario():
            server, service, host, port = await _start_server(pool)
            client = AdmissionClient(host, port)
            await client.connect()
            # Force the draining flag without closing connections yet.
            server._draining = True
            with pytest.raises(TransportError, match="shutting_down"):
                await client.request(stream[0])
            server._draining = False
            await client.close()
            await server.shutdown()
            service.close()

        run(scenario())


class TestProtocolHygiene:
    def test_request_before_hello_is_rejected(self, workload):
        pool, stream = workload

        async def scenario():
            server, service, host, port = await _start_server(pool)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    encode_frame(
                        protocol.MSG_REQUEST,
                        1,
                        protocol.usage_to_payload(stream[0]),
                    )
                )
                await writer.drain()
                decoder = FrameDecoder()
                frames = []
                while not frames:
                    frames = decoder.feed(await reader.read(4096))
                assert frames[0].msg_type == protocol.MSG_ERROR
                assert (
                    frames[0].payload["code"] == protocol.ERR_BAD_REQUEST
                )
                writer.close()
                await writer.wait_closed()
            finally:
                await server.shutdown()
                service.close()

        run(scenario())

    def test_garbage_bytes_get_error_response_and_counter(self, workload):
        pool, _stream = workload

        async def scenario():
            server, service, host, port = await _start_server(pool)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET / HTTP/1.1\r\n\r\n")
                await writer.drain()
                decoder = FrameDecoder()
                frames = []
                while not frames:
                    chunk = await reader.read(4096)
                    if not chunk:
                        break
                    frames = decoder.feed(chunk)
                assert frames and frames[0].msg_type == protocol.MSG_ERROR
                writer.close()
                await writer.wait_closed()
                assert (
                    service.metrics.counter(
                        "wire_protocol_errors_total"
                    ).value()
                    == 1
                )
            finally:
                await server.shutdown()
                service.close()

        run(scenario())

    def test_bad_request_payload_keeps_connection_alive(self, workload):
        pool, stream = workload

        async def scenario():
            server, service, host, port = await _start_server(pool)
            try:
                client = AdmissionClient(host, port)
                await client.connect()
                request_id = client._allocate_id()
                future = client._register(request_id)
                await client._send(
                    encode_frame(
                        protocol.MSG_REQUEST, request_id, {"not": "a usage"}
                    )
                )
                frame = await asyncio.wait_for(future, 5.0)
                assert frame.msg_type == protocol.MSG_ERROR
                assert frame.payload["code"] == protocol.ERR_BAD_REQUEST
                # Same connection still serves good requests.
                outcome = await client.request(stream[0])
                assert outcome.usage_id == stream[0].license_id
                await client.close()
            finally:
                await server.shutdown()
                service.close()

        run(scenario())
