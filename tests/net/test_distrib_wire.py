"""Protocol v2 end to end: trace propagation, timing echo, admin channel.

The cross-process contract under test: one socket request is one trace
(the server's ``request`` subtree parents under the client's
``wire_request`` span once the journals are assembled), verdicts are
byte-identical with tracing on or off, v1 peers negotiate down and see
none of it, and a live server answers introspection queries over the
same port.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError, TransportError
from repro.net import protocol
from repro.net.client import AdmissionClient
from repro.net.loadgen import LoadGenerator, LoadgenConfig
from repro.net.server import AdmissionServer, WireServerConfig
from repro.obs.distrib import MAX_ID_LENGTH, ServerTiming, TraceContext, assemble
from repro.obs.trace import SamplingConfig, Tracer
from repro.service import ServiceConfig, ValidationService


def run(coro):
    return asyncio.run(coro)


def signature(outcomes):
    return [
        json.dumps(protocol.outcome_to_payload(outcome), sort_keys=True)
        for outcome in outcomes
    ]


async def _start_server(pool, *, tracer=None, monitor=None, **config_kwargs):
    service = ValidationService(
        pool, ServiceConfig(), tracer=tracer, monitor=monitor
    )
    server = AdmissionServer(service, WireServerConfig(**config_kwargs))
    host, port = await server.start()
    return server, service, host, port


_ID_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789._:-"
)
_ids = st.text(alphabet=_ID_ALPHABET, min_size=1, max_size=MAX_ID_LENGTH)


class TestTraceContextCodec:
    @settings(max_examples=60, deadline=None)
    @given(trace_id=_ids, span_id=_ids)
    def test_round_trip(self, trace_id, span_id):
        context = TraceContext(trace_id, span_id)
        payload = {"trace": protocol.trace_context_to_payload(context)}
        assert protocol.trace_context_from_payload(payload) == context

    def test_absent_is_none(self):
        assert protocol.trace_context_from_payload({}) is None

    @pytest.mark.parametrize(
        "entry",
        [
            "not-a-dict",
            17,
            [],
            {"trace_id": "t0"},
            {"span_id": "s0"},
            {"trace_id": "", "span_id": "s0"},
            {"trace_id": "t0", "span_id": 5},
            {"trace_id": "t 0", "span_id": "s0"},
            {"trace_id": "x" * (MAX_ID_LENGTH + 1), "span_id": "s0"},
        ],
    )
    def test_malformed_raises(self, entry):
        with pytest.raises(ProtocolError):
            protocol.trace_context_from_payload({"trace": entry})


class TestTimingCodec:
    @settings(max_examples=40, deadline=None)
    @given(
        phases=st.tuples(*[st.integers(min_value=0, max_value=10**9)] * 4),
        shard_id=st.integers(min_value=-1, max_value=1024),
        kernel=st.sampled_from(["tree", "dense", "none"]),
    )
    def test_round_trip(self, phases, shard_id, kernel):
        timing = ServerTiming(*phases, shard_id=shard_id, kernel=kernel)
        payload = {"timing": protocol.timing_to_payload(timing)}
        assert protocol.timing_from_payload(payload) == timing

    def test_absent_is_none(self):
        assert protocol.timing_from_payload({}) is None

    @pytest.mark.parametrize(
        "entry",
        [
            "text",
            {"queue_us": 1},
            {
                "queue_us": -1, "match_us": 0, "admission_us": 0,
                "revalidate_us": 0, "shard_id": 0, "kernel": "tree",
            },
            {
                "queue_us": 0, "match_us": 0, "admission_us": 0,
                "revalidate_us": 0, "shard_id": "zero", "kernel": "tree",
            },
            {
                "queue_us": 0, "match_us": 0, "admission_us": 0,
                "revalidate_us": 0, "shard_id": 0, "kernel": "",
            },
        ],
    )
    def test_malformed_raises(self, entry):
        with pytest.raises(ProtocolError):
            protocol.timing_from_payload({"timing": entry})


class TestAdminCodec:
    @pytest.mark.parametrize("query", protocol.ADMIN_QUERIES)
    def test_round_trip(self, query):
        limit = 5 if query in ("slowest", "events") else None
        payload = protocol.admin_payload(query, limit=limit)
        assert protocol.admin_query_from_payload(payload) == (query, limit)

    def test_unknown_query_raises(self):
        with pytest.raises(ProtocolError, match="unknown admin query"):
            protocol.admin_payload("reboot")
        with pytest.raises(ProtocolError, match="unknown admin query"):
            protocol.admin_query_from_payload({"query": "reboot"})

    def test_limit_rules(self):
        with pytest.raises(ProtocolError):
            protocol.admin_payload("metrics", limit=3)
        with pytest.raises(ProtocolError):
            protocol.admin_payload("events", limit=0)
        with pytest.raises(ProtocolError):
            protocol.admin_payload(
                "events", limit=protocol.MAX_ADMIN_LIMIT + 1
            )


class TestCorruptContextOnTheWire:
    def test_corrupt_trace_is_bad_request_not_disconnect(self, workload):
        pool, stream = workload

        async def scenario():
            server, service, host, port = await _start_server(pool)
            try:
                async with AdmissionClient(host, port) as client:
                    payload = protocol.usage_to_payload(stream[0])
                    payload["trace"] = {"trace_id": "", "span_id": "s0"}
                    request_id = client._allocate_id()
                    future = client._register(request_id)
                    await client._send(
                        protocol.encode_frame(
                            protocol.MSG_REQUEST, request_id, payload, version=2
                        )
                    )
                    frame = await client._await_frame(future, request_id)
                    assert frame.msg_type == protocol.MSG_ERROR
                    assert frame.payload["code"] == protocol.ERR_BAD_REQUEST
                    # The connection survives and serves the fixed request.
                    outcome = await client.request(stream[0])
                    assert outcome is not None
                errors = service.metrics.counter("wire_requests_total")
                assert errors.value(("bad_request",)) == 1
            finally:
                await server.shutdown()
                service.close()

        run(scenario())


class TestVersionNegotiation:
    def test_v1_client_negotiates_down_and_gets_no_timing(self, workload):
        pool, stream = workload

        async def scenario():
            server, service, host, port = await _start_server(pool)
            try:
                client = AdmissionClient(host, port, protocol_versions=(1,))
                info = await client.connect()
                assert info["version"] == 1
                assert client.negotiated_version == 1
                result = await client.call(stream[0])
                assert result.timing is None
                assert result.trace_id is None
                with pytest.raises(TransportError, match="protocol-v2"):
                    await client.admin("metrics")
                await client.close()
            finally:
                await server.shutdown()
                service.close()

        run(scenario())

    def test_v2_client_gets_timing_echo(self, workload):
        pool, stream = workload

        async def scenario():
            server, service, host, port = await _start_server(pool)
            try:
                async with AdmissionClient(host, port) as client:
                    assert client.negotiated_version == 2
                    result = await client.call(stream[0])
                    assert result.timing is not None
                    assert result.timing.total_us >= 0
                    assert result.timing.kernel
            finally:
                await server.shutdown()
                service.close()

        run(scenario())

    def test_bad_protocol_versions_rejected(self):
        with pytest.raises(TransportError):
            AdmissionClient("h", 1, protocol_versions=())
        with pytest.raises(TransportError):
            AdmissionClient("h", 1, protocol_versions=(9,))


class TestAdminChannel:
    def test_live_queries(self, workload):
        pool, stream = workload

        async def scenario():
            from repro.obs.monitor import Monitor, MonitorConfig

            tracer = Tracer()
            monitor = Monitor(MonitorConfig())
            server, service, host, port = await _start_server(
                pool, tracer=tracer, monitor=monitor
            )
            try:
                async with AdmissionClient(host, port) as client:
                    for usage in stream[:8]:
                        await client.request(usage)

                    metrics = await client.admin("metrics")
                    assert metrics["query"] == "metrics"
                    assert "counters" in metrics["data"]

                    health = await client.admin("health")
                    wire = health["data"]["wire"]
                    assert wire["requests_served"] == 8
                    assert wire["in_flight"] == 0
                    assert set(wire) == {
                        "in_flight", "max_inflight", "connections_open",
                        "requests_served", "draining",
                    }
                    names = [
                        entry["name"]
                        for entry in health["data"]["monitor"]["indicators"]
                    ]
                    assert "wire_saturation" in names

                    slo = await client.admin("slo")
                    assert isinstance(slo["data"], list)

                    slowest = await client.admin("slowest", limit=3)
                    assert len(slowest["data"]) == 3
                    durations = [
                        entry["duration"] for entry in slowest["data"]
                    ]
                    assert durations == sorted(durations, reverse=True)

                    tail = await client.admin("events")
                    assert isinstance(tail["data"], list)
            finally:
                await server.shutdown()
                service.close()

        run(scenario())

    def test_admin_zero_data_queries_answer_empty(self, workload):
        """A server with no tracer, events, or monitor answers the
        observability queries with empty data, not errors."""
        pool, _stream = workload

        async def scenario():
            server, service, host, port = await _start_server(pool)
            try:
                async with AdmissionClient(host, port) as client:
                    slowest = await client.admin("slowest", limit=5)
                    assert slowest["data"] == []
                    tail = await client.admin("events")
                    assert tail["data"] == []
                    slo = await client.admin("slo")
                    assert slo["data"] == []
                    health = await client.admin("health")
                    assert health["data"]["monitor"] is None
            finally:
                await server.shutdown()
                service.close()

        run(scenario())

    def test_admin_before_hello_is_rejected(self, workload):
        pool, _stream = workload

        async def scenario():
            server, service, host, port = await _start_server(pool)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    protocol.encode_frame(
                        protocol.MSG_ADMIN,
                        1,
                        protocol.admin_payload("metrics"),
                        version=1,
                    )
                )
                await writer.drain()
                decoder = protocol.FrameDecoder()
                frames = decoder.feed(await reader.read(4096))
                assert frames[0].msg_type == protocol.MSG_ERROR
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass
            finally:
                await server.shutdown()
                service.close()

        run(scenario())


class TestCrossProcessAssembly:
    def _journals(self, pool, stream, executor):
        client_tracer = Tracer(SamplingConfig())
        server_tracer = Tracer(SamplingConfig())

        async def scenario():
            service = ValidationService(
                pool, ServiceConfig(executor=executor), tracer=server_tracer
            )
            server = AdmissionServer(service, WireServerConfig())
            host, port = await server.start()
            try:
                async with AdmissionClient(
                    host, port, tracer=client_tracer
                ) as client:
                    for usage in stream:
                        await client.request(usage)
            finally:
                await server.shutdown()
            service.close()

        run(scenario())
        return client_tracer.records(), server_tracer.records()

    def _tree_signature(self, merged):
        """(trace, name, parent-name) triples -- id-free tree shape."""
        by_id = {record.span_id: record for record in merged.records}
        return sorted(
            (
                record.trace_id,
                record.name,
                by_id[record.parent_id].name
                if record.parent_id in by_id
                else None,
            )
            for record in merged.records
        )

    def test_single_request_is_one_rooted_tree(self, workload):
        pool, stream = workload
        client_records, server_records = self._journals(
            pool, stream[:1], "serial"
        )
        merged = assemble(client_records, server_records)
        assert merged.matched_pairs == 1
        assert merged.cross_traces == 1
        shared = [
            record
            for record in merged.records
            if record.trace_id == client_records[0].trace_id
        ]
        roots = [record for record in shared if record.parent_id is None]
        assert len(roots) == 1
        assert roots[0].name == "wire_request"
        children = {
            record.parent_id
            for record in shared
            if record.parent_id is not None
        }
        # Every non-root shared span parents inside the shared trace.
        ids = {record.span_id for record in shared}
        assert children <= ids
        names = {record.name for record in shared}
        assert {"wire_request", "request"} <= names

    @pytest.mark.parametrize("executor", ["serial", "resident"])
    def test_stable_across_executors(self, workload, executor):
        pool, stream = workload
        client_records, server_records = self._journals(
            pool, stream[:12], executor
        )
        merged = assemble(client_records, server_records)
        assert merged.matched_pairs == 12
        assert merged.cross_traces == 12
        if not hasattr(self, "_baseline"):
            type(self)._baseline = {}
        baseline = type(self)._baseline
        ids = sorted(
            (record.trace_id, record.span_id, record.parent_id, record.name)
            for record in merged.records
            if record.name in ("wire_request", "request")
        )
        shape = self._tree_signature(merged)
        key = "wire"
        if key not in baseline:
            baseline[key] = (ids, shape)
        else:
            assert baseline[key][0] == ids  # stable ids across executors
            assert baseline[key][1] == shape


class TestVerdictParityWithTracing:
    def test_byte_identical_with_tracing_on_or_off(self, workload):
        pool, stream = workload

        def serve(tracer, client_tracer):
            async def scenario():
                service = ValidationService(
                    pool, ServiceConfig(), tracer=tracer
                )
                server = AdmissionServer(service, WireServerConfig())
                host, port = await server.start()
                try:
                    async with AdmissionClient(
                        host, port, tracer=client_tracer
                    ) as client:
                        return [
                            await client.request(usage)
                            for usage in stream[:40]
                        ]
                finally:
                    await server.shutdown()
                    service.close()

            return run(scenario())

        untraced = serve(None, None)
        traced = serve(Tracer(), Tracer())
        assert signature(traced) == signature(untraced)


class TestLoadgenPhases:
    def test_traced_report_has_phases_and_exemplars(self, workload):
        pool, stream = workload

        async def scenario():
            service = ValidationService(pool, ServiceConfig())
            server = AdmissionServer(service, WireServerConfig())
            host, port = await server.start()
            try:
                tracer = Tracer()
                load = LoadGenerator(
                    LoadgenConfig(concurrency=2, retries=6), tracer=tracer
                )
                report = await load.run(host, port, stream[:30])
                measured = report.measured
                assert report.timed == measured
                means = report.phase_means_us()
                assert set(means) == {
                    "queue_us", "match_us", "admission_us",
                    "revalidate_us", "wire",
                }
                payload = report.to_json()
                assert payload["timed"] == measured
                assert payload["exemplars"]
                assert all(
                    entry["trace_id"].startswith("t")
                    for entry in payload["exemplars"]
                )
                assert len(tracer.records()) >= measured
                assert "server phases" in report.render()
            finally:
                await server.shutdown()
                service.close()

        run(scenario())

    def test_v1_loadgen_reports_no_phases(self, workload):
        pool, stream = workload

        async def scenario():
            service = ValidationService(pool, ServiceConfig())
            server = AdmissionServer(service, WireServerConfig())
            host, port = await server.start()
            try:
                load = LoadGenerator(
                    LoadgenConfig(concurrency=2, retries=6),
                    protocol_versions=(1,),
                )
                report = await load.run(host, port, stream[:20])
                assert report.timed == 0
                assert report.phase_means_us() == {}
                assert report.to_json()["phases_us"] == {}
            finally:
                await server.shutdown()
                service.close()

        run(scenario())
