"""Socket-vs-in-process verdict parity: the wire layer is pure transport.

The repository's core serving guarantee is that verdicts depend only on
per-group submission order.  These tests pin down that putting a TCP
socket, JSON codec, and framing between the client and the service
changes *nothing*: byte-identical verdict streams, identical logs, and
a clean :func:`repro.matching.audit.cross_check` over the same queries.
"""

import asyncio
import json

from repro.matching.audit import cross_check
from repro.net import protocol
from repro.net.client import AdmissionClient
from repro.net.loadgen import LoadGenerator, LoadgenConfig
from repro.net.server import AdmissionServer, WireServerConfig
from repro.service import ServiceConfig, ValidationService


def run(coro):
    return asyncio.run(coro)


def signature(outcomes):
    """Byte-level verdict signature (the wire payload, canonical JSON)."""
    return [
        json.dumps(protocol.outcome_to_payload(outcome), sort_keys=True)
        for outcome in outcomes
    ]


def serve_in_process(pool, stream, **config_kwargs):
    service = ValidationService(pool, ServiceConfig(**config_kwargs))
    outcomes = service.process(stream)
    log = list(service.log)
    service.close()
    return outcomes, log


def serve_over_wire(pool, stream, *, pipelined, **config_kwargs):
    async def scenario():
        service = ValidationService(pool, ServiceConfig(**config_kwargs))
        server = AdmissionServer(service, WireServerConfig())
        host, port = await server.start()
        try:
            async with AdmissionClient(host, port) as client:
                if pipelined:
                    outcomes = await client.request_many(list(stream))
                else:
                    outcomes = [
                        await client.request(usage) for usage in stream
                    ]
        finally:
            await server.shutdown()
        log = list(service.log)
        service.close()
        return outcomes, log

    return run(scenario())


class TestVerdictParity:
    def test_sequential_wire_matches_in_process(self, workload):
        pool, stream = workload
        local, local_log = serve_in_process(pool, stream)
        wire, wire_log = serve_over_wire(pool, stream, pipelined=False)
        assert signature(wire) == signature(local)
        assert wire_log == local_log
        # The tight workload must actually exercise both verdicts.
        accepted = sum(outcome.accepted for outcome in local)
        assert 0 < accepted < len(stream)

    def test_pipelined_wire_matches_in_process(self, workload):
        pool, stream = workload
        local, local_log = serve_in_process(pool, stream)
        wire, wire_log = serve_over_wire(pool, stream, pipelined=True)
        assert signature(wire) == signature(local)
        assert wire_log == local_log

    def test_parity_across_shard_counts_and_kernels(self, workload):
        pool, stream = workload
        reference = signature(serve_in_process(pool, stream)[0])
        for kwargs in (
            {"shards": 1},
            {"shards": 4},
            {"kernel_cap": 0},
        ):
            wire, _ = serve_over_wire(
                pool, stream, pipelined=True, **kwargs
            )
            assert signature(wire) == reference, f"diverged for {kwargs}"

    def test_loadgen_verdicts_match_in_process_totals(self, workload):
        pool, stream = workload
        local, _ = serve_in_process(pool, stream)

        async def scenario():
            service = ValidationService(pool, ServiceConfig())
            server = AdmissionServer(service, WireServerConfig())
            host, port = await server.start()
            try:
                generator = LoadGenerator(
                    # One worker so per-group arrival order is exactly
                    # the stream order the in-process run used.
                    LoadgenConfig(mode="closed", concurrency=1)
                )
                report = await generator.run(host, port, list(stream))
            finally:
                await server.shutdown()
                service.close()
            return report

        report = run(scenario())
        assert report.accepted == sum(o.accepted for o in local)
        assert report.measured == len(stream)
        rejected = {
            reason: sum(
                1
                for outcome in local
                if not outcome.accepted
                and (outcome.rejection_reason or "unknown") == reason
            )
            for reason in report.rejected_by_reason
        }
        assert report.rejected_by_reason == rejected


class TestRoundTripAudit:
    def test_wire_round_tripped_queries_pass_matcher_audit(self, workload):
        """Decoded wire requests match exactly like the originals."""
        pool, stream = workload
        round_tripped = [
            protocol.usage_from_payload(
                json.loads(
                    json.dumps(protocol.usage_to_payload(usage))
                )
            )
            for usage in stream
        ]
        checked, disagreements = cross_check(pool, round_tripped)
        assert checked == len(stream)
        assert disagreements == []
