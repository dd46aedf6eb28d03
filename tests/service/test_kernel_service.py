"""Service-level dense-kernel seam: parity, fallback, and telemetry.

The dense headroom kernel (the default engine) must be invisible in
verdict space: serving the same stream with the default config produces
an outcome stream byte-identical to the tree path (``kernel_cap=0``) for
every batch size, including the vectorized batch-prefetch path and the
cap-exceeded tree fallback.  The only observable differences are the
``kernel_fast_path_hits`` / ``kernel_fallback`` counters -- and those
stay silent on the tree path so its metric surface is untouched.
"""

import pytest

from repro.errors import ServiceError
from repro.service import ServiceConfig, ValidationService
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator

SEED = 411


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(
        n_licenses=22,
        seed=SEED,
        n_records=0,
        target_groups=6,
        aggregate_range=(200, 700),
    )
    generator = WorkloadGenerator(config)
    pool = generator.generate_pool()
    # Skewed traffic piles many same-batch requests onto a few groups,
    # exercising the prefetch-invalidation path hard.
    stream = tuple(generator.issue_stream(pool, 400, skew=0.9))
    return pool, stream


def serve(pool, stream, **config_kwargs):
    with ValidationService(pool, ServiceConfig(**config_kwargs)) as service:
        outcomes = service.process(stream)
    return outcomes, service


def smallest_group(pool):
    """Return the smallest ``N_k``; a cap below it sends every group to
    the tree fallback."""
    with ValidationService(pool, ServiceConfig(kernel_cap=0)) as service:
        return min(service.group_sizes)


@pytest.fixture(scope="module")
def reference(workload):
    pool, stream = workload
    outcomes, _ = serve(pool, stream, kernel_cap=0, batch_size=1)
    return [(o.accepted, o.rejection_reason) for o in outcomes]


class TestVerdictParity:
    @pytest.mark.parametrize("batch_size", [1, 3, 32, 200])
    def test_dense_matches_tree_across_batch_sizes(
        self, workload, reference, batch_size
    ):
        pool, stream = workload
        outcomes, _ = serve(pool, stream, batch_size=batch_size, shards=3)
        assert [
            (o.accepted, o.rejection_reason) for o in outcomes
        ] == reference

    def test_fallback_config_matches_too(self, workload, reference):
        pool, stream = workload
        outcomes, _ = serve(
            pool, stream, kernel_cap=smallest_group(pool) - 1, batch_size=16
        )
        assert [
            (o.accepted, o.rejection_reason) for o in outcomes
        ] == reference


class TestKernelTelemetry:
    def test_dense_counts_fast_path_hits(self, workload):
        pool, stream = workload
        _, service = serve(pool, stream, batch_size=16)
        hits = service.metrics.counter("kernel_fast_path_hits").value()
        # Every shard-routed request was answered by the dense kernel;
        # instance rejections never reach a shard.
        accepted = service.metrics.counter("requests_total").value(
            ("accepted",)
        )
        equation = service.metrics.counter("requests_total").value(
            ("rejected", "equation")
        )
        assert hits == accepted + equation > 0
        assert service.metrics.counter("kernel_fallback").value() == 0

    def test_cap_exceeded_counts_fallback(self, workload):
        pool, stream = workload
        _, service = serve(
            pool, stream, kernel_cap=smallest_group(pool) - 1, batch_size=16
        )
        assert service.metrics.counter("kernel_fallback").value() > 0
        assert (
            service.metrics.counter("kernel_fast_path_hits").value() == 0
        )

    def test_tree_config_stays_silent(self, workload):
        pool, stream = workload
        _, service = serve(pool, stream, kernel_cap=0, batch_size=16)
        assert service.metrics.counter("kernel_fast_path_hits").value() == 0
        assert service.metrics.counter("kernel_fallback").value() == 0


class TestConfigValidation:
    def test_unknown_kernel_rejected(self):
        """The engine follows ``kernel_cap``; there is no ``kernel`` knob."""
        for kernel in ("gpu", "tree", "dense"):
            with pytest.raises(TypeError):
                ServiceConfig(kernel=kernel)

    def test_kernel_cap_bounds(self):
        with pytest.raises(ServiceError):
            ServiceConfig(kernel_cap=-1)
        with pytest.raises(ServiceError):
            ServiceConfig(kernel_cap=99)
