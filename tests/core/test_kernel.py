"""Unit tests for the dense incremental headroom kernel."""

import pytest

from repro.errors import ValidationError
from repro.core.kernel import (
    KERNEL_DENSE,
    KERNEL_TREE,
    DenseHeadroomKernel,
)
from repro.validation.capacity import headroom as tree_headroom
from repro.validation.limits import (
    DEFAULT_KERNEL_CAP,
    DENSE_TABLE_MAX_N,
    dense_table_bytes,
)
from repro.validation.tree import ValidationTree
from repro.validation.tree_validator import TreeValidator


@pytest.fixture
def kernel():
    return DenseHeadroomKernel([100, 50, 60, 25])


class TestConstruction:
    def test_kernel_names(self):
        # The engine names travel in wire timing echoes and span attrs.
        assert (KERNEL_TREE, KERNEL_DENSE) == ("tree", "dense")

    def test_empty_aggregates_rejected(self):
        with pytest.raises(ValidationError):
            DenseHeadroomKernel([])

    def test_negative_aggregate_rejected(self):
        with pytest.raises(ValidationError):
            DenseHeadroomKernel([10, -1])

    def test_cap_refusal_names_bytes(self):
        with pytest.raises(ValidationError) as excinfo:
            DenseHeadroomKernel([5] * 6, max_n=5)
        message = str(excinfo.value)
        assert "N=6" in message
        assert str(dense_table_bytes(6, tables=3)) in message

    def test_cap_never_exceeds_shared_ceiling(self):
        # Even an absurd max_n clamps to the shared dense-table ceiling.
        with pytest.raises(ValidationError):
            DenseHeadroomKernel([1] * (DENSE_TABLE_MAX_N + 1), max_n=999)

    def test_default_cap_is_shared_constant(self):
        assert (
            DenseHeadroomKernel.__init__.__kwdefaults__ is None
        )  # positional-or-keyword default, checked via signature below
        import inspect

        signature = inspect.signature(DenseHeadroomKernel.__init__)
        assert signature.parameters["max_n"].default == DEFAULT_KERNEL_CAP

    def test_table_bytes(self, kernel):
        assert kernel.table_bytes == 3 * 8 * 16


class TestQueries:
    def test_fresh_headroom_is_min_aggregate_chain(self, kernel):
        # H[{1}] = min over supersets of A<S> - 0; the singleton itself
        # has the smallest RHS in its cone, so headroom = A[1].
        assert kernel.headroom(0b0001) == 100
        assert kernel.headroom(0b1000) == 25

    def test_headroom_floors_at_zero(self, kernel):
        kernel.insert(0b1000, 30)
        assert kernel.headroom(0b1000) == 0
        assert not kernel.is_valid()

    def test_headroom_many_matches_scalar(self, kernel):
        kernel.insert(0b0011, 40)
        masks = list(range(1, 16))
        assert kernel.headroom_many(masks) == [
            kernel.headroom(mask) for mask in masks
        ]

    def test_headroom_many_empty(self, kernel):
        assert kernel.headroom_many([]) == []

    def test_headroom_many_rejects_out_of_range(self, kernel):
        with pytest.raises(ValidationError):
            kernel.headroom_many([1, 16])
        with pytest.raises(ValidationError):
            kernel.headroom_many([0])

    def test_mask_zero_rejected(self, kernel):
        with pytest.raises(ValidationError):
            kernel.headroom(0)
        with pytest.raises(ValidationError):
            kernel.insert(0, 1)

    def test_negative_count_rejected(self, kernel):
        with pytest.raises(ValidationError):
            kernel.insert(0b0001, -1)

    def test_lhs_rhs_accessors(self, kernel):
        kernel.insert(0b0011, 7)
        assert kernel.lhs(0b0011) == 7
        assert kernel.lhs(0b0111) == 7  # superset sums include the record
        assert kernel.lhs(0b0001) == 0
        assert kernel.rhs(0b0011) == 150


class TestUpdates:
    def test_insert_returns_cone_size(self, kernel):
        assert kernel.insert(0b0001, 1) == 8  # 2^(4-1)
        assert kernel.insert(0b1111, 1) == 1
        assert kernel.masks_touched_total == 9
        assert kernel.last_update_touched == 1
        assert kernel.records_inserted == 2

    def test_invariants_hold_under_interleaving(self, kernel):
        for mask, count in [(0b0011, 30), (0b0100, 5), (0b1010, 9),
                            (0b0001, 60), (0b1111, 2), (0b0110, 11)]:
            kernel.insert(mask, count)
            kernel.check_invariants()

    def test_violations_match_tree_validator(self):
        aggregates = [30, 20, 10]
        kernel = DenseHeadroomKernel(aggregates)
        tree = ValidationTree()
        for members, count in [((1,), 25), ((2, 3), 32), ((1, 2, 3), 5)]:
            mask = 0
            for member in members:
                mask |= 1 << (member - 1)
            kernel.insert(mask, count)
            tree.insert_set(members, count)
        report = TreeValidator(aggregates).validate(tree)
        assert not kernel.is_valid()
        assert kernel.violations() == sorted(
            report.violations, key=lambda violation: violation.mask
        )

    def test_validate_reports_real_work(self, kernel):
        violations, examined = kernel.validate()
        assert violations == [] and examined == 4  # N_k probes
        kernel.insert(0b1000, 999)
        violations, examined = kernel.validate()
        assert violations and examined == 4 + 15  # probes + full sweep

    def test_headroom_matches_tree_after_stream(self):
        aggregates = [80, 40, 60, 30, 50]
        kernel = DenseHeadroomKernel(aggregates)
        tree = ValidationTree()
        stream = [((1, 2), 12), ((3,), 50), ((4, 5), 8), ((2, 3, 4), 6),
                  ((1,), 41), ((5,), 17), ((1, 2, 3, 4, 5), 3)]
        for members, count in stream:
            mask = 0
            for member in members:
                mask |= 1 << (member - 1)
            kernel.insert(mask, count)
            tree.insert_set(members, count)
            for probe in range(1, 32):
                assert kernel.headroom(probe) == tree_headroom(
                    tree, aggregates, probe
                ), f"mask {probe:#b} after {members}"
