"""Property tests: dense kernel and tree walk are byte-identical.

The headline guarantee of the dense headroom kernel is that switching
``kernel_cap=0`` (the tree walk) to a cap covering the group (the dense
kernel) changes *only* the cost model:
every headroom value, every verdict, and every violation triple must be
identical, including under interleaved inserts and revalidation cache
hits.  Hypothesis drives random groups (``N_k <= 12``) and random
record streams through both engines side by side.
"""

from hypothesis import given, settings, strategies as st

from repro.core.grouping import GroupStructure
from repro.core.incremental import GroupSlice
from repro.core.kernel import KERNEL_DENSE, KERNEL_TREE, DenseHeadroomKernel
from repro.validation.capacity import headroom as tree_headroom
from repro.validation.limits import DEFAULT_KERNEL_CAP
from repro.validation.tree import ValidationTree


@st.composite
def group_scenarios(draw):
    """One group's universe, aggregates, and a record/probe stream."""
    n = draw(st.integers(min_value=1, max_value=12))
    aggregates = [draw(st.integers(0, 300)) for _ in range(n)]
    steps = draw(
        st.lists(
            st.tuples(
                st.sets(st.integers(1, n), min_size=1),
                st.integers(0, 200),
                st.booleans(),  # revalidate after this insert?
            ),
            max_size=20,
        )
    )
    probes = draw(
        st.lists(st.sets(st.integers(1, n), min_size=1), max_size=8)
    )
    return n, aggregates, steps, probes


def _mask(members):
    mask = 0
    for member in members:
        mask |= 1 << (member - 1)
    return mask


class TestKernelTreeParity:
    @settings(max_examples=120, deadline=None)
    @given(group_scenarios())
    def test_headroom_and_invariants_match_tree(self, scenario):
        """Raw kernel vs raw tree: identical headroom on every probe,
        resident tables never drift from their definitions."""
        n, aggregates, steps, probes = scenario
        kernel = DenseHeadroomKernel(aggregates)
        tree = ValidationTree()
        for members, count, _ in steps:
            kernel.insert(_mask(members), count)
            tree.insert_set(tuple(sorted(members)), count)
            for probe in probes:
                assert kernel.headroom(_mask(probe)) == tree_headroom(
                    tree, aggregates, _mask(probe)
                )
        kernel.check_invariants()

    @settings(max_examples=120, deadline=None)
    @given(group_scenarios())
    def test_slices_byte_identical(self, scenario):
        """GroupSlice parity: verdicts, violation (mask, lhs, rhs)
        triples, and headroom values agree between the engines under
        interleaved inserts and cache-hit revalidations."""
        n, aggregates, steps, probes = scenario
        structure = GroupStructure((frozenset(range(1, n + 1)),), n)
        dense = GroupSlice(
            structure, aggregates, 0, kernel_cap=DEFAULT_KERNEL_CAP
        )
        tree = GroupSlice(structure, aggregates, 0, kernel_cap=0)
        assert dense.kernel_name == KERNEL_DENSE
        assert tree.kernel_name == KERNEL_TREE
        assert not dense.kernel_fallback
        for members, count, check in steps:
            dense.insert(members, count)
            tree.insert(members, count)
            for probe in probes:
                assert dense.headroom(probe) == tree.headroom(probe)
            if check:
                dense_report, _ = dense.revalidate()
                tree_report, _ = tree.revalidate()
                assert dense_report.is_valid == tree_report.is_valid
                assert sorted(
                    (v.mask, v.lhs, v.rhs) for v in dense_report.violations
                ) == sorted(
                    (v.mask, v.lhs, v.rhs) for v in tree_report.violations
                )
                # Cache hit: a second revalidate does no work on either
                # engine and reproduces the same report.
                dense_again, dense_cost = dense.revalidate()
                tree_again, tree_cost = tree.revalidate()
                assert dense_cost == 0 and tree_cost == 0
                assert dense_again.violations == dense_report.violations
                assert tree_again.violations == tree_report.violations

    @settings(max_examples=60, deadline=None)
    @given(group_scenarios())
    def test_batched_headroom_matches_sequential(self, scenario):
        """headroom_batch answers exactly like one-at-a-time headroom."""
        n, aggregates, steps, probes = scenario
        structure = GroupStructure((frozenset(range(1, n + 1)),), n)
        dense = GroupSlice(
            structure, aggregates, 0, kernel_cap=DEFAULT_KERNEL_CAP
        )
        for members, count, _ in steps:
            dense.insert(members, count)
        if probes:
            assert dense.headroom_batch(probes) == [
                dense.headroom(probe) for probe in probes
            ]
