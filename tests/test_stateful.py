"""Model-based (stateful) tests with hypothesis RuleBasedStateMachine.

Three machines attack the long-lived components with random operation
sequences, comparing them against trivially correct reference models:

* :class:`IncrementalValidatorMachine` -- random records and validate
  calls against an IncrementalValidator, checked after every step against
  a fresh ScanValidator over the accumulated counts.
* :class:`IssuanceSessionMachine` -- the equation-policy session against
  the max-flow oracle: accept iff feasible-with-the-new-license.
* :class:`ServiceSessionMachine` -- the validation service on its
  default dense kernel and on the tree path (``kernel_cap=0``) against
  the same oracle, so a bug both engines share cannot hide behind
  their parity.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.incremental import IncrementalValidator
from repro.licenses.license import LicenseFactory
from repro.licenses.pool import LicensePool
from repro.licenses.schema import ConstraintSchema, DimensionSpec
from repro.logstore.record import mask_of
from repro.online.session import IssuanceSession, ServiceSession
from repro.service import ServiceConfig
from repro.validation.flow import FlowFeasibilityOracle
from repro.validation.naive import ScanValidator
from repro.workloads.adversarial import blocks_pool

# A fixed pool with two groups: {1, 2, 3} and {4, 5}.
_POOL = blocks_pool([3, 2], aggregate=300)
_GROUP_SETS = [
    # Non-empty subsets within each group (Corollary 1.1-compatible).
    frozenset(s)
    for s in (
        {1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3},
        {4}, {5}, {4, 5},
    )
]


class IncrementalValidatorMachine(RuleBasedStateMachine):
    """Random inserts + validations vs a from-scratch reference engine."""

    def __init__(self):
        super().__init__()
        self.validator = IncrementalValidator.from_pool(_POOL)
        self.counts = {}
        self.inserted = 0

    @rule(
        license_set=st.sampled_from(_GROUP_SETS),
        count=st.integers(min_value=1, max_value=120),
    )
    def record(self, license_set, count):
        self.validator.record(license_set, count)
        self.inserted += 1
        mask = 0
        for index in license_set:
            mask |= 1 << (index - 1)
        self.counts[mask] = self.counts.get(mask, 0) + count

    @rule()
    def validate(self):
        report = self.validator.validate()
        reference = ScanValidator(_POOL.aggregate_array()).validate_counts(
            self.counts
        )
        assert report.is_valid == reference.is_valid
        # The scan baseline checks all 2^N - 1 subsets, so a per-group
        # overflow also trips its redundant cross-group supersets (their
        # equations are sums of per-group ones -- Theorem 2).  The
        # grouped incremental validator reports only the non-redundant
        # within-group violations; on that common domain the two engines
        # must agree exactly.
        group_masks = [
            sum(1 << (i - 1) for i in members)
            for members in ({1, 2, 3}, {4, 5})
        ]
        within_group = {
            v
            for v in reference.violations
            if any(v.mask & gm == v.mask for gm in group_masks)
        }
        assert set(report.violations) == within_group
        assert set(report.violations) <= set(reference.violations)

    @invariant()
    def record_counter_consistent(self):
        assert self.validator.records_inserted == self.inserted


class IssuanceSessionMachine(RuleBasedStateMachine):
    """The equation policy accepts exactly the feasible issuances."""

    def __init__(self):
        super().__init__()
        schema = ConstraintSchema([DimensionSpec.numeric("x")])
        self.factory = LicenseFactory(schema, "K", "play")
        self.pool = LicensePool(
            [
                self.factory.redistribution("A", aggregate=150, x=(0, 30)),
                self.factory.redistribution("B", aggregate=100, x=(20, 60)),
                self.factory.redistribution("C", aggregate=80, x=(100, 130)),
            ]
        )
        self.session = IssuanceSession(self.pool, "equation")
        self.oracle = FlowFeasibilityOracle(self.pool.aggregate_array())
        self.serial = 0

    @rule(
        low=st.integers(min_value=0, max_value=135),
        width=st.integers(min_value=0, max_value=20),
        count=st.integers(min_value=1, max_value=90),
    )
    def issue(self, low, width, count):
        self.serial += 1
        usage = self.factory.usage(
            f"u{self.serial}", count=count, x=(low, low + width)
        )
        matched = self.pool.matching_indexes(usage)
        outcome = self.session.issue(usage)
        if not matched:
            assert not outcome.accepted
            assert outcome.rejection_reason == "instance"
            return
        # Reference: feasible(current accepted log + this issuance)?
        probe = dict(self.session.log.counts_by_mask())
        mask = 0
        for index in matched:
            mask |= 1 << (index - 1)
        if outcome.accepted:
            # The log already includes the new record; it must be feasible.
            assert self.oracle.feasible(self.session.log.counts_by_mask())
        else:
            probe[mask] = probe.get(mask, 0) + count
            assert not self.oracle.feasible(probe), (
                "equation policy rejected a feasible issuance"
            )

    @invariant()
    def accepted_log_always_feasible(self):
        assert self.oracle.feasible(self.session.log.counts_by_mask())


class ServiceSessionMachine(RuleBasedStateMachine):
    """Both serving engines accept exactly the feasible issuances."""

    def __init__(self):
        super().__init__()
        schema = ConstraintSchema([DimensionSpec.numeric("x")])
        self.factory = LicenseFactory(schema, "K", "play")
        # A chain A-B-C-D (one group of four) plus a lone E.
        self.pool = LicensePool(
            [
                self.factory.redistribution("A", aggregate=150, x=(0, 40)),
                self.factory.redistribution("B", aggregate=100, x=(20, 60)),
                self.factory.redistribution("C", aggregate=120, x=(50, 90)),
                self.factory.redistribution("D", aggregate=80, x=(80, 130)),
                self.factory.redistribution("E", aggregate=60, x=(200, 230)),
            ]
        )
        self.sessions = {
            "dense": ServiceSession(self.pool),
            "tree": ServiceSession(self.pool, ServiceConfig(kernel_cap=0)),
        }
        assert self.sessions["dense"].service.kernel_occupancy()
        assert not self.sessions["tree"].service.kernel_occupancy()
        self.oracle = FlowFeasibilityOracle(self.pool.aggregate_array())
        self.serial = 0

    def teardown(self):
        for session in self.sessions.values():
            session.service.close()

    @rule(
        low=st.one_of(
            st.integers(min_value=0, max_value=125),
            st.integers(min_value=195, max_value=225),
        ),
        width=st.integers(min_value=0, max_value=30),
        count=st.integers(min_value=1, max_value=90),
    )
    def issue(self, low, width, count):
        self.serial += 1
        usage = self.factory.usage(
            f"u{self.serial}", count=count, x=(low, low + width)
        )
        matched = self.pool.matching_indexes(usage)
        verdicts = {}
        for engine, session in self.sessions.items():
            before = session.log.counts_by_mask()
            outcome = session.issue(usage)
            verdicts[engine] = (outcome.accepted, outcome.rejection_reason)
            if not matched:
                assert outcome.rejection_reason == "instance", engine
            elif outcome.accepted:
                assert self.oracle.feasible(session.log.counts_by_mask()), (
                    f"{engine} accepted an infeasible issuance"
                )
            else:
                assert outcome.rejection_reason == "equation", engine
                mask = mask_of(matched)
                before[mask] = before.get(mask, 0) + count
                assert not self.oracle.feasible(before), (
                    f"{engine} rejected a feasible issuance"
                )
        assert verdicts["dense"] == verdicts["tree"]

    @invariant()
    def logs_agree(self):
        dense, tree = (s.log.counts_by_mask() for s in self.sessions.values())
        assert dense == tree


TestIncrementalValidatorMachine = IncrementalValidatorMachine.TestCase
TestIncrementalValidatorMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestIssuanceSessionMachine = IssuanceSessionMachine.TestCase
TestIssuanceSessionMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestServiceSessionMachine = ServiceSessionMachine.TestCase
TestServiceSessionMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
