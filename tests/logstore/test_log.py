"""Unit tests for the validation log (Table 2 as a data structure)."""

import pytest

from repro.errors import LogError
from repro.logstore.log import ValidationLog
from repro.logstore.record import LogRecord
from repro.workloads.scenarios import example1_log


class TestAppend:
    def test_record_convenience(self):
        log = ValidationLog()
        log.record({1, 2}, 10)
        assert len(log) == 1
        assert log[0].license_set == frozenset({1, 2})

    def test_non_record_rejected(self):
        log = ValidationLog()
        with pytest.raises(LogError):
            log.append(({1}, 5))  # type: ignore[arg-type]

    def test_extend(self):
        log = ValidationLog()
        log.extend([LogRecord(frozenset({1}), 1), LogRecord(frozenset({2}), 2)])
        assert len(log) == 2

    def test_constructor_takes_records(self):
        log = ValidationLog([LogRecord(frozenset({1}), 3)])
        assert log.total_count == 3


class TestAggregation:
    def test_same_set_accumulates(self):
        log = ValidationLog()
        log.record({1, 2}, 800)
        log.record({1, 2}, 40)
        assert log.set_count({1, 2}) == 840

    def test_unseen_set_is_zero(self):
        assert ValidationLog().set_count({1}) == 0

    def test_total_count(self):
        log = ValidationLog()
        log.record({1}, 5)
        log.record({2}, 7)
        assert log.total_count == 12

    def test_distinct_sets(self):
        log = ValidationLog()
        log.record({1}, 5)
        log.record({1}, 5)
        log.record({2}, 5)
        assert log.distinct_sets == 2

    def test_counts_by_set_is_copy(self):
        log = ValidationLog()
        log.record({1}, 5)
        counts = log.counts_by_set()
        counts[frozenset({9})] = 1
        assert log.set_count({9}) == 0

    def test_counts_by_mask(self):
        log = ValidationLog()
        log.record({1, 2}, 10)
        log.record({3}, 5)
        assert log.counts_by_mask() == {0b011: 10, 0b100: 5}

    def test_max_index(self):
        log = ValidationLog()
        assert log.max_index() == 0
        log.record({2, 7}, 1)
        assert log.max_index() == 7


class TestTable2:
    """The paper's Section 2.1 worked aggregation."""

    def test_table2_counts(self):
        log = example1_log()
        assert log.set_count({1, 2}) == 840
        assert log.set_count({2}) == 400
        assert log.set_count({1, 2, 4}) == 30
        assert log.set_count({3, 5}) == 800
        assert log.set_count({5}) == 20

    def test_table2_shape(self):
        log = example1_log()
        assert len(log) == 6
        assert log.distinct_sets == 5
        assert log.total_count == 2090


class TestColumnarStorage:
    """The log keeps columns, not record objects (memory regressions)."""

    def test_equal_sets_share_one_frozenset(self):
        log = ValidationLog()
        log.record({1, 2}, 5)
        log.record([2, 1], 7)
        log.append(LogRecord(frozenset({1, 2}), 9))
        log.record({3}, 1)
        first = log[0].license_set
        assert all(record.license_set is first for record in list(log)[:3])
        assert log[3].license_set is not first

    def test_records_have_no_instance_dict(self):
        log = ValidationLog()
        log.record({1, 2}, 5, "u1")
        assert not hasattr(LogRecord(frozenset({1}), 1), "__dict__")
        assert not hasattr(log[0], "__dict__")
        assert not hasattr(next(iter(log)), "__dict__")

    def test_memory_per_record_excluding_ids(self):
        import tracemalloc

        n = 20_000
        sets = [frozenset({1, 2}), frozenset({2, 3, 4}), frozenset({5})]
        # Ids are allocated up front: their strings are the caller's.
        ids = [f"u{i}" for i in range(n)]
        log = ValidationLog()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, issued_id in enumerate(ids):
                log.record(sets[i % 3], 1 + i % 500, issued_id)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == n
        assert grown / n <= 32, f"{grown / n:.1f} B per record"

    def test_stored_records_round_trip(self):
        records = [
            LogRecord(frozenset({1, 2}), 3, "a"),
            LogRecord(frozenset({2}), 4),
            LogRecord(frozenset({1, 2}), 5, "c"),
        ]
        log = ValidationLog(records)
        assert list(log) == records
        assert log[-1] == records[-1]
        assert list(log.without(["a"])) == records[1:]

    def test_counts_beyond_int64_stay_exact(self):
        log = ValidationLog()
        log.record({1}, 3)
        log.record({1}, 2**70, "big")
        log.record({2}, 4)
        assert [record.count for record in log] == [3, 2**70, 4]
        assert log.set_count({1}) == 2**70 + 3
        assert log.total_count == 2**70 + 7
