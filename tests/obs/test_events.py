"""EventLog unit tests: schema, rotation, persistence, thread safety."""

import json
import os
import threading

import pytest

from repro.errors import ServiceError
from repro.obs.events import (
    EVENT_ADMISSION,
    EVENT_REJECTION,
    KNOWN_KINDS,
    EventLog,
)


class TestInMemory:
    def test_emit_assigns_monotone_seq(self):
        log = EventLog()
        first = log.emit(EVENT_ADMISSION, group_id=1)
        second = log.emit(EVENT_REJECTION, reason="equation")
        assert (first["seq"], second["seq"]) == (0, 1)
        assert log.emitted == 2

    def test_tail_returns_most_recent(self):
        log = EventLog(buffer_size=4)
        for index in range(10):
            log.emit("k", index=index)
        assert [event["index"] for event in log.tail()] == [6, 7, 8, 9]
        assert [event["index"] for event in log.tail(2)] == [8, 9]

    def test_parameter_validation(self):
        with pytest.raises(ServiceError):
            EventLog(max_bytes=0)
        with pytest.raises(ServiceError):
            EventLog(backups=-1)
        with pytest.raises(ServiceError):
            EventLog(buffer_size=0)

    def test_known_kinds_are_distinct(self):
        assert len(set(KNOWN_KINDS)) == len(KNOWN_KINDS) == 7


class TestPersistence:
    def test_lines_are_sorted_json_objects(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(str(path)) as log:
            log.emit(EVENT_REJECTION, reason="equation", detail="over cap")
        (line,) = path.read_text().splitlines()
        payload = json.loads(line)
        assert payload == {
            "seq": 0, "kind": "rejection",
            "reason": "equation", "detail": "over cap",
        }
        # sort_keys makes the on-disk form deterministic.
        assert line == json.dumps(payload, sort_keys=True)

    def test_reopen_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(str(path)) as log:
            log.emit("k", run=1)
        with EventLog(str(path)) as log:
            log.emit("k", run=2)
        runs = [event["run"] for event in EventLog.iter_file(str(path))]
        assert runs == [1, 2]

    def test_iter_file_skips_blank_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"seq": 0, "kind": "k"}\n\n{"seq": 1, "kind": "k"}\n')
        assert len(list(EventLog.iter_file(str(path)))) == 2

    def test_iter_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ServiceError):
            list(EventLog.iter_file(str(path)))


class TestRotation:
    def _fill(self, path, events, **kwargs):
        with EventLog(str(path), **kwargs) as log:
            for index in range(events):
                log.emit("k", index=index, pad="x" * 40)

    def test_newest_events_always_in_active_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._fill(path, events=50, max_bytes=600, backups=2)
        active = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert active, "active file must never be empty after a write"
        # The very last event emitted is in the active file, intact.
        assert active[-1]["index"] == 49

    def test_rotation_drops_only_oldest(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._fill(path, events=60, max_bytes=600, backups=2)
        assert os.path.exists(f"{path}.1")
        assert os.path.exists(f"{path}.2")
        assert not os.path.exists(f"{path}.3")
        seqs = [event["seq"] for event in EventLog.iter_file(str(path))]
        # Ascending and contiguous up to the newest event: anything lost
        # to rotation is a prefix, never a middle slice or the tail.
        assert seqs == list(range(seqs[0], 60))

    def test_backups_zero_keeps_only_active_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._fill(path, events=40, max_bytes=400, backups=0)
        assert not os.path.exists(f"{path}.1")
        seqs = [event["seq"] for event in EventLog.iter_file(str(path))]
        assert seqs[-1] == 39

    def test_single_oversized_event_still_written(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(str(path), max_bytes=64, backups=1) as log:
            log.emit("k", blob="y" * 200)
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["blob"] == "y" * 200


class TestThreadSafety:
    def test_concurrent_emit_keeps_every_seq(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(str(path), max_bytes=2048, backups=8)

        def worker():
            for _ in range(50):
                log.emit("k")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()
        seqs = sorted(
            event["seq"] for event in EventLog.iter_file(str(path))
        )
        assert log.emitted == 200
        # Rotation may shed the oldest file(s), never interleave or dup.
        assert seqs == list(range(seqs[0], 200))
