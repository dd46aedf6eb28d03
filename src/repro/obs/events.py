"""Structured event log: append-only JSONL with bounded rotation.

Every operationally interesting service transition becomes one JSON
object on its own line -- the auditable request journal the OMA-style
deployments require, and the operational version of the "explainable
derivation" that formal license semantics ask of every permission
decision:

* ``admission`` -- a request was accepted (which group, how many counts);
* ``rejection`` -- a request was refused, with the machine reason code
  (``instance``/``equation``/``capacity``) *and* the human detail string;
* ``backpressure`` -- a shard queue pushed back (shard id, depth);
* ``alert`` -- a monitor alert rule changed lifecycle state
  (``pending`` -> ``firing`` -> ``resolved``);
* ``conn_open`` / ``conn_close`` -- a wire client connected to /
  disconnected from the :class:`repro.net.server.AdmissionServer`
  (peer address, and on close the per-connection request count);
* ``drain`` -- the wire server completed a graceful drain: it stopped
  accepting, flushed every in-flight request, and is about to close its
  remaining connections (in-flight count flushed, totals served).

The log is bounded: when the active file would exceed ``max_bytes`` the
existing files rotate (``events.jsonl`` -> ``events.jsonl.1`` -> ...)
and a fresh active file is started *before* the new line is written, so
the newest events are always intact in the active file and the oldest
rotation is what gets dropped.  A small in-memory ring buffer keeps the
most recent events queryable without touching disk (and is the only
storage when no path is configured).

All mutation happens under one lock -- safe to share across the service
coordinator and executor worker threads.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from repro.errors import ServiceError

__all__ = [
    "EVENT_ADMISSION",
    "EVENT_ALERT",
    "EVENT_BACKPRESSURE",
    "EVENT_CONN_CLOSE",
    "EVENT_CONN_OPEN",
    "EVENT_DRAIN",
    "EVENT_REJECTION",
    "EventLog",
]

EVENT_ADMISSION = "admission"
EVENT_REJECTION = "rejection"
EVENT_BACKPRESSURE = "backpressure"
#: Alert lifecycle transition (rule, from_state, to_state, value, at)
#: appended by :class:`repro.obs.monitor.Monitor`.
EVENT_ALERT = "alert"
#: Wire connection opened (peer) -- emitted by
#: :class:`repro.net.server.AdmissionServer`.
EVENT_CONN_OPEN = "conn_open"
#: Wire connection closed (peer, requests served on it).
EVENT_CONN_CLOSE = "conn_close"
#: Wire server graceful drain completed (in-flight flushed, totals).
EVENT_DRAIN = "drain"

#: The event kinds this package emits itself (user code may add more).
KNOWN_KINDS = (
    EVENT_ADMISSION,
    EVENT_REJECTION,
    EVENT_BACKPRESSURE,
    EVENT_ALERT,
    EVENT_CONN_OPEN,
    EVENT_CONN_CLOSE,
    EVENT_DRAIN,
)


class EventLog:
    """Append-only structured event log (see module docstring).

    Parameters
    ----------
    path:
        Active JSONL file; ``None`` keeps events in memory only.
    max_bytes:
        Rotation threshold of the active file.
    backups:
        How many rotated files to keep (``path.1`` newest ... ``path.N``
        oldest); older rotations are deleted.
    buffer_size:
        Capacity of the in-memory ring of most-recent events.

    Examples
    --------
    >>> log = EventLog()
    >>> _ = log.emit("rejection", reason="equation", seq_no=7)
    >>> log.tail()[-1]["kind"]
    'rejection'
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        max_bytes: int = 4 * 1024 * 1024,
        backups: int = 2,
        buffer_size: int = 4096,
    ):
        if max_bytes < 1:
            raise ServiceError(f"max_bytes must be >= 1, got {max_bytes}")
        if backups < 0:
            raise ServiceError(f"backups must be >= 0, got {backups}")
        if buffer_size < 1:
            raise ServiceError(f"buffer_size must be >= 1, got {buffer_size}")
        self.path = path
        self.max_bytes = max_bytes
        self.backups = backups
        self._lock = threading.Lock()
        self._seq = 0
        self._ring: Deque[Dict[str, object]] = deque(maxlen=buffer_size)
        self._stream = None
        self._size = 0
        if path is not None:
            self._stream = open(path, "a", encoding="utf-8")
            self._size = os.path.getsize(path)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: object) -> Dict[str, object]:
        """Append one event; returns the full payload (with ``seq``).

        ``seq`` is a monotone per-log counter, so event order survives
        rotation and file concatenation.
        """
        with self._lock:
            payload: Dict[str, object] = {"seq": self._seq, "kind": kind}
            self._seq += 1
            payload.update(fields)
            self._ring.append(payload)
            if self._stream is not None:
                line = json.dumps(payload, sort_keys=True) + "\n"
                encoded = len(line.encode("utf-8"))
                if self._size > 0 and self._size + encoded > self.max_bytes:
                    self._rotate_locked()
                self._stream.write(line)
                self._stream.flush()
                self._size += encoded
            return payload

    def _rotate_locked(self) -> None:
        """Shift rotations up and start a fresh active file."""
        assert self._stream is not None and self.path is not None
        self._stream.close()
        if self.backups == 0:
            os.remove(self.path)
        else:
            oldest = f"{self.path}.{self.backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for index in range(self.backups - 1, 0, -1):
                source = f"{self.path}.{index}"
                if os.path.exists(source):
                    os.replace(source, f"{self.path}.{index + 1}")
            os.replace(self.path, f"{self.path}.1")
        self._stream = open(self.path, "a", encoding="utf-8")
        self._size = 0

    def close(self) -> None:
        """Flush and close the active file (in-memory ring stays)."""
        with self._lock:
            if self._stream is not None:
                self._stream.close()
                self._stream = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def emitted(self) -> int:
        """Return how many events this log has accepted."""
        return self._seq

    def tail(self, n: Optional[int] = None) -> List[Dict[str, object]]:
        """Return the most recent ``n`` events from the in-memory ring
        (all buffered events when ``n`` is omitted)."""
        with self._lock:
            events = list(self._ring)
        return events if n is None else events[-n:]

    @staticmethod
    def iter_file(
        path: str, *, include_rotated: bool = True
    ) -> Iterator[Dict[str, object]]:
        """Yield events from disk, oldest first.

        Walks rotations oldest-to-newest (``path.N`` ... ``path.1``)
        before the active file, so downstream consumers see ascending
        ``seq`` values.
        """
        files: List[str] = []
        if include_rotated:
            index = 1
            while os.path.exists(f"{path}.{index}"):
                files.append(f"{path}.{index}")
                index += 1
            files.reverse()
        files.append(path)
        for name in files:
            if not os.path.exists(name):
                continue
            with open(name, "r", encoding="utf-8") as stream:
                for line in stream:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        yield json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ServiceError(
                            f"malformed event line in {name}: {line[:80]!r}"
                        ) from exc
