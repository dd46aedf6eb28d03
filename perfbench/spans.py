"""In-memory span recorder for the traced runs.

The traced run wraps public functions of the program from outside --
nothing under ``src/`` knows it is being timed.  Each wrapped call
becomes one span ``(id, layer, start, end, parent, key, size)``:

* ``start``/``end`` come from ``time.perf_counter`` (``CLOCK_MONOTONIC``
  on Linux), so spans recorded in the server process and in the driver
  process share one time axis and can be joined per request;
* ``parent`` is the span that was open in the same context when the
  call started (a ``contextvars`` variable, so asyncio tasks and
  threads each see only their own chain); a layer's self time is its
  duration minus the durations of its direct children;
* ``key`` ties a span to one request (the usage license id) where the
  wrapped call reveals it; ``size`` is a per-call count (frames, bytes,
  requests) chosen by the wrapper.

Spans stay in a list until the run ends; :meth:`Recorder.dump` hands
them over as plain lists.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=-1
)

#: ``(args, kwargs, result, entry_key) -> (key, size)``
Describe = Callable[[tuple, dict, Any, Optional[str]], Tuple[Optional[str], int]]


_INHERITED = object()


def _plain(_args, _kwargs, _result, _entry_key):
    return None, 1


# Describers shared by the server-side and client-side wrappers.
def frame_keys(_args, _kwargs, frames, _key):
    """``FrameDecoder.feed``: the usage ids of the decoded frames."""
    keys = [frame.payload.get("usage_id") for frame in frames]
    joined = ",".join(key for key in keys if isinstance(key, str))
    return joined or None, len(frames)


def payload_key(args, _kwargs, _result, _key):
    """A codec function whose first argument is a frame payload."""
    return args[0].get("usage_id"), 1


def entry_key(_args, _kwargs, _result, key):
    """A call joined to the request announced before it (a write)."""
    return key, 1


def returned(_args, _kwargs, count, _key):
    """A call that returns how much work it did."""
    return None, count


def frame_bytes(msg_type: int) -> Describe:
    """``encode_frame``: the frame's size when it is of ``msg_type``."""

    def describe(args, _kwargs, frame, key):
        return key, len(frame) if args[0] == msg_type else 0

    return describe


class Recorder:
    """Collects spans of wrapped calls (see module docstring)."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: Request key announced by the last keyed encode call; the
        #: write that follows it (with no ``await`` in between) picks
        #: it up, so socket writes can be joined to their request.
        self.pending_key: Optional[str] = None
        self._ids = itertools.count()
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        name: str,
        layer: str,
        describe: Describe = _plain,
    ) -> None:
        """Replace ``owner.name`` with a span-recording wrapper."""
        original = getattr(owner, name)
        spans = self.spans
        ids = self._ids
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            entry_key = recorder.pending_key
            token = _CURRENT.set(span_id)
            parent = token.old_value
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                _CURRENT.reset(token)
            key, size = describe(args, kwargs, result, entry_key)
            spans.append(
                (span_id, layer, started, ended, _parent(parent), key, size)
            )
            return result

        self._patch(owner, name, wrapper)

    def wrap_async(
        self,
        owner: object,
        name: str,
        layer: str,
        describe: Describe = _plain,
    ) -> None:
        """Like :meth:`wrap`, for a coroutine function."""
        original = getattr(owner, name)
        spans = self.spans
        ids = self._ids
        recorder = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            span_id = next(ids)
            entry_key = recorder.pending_key
            token = _CURRENT.set(span_id)
            parent = token.old_value
            started = time.perf_counter()
            try:
                result = await original(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                _CURRENT.reset(token)
            key, size = describe(args, kwargs, result, entry_key)
            spans.append(
                (span_id, layer, started, ended, _parent(parent), key, size)
            )
            return result

        self._patch(owner, name, wrapper)

    def _patch(self, owner: object, name: str, wrapper: object) -> None:
        # Keep the raw attribute (a classmethod object, say), or the
        # marker that it was inherited, so unwrap() restores it exactly.
        self._patches.append((owner, name, vars(owner).get(name, _INHERITED)))
        setattr(owner, name, wrapper)

    def unwrap(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def dump(self) -> Dict[str, object]:
        """Return the spans as JSON-ready data."""
        return {"spans": [list(span) for span in self.spans]}


def _parent(value: object) -> int:
    return value if isinstance(value, int) else -1


class Spans:
    """Read side: per-layer sums over span rows started in a window."""

    def __init__(self, rows: List[list], since: float = float("-inf"),
                 until: float = float("inf")):
        self._by_id = {row[0]: row for row in rows}
        self._child_time: Dict[int, float] = {}
        for row in rows:
            if row[4] in self._by_id:
                self._child_time[row[4]] = self._child_time.get(row[4], 0.0) + (
                    row[3] - row[2]
                )
        self._by_layer: Dict[str, List[list]] = {}
        for row in rows:
            if since <= row[2] <= until:
                self._by_layer.setdefault(row[1], []).append(row)

    def of(self, layer: str) -> List[list]:
        """Return the rows of one layer."""
        return self._by_layer.get(layer, [])

    def calls(self, layer: str) -> int:
        """Return how many calls of ``layer`` were recorded."""
        return len(self.of(layer))

    def total(self, layer: str) -> float:
        """Return the summed duration (seconds) of ``layer``."""
        return sum(row[3] - row[2] for row in self.of(layer))

    def self_time(self, layer: str) -> float:
        """Return the summed self time (seconds) of ``layer``."""
        return sum(
            row[3] - row[2] - self._child_time.get(row[0], 0.0)
            for row in self.of(layer)
        )

    def size(self, layer: str) -> int:
        """Return the summed ``size`` field of ``layer``."""
        return sum(row[6] for row in self.of(layer))

    def parent_layer(self, row: list) -> Optional[str]:
        """Return the layer of ``row``'s parent span, if recorded."""
        parent = self._by_id.get(row[4])
        return parent[1] if parent is not None else None
