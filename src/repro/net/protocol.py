"""The framed, versioned admission wire protocol (pure codec layer).

Frame layout (all integers big-endian)::

    offset  size  field
    0       2     magic  b"RV"
    2       1     protocol version (uint8)
    3       1     message type (uint8)
    4       4     request id (uint32)
    8       4     payload length (uint32)
    12      len   payload: UTF-8 JSON object, sorted keys

The payload is JSON rather than a binary schema so frames stay
inspectable with one ``json.loads`` and the codec needs nothing beyond
the stdlib; the *framing* is binary so message boundaries never depend
on the payload's content (no sentinel scanning, no ambiguity about
embedded newlines).  Every function here is pure -- no sockets, no
clocks -- so the whole protocol is unit-testable byte-for-byte.

Message flow::

    client                         server
      | -- HELLO {versions} ------->  |   version negotiation
      | <------ HELLO_OK {version} -- |
      | -- REQUEST {usage} --------->  |   (pipelining: many in flight)
      | <------ RESPONSE {verdict} -- |
      | <------ ERROR {code} -------- |   OVERLOADED keeps the conn alive
      | -- PING -------------------->  |
      | <------ PONG ---------------- |
      | -- ADMIN {query} ----------->  |   v2: live introspection
      | <------ ADMIN_OK {data} ----- |

Version history:

* **v1** -- HELLO / REQUEST / RESPONSE / ERROR / PING as above.
* **v2** -- adds distributed tracing and live introspection.  REQUEST
  frames may carry an optional ``"trace"`` object (trace id + parent
  span id, see :func:`trace_context_to_payload`); RESPONSE frames may
  carry an optional ``"timing"`` object (per-phase server breakdown,
  see :func:`timing_to_payload`); and the ADMIN/ADMIN_OK message family
  queries a live server for metrics, health, SLOs, slowest spans, and
  the event tail.  Both extras are *optional keys on existing frames*,
  so a v1 peer negotiated down via HELLO keeps working unchanged.

Error codes are part of the protocol surface (:data:`ERR_OVERLOADED`
maps the service's :class:`repro.errors.ServiceOverloadedError` onto the
wire; :data:`ERR_SHUTTING_DOWN` is the graceful-drain refusal).  All
decode failures raise :class:`repro.errors.ProtocolError`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ProtocolError
from repro.obs.distrib import ServerTiming, TraceContext, validate_trace_id
from repro.geometry.box import Box
from repro.geometry.discrete import DiscreteSet
from repro.geometry.interval import Interval
from repro.licenses.license import UsageLicense
from repro.licenses.permission import Permission
from repro.online.session import IssuanceOutcome

__all__ = [
    "ADMIN_QUERIES",
    "ERR_BAD_REQUEST",
    "ERR_INTERNAL",
    "ERR_OVERLOADED",
    "ERR_SHUTTING_DOWN",
    "ERR_UNSUPPORTED_VERSION",
    "Frame",
    "FrameDecoder",
    "HEADER_SIZE",
    "MAGIC",
    "MAX_PAYLOAD_BYTES",
    "MSG_ADMIN",
    "MSG_ADMIN_OK",
    "MSG_ERROR",
    "MSG_HELLO",
    "MSG_HELLO_OK",
    "MSG_PING",
    "MSG_PONG",
    "MSG_REQUEST",
    "MSG_RESPONSE",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "admin_payload",
    "admin_query_from_payload",
    "decode_frame",
    "encode_frame",
    "error_payload",
    "hello_payload",
    "negotiate_version",
    "outcome_from_payload",
    "outcome_to_payload",
    "timing_from_payload",
    "timing_to_payload",
    "trace_context_from_payload",
    "trace_context_to_payload",
    "usage_from_payload",
    "usage_to_payload",
]

#: Two magic bytes opening every frame ("Repro Validation").
MAGIC = b"RV"
#: The protocol version this library speaks natively.
PROTOCOL_VERSION = 2
#: Every version this codec can decode (newest preferred in negotiation).
SUPPORTED_VERSIONS: Tuple[int, ...] = (1, 2)
#: Hard ceiling on one frame's payload; a length field beyond this is
#: treated as stream corruption, not an allocation request.
MAX_PAYLOAD_BYTES = 1 << 20

_HEADER = struct.Struct(">2sBBII")
#: Bytes of the fixed frame header preceding the payload.
HEADER_SIZE = _HEADER.size

# ---------------------------------------------------------------------------
# Message types
# ---------------------------------------------------------------------------
MSG_HELLO = 0x01
MSG_HELLO_OK = 0x02
MSG_REQUEST = 0x10
MSG_RESPONSE = 0x11
MSG_ERROR = 0x12
MSG_PING = 0x20
MSG_PONG = 0x21
MSG_ADMIN = 0x30
MSG_ADMIN_OK = 0x31

_KNOWN_TYPES = frozenset(
    {
        MSG_HELLO,
        MSG_HELLO_OK,
        MSG_REQUEST,
        MSG_RESPONSE,
        MSG_ERROR,
        MSG_PING,
        MSG_PONG,
        MSG_ADMIN,
        MSG_ADMIN_OK,
    }
)

# ---------------------------------------------------------------------------
# Error codes carried by MSG_ERROR payloads
# ---------------------------------------------------------------------------
#: Admission refused: the in-flight window or a shard queue is full.
#: Retryable -- the connection stays alive.
ERR_OVERLOADED = 1
#: The request payload did not decode into a valid usage license.
ERR_BAD_REQUEST = 2
#: HELLO offered no version the server speaks.
ERR_UNSUPPORTED_VERSION = 3
#: The server is draining; no new admissions are accepted.
ERR_SHUTTING_DOWN = 4
#: The server hit an unexpected internal failure serving this request.
ERR_INTERNAL = 5

#: Human-readable names, used in error payloads and reports.
ERROR_NAMES: Dict[int, str] = {
    ERR_OVERLOADED: "overloaded",
    ERR_BAD_REQUEST: "bad_request",
    ERR_UNSUPPORTED_VERSION: "unsupported_version",
    ERR_SHUTTING_DOWN: "shutting_down",
    ERR_INTERNAL: "internal",
}


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame."""

    version: int
    msg_type: int
    request_id: int
    payload: Dict[str, object]


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def encode_frame(
    msg_type: int,
    request_id: int,
    payload: Optional[Dict[str, object]] = None,
    *,
    version: int = PROTOCOL_VERSION,
) -> bytes:
    """Encode one frame to bytes (header + sorted-key JSON payload)."""
    if msg_type not in _KNOWN_TYPES:
        raise ProtocolError(f"unknown message type {msg_type:#x}")
    if not 0 <= request_id <= 0xFFFFFFFF:
        raise ProtocolError(f"request id {request_id} outside uint32 range")
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(f"cannot encode protocol version {version}")
    try:
        body = json.dumps(
            payload or {}, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable payload: {exc}") from exc
    if len(body) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload of {len(body)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame ceiling"
        )
    return _HEADER.pack(MAGIC, version, msg_type, request_id, len(body)) + body


def decode_frame(buffer: bytes) -> Tuple[Optional[Frame], int]:
    """Decode one frame from the head of ``buffer``.

    Returns ``(frame, bytes_consumed)``; ``(None, 0)`` means the buffer
    holds only an *incomplete* frame (feed more bytes and retry).
    Corruption -- bad magic, an unknown version or type, an oversized
    length field, undecodable payload JSON -- raises
    :class:`repro.errors.ProtocolError`.
    """
    if len(buffer) < HEADER_SIZE:
        return None, 0
    magic, version, msg_type, request_id, length = _HEADER.unpack_from(buffer)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}); the stream "
            f"is corrupt or the peer is not speaking this protocol"
        )
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})"
        )
    if msg_type not in _KNOWN_TYPES:
        raise ProtocolError(f"unknown message type {msg_type:#x}")
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame declares a {length}-byte payload, over the "
            f"{MAX_PAYLOAD_BYTES}-byte ceiling -- treating as corruption"
        )
    end = HEADER_SIZE + length
    if len(buffer) < end:
        return None, 0
    raw = buffer[HEADER_SIZE:end]
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return Frame(version, msg_type, request_id, payload), end


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte-chunk stream.

    Feed whatever the transport hands you; complete frames come back in
    order.  Call :meth:`finish` at EOF -- leftover bytes there mean the
    peer died mid-frame, which is a :class:`ProtocolError` (a truncated
    stream must never be silently mistaken for a clean close).

    Examples
    --------
    >>> wire = encode_frame(MSG_PING, 7) + encode_frame(MSG_PING, 8)
    >>> decoder = FrameDecoder()
    >>> [f.request_id for f in decoder.feed(wire[:15])]
    [7]
    >>> [f.request_id for f in decoder.feed(wire[15:])]
    [8]
    >>> decoder.finish()
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Frame]:
        """Absorb ``data``; return every frame completed by it."""
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            frame, consumed = decode_frame(bytes(self._buffer))
            if frame is None:
                return frames
            del self._buffer[:consumed]
            frames.append(frame)

    @property
    def pending_bytes(self) -> int:
        """Return how many unconsumed (partial-frame) bytes are buffered."""
        return len(self._buffer)

    def finish(self) -> None:
        """Assert a clean end of stream (no partial frame buffered)."""
        if self._buffer:
            raise ProtocolError(
                f"stream ended mid-frame with {len(self._buffer)} "
                f"trailing byte(s)"
            )


# ---------------------------------------------------------------------------
# Version negotiation
# ---------------------------------------------------------------------------
def hello_payload(
    *, client: str = "repro", versions: Sequence[int] = SUPPORTED_VERSIONS
) -> Dict[str, object]:
    """Build the client HELLO payload offering ``versions``."""
    return {"client": client, "versions": sorted(set(versions))}


def negotiate_version(offered: Iterable[object]) -> int:
    """Pick the highest mutually supported version from a HELLO offer."""
    usable = [
        version
        for version in offered
        if isinstance(version, int) and version in SUPPORTED_VERSIONS
    ]
    if not usable:
        raise ProtocolError(
            f"no mutually supported protocol version in offer "
            f"{list(offered)!r} (supported: "
            f"{', '.join(map(str, SUPPORTED_VERSIONS))})"
        )
    return max(usable)


def error_payload(code: int, detail: str) -> Dict[str, object]:
    """Build a MSG_ERROR payload."""
    return {
        "code": code,
        "error": ERROR_NAMES.get(code, "unknown"),
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# Usage-license codec (schema-free: the box travels extent-by-extent)
# ---------------------------------------------------------------------------
_SCALARS = (int, float, str)


def _extent_to_payload(extent: Union[Interval, DiscreteSet]) -> Dict[str, object]:
    if isinstance(extent, Interval):
        for bound in (extent.low, extent.high):
            if isinstance(bound, bool) or not isinstance(bound, _SCALARS):
                raise ProtocolError(
                    f"interval bound {bound!r} is not wire-encodable "
                    f"(int/float/str only)"
                )
        return {"kind": "interval", "low": extent.low, "high": extent.high}
    atoms = sorted(extent.atoms, key=repr)
    for atom in atoms:
        if isinstance(atom, bool) or not isinstance(atom, _SCALARS):
            raise ProtocolError(
                f"discrete atom {atom!r} is not wire-encodable "
                f"(int/float/str only)"
            )
    return {"kind": "discrete", "atoms": atoms}


def _extent_from_payload(entry: object) -> Union[Interval, DiscreteSet]:
    if not isinstance(entry, dict):
        raise ProtocolError(f"malformed box extent: {entry!r}")
    kind = entry.get("kind")
    if kind == "interval":
        if "low" not in entry or "high" not in entry:
            raise ProtocolError(f"interval extent missing bounds: {entry!r}")
        return Interval(entry["low"], entry["high"])
    if kind == "discrete":
        atoms = entry.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise ProtocolError(
                f"discrete extent needs a non-empty atom list: {entry!r}"
            )
        return DiscreteSet(atoms)
    raise ProtocolError(f"unknown extent kind {kind!r}")


def usage_to_payload(usage: UsageLicense) -> Dict[str, object]:
    """Serialize a usage license for a MSG_REQUEST frame.

    The box is shipped extent-by-extent (interval bounds / discrete
    leaf atoms), so -- unlike :func:`repro.licenses.rel.license_to_dict`
    -- no shared :class:`~repro.licenses.schema.ConstraintSchema` object
    is needed on the other side of the wire.
    """
    return {
        "usage_id": usage.license_id,
        "content_id": usage.content_id,
        "permission": usage.permission.value,
        "count": usage.count,
        "box": [_extent_to_payload(extent) for extent in usage.box.extents],
    }


def usage_from_payload(payload: Dict[str, object]) -> UsageLicense:
    """Rebuild the usage license carried by a MSG_REQUEST frame."""
    try:
        usage_id = payload["usage_id"]
        content_id = payload["content_id"]
        permission = Permission(payload["permission"])
        count = payload["count"]
        extents_raw = payload["box"]
    except KeyError as exc:
        raise ProtocolError(f"request payload missing field {exc}") from exc
    except ValueError as exc:
        raise ProtocolError(f"unknown permission in request: {exc}") from exc
    if not isinstance(usage_id, str) or not isinstance(content_id, str):
        raise ProtocolError("usage_id/content_id must be strings")
    if isinstance(count, bool) or not isinstance(count, int):
        raise ProtocolError(f"count must be an integer, got {count!r}")
    if not isinstance(extents_raw, list) or not extents_raw:
        raise ProtocolError("request box must be a non-empty extent list")
    from repro.errors import GeometryError, LicenseError

    try:
        box = Box([_extent_from_payload(entry) for entry in extents_raw])
        return UsageLicense(
            license_id=usage_id,
            content_id=content_id,
            permission=permission,
            box=box,
            count=count,
        )
    except (GeometryError, LicenseError) as exc:
        raise ProtocolError(f"invalid usage license on the wire: {exc}") from exc


# ---------------------------------------------------------------------------
# Verdict codec
# ---------------------------------------------------------------------------
def outcome_to_payload(outcome: IssuanceOutcome) -> Dict[str, object]:
    """Serialize a verdict for a MSG_RESPONSE frame."""
    return {
        "usage_id": outcome.usage_id,
        "count": outcome.count,
        "license_set": list(outcome.license_set),
        "accepted": outcome.accepted,
        "reason": outcome.rejection_reason,
        "detail": outcome.rejection_detail,
    }


def outcome_from_payload(payload: Dict[str, object]) -> IssuanceOutcome:
    """Rebuild the verdict carried by a MSG_RESPONSE frame."""
    try:
        usage_id = payload["usage_id"]
        count = payload["count"]
        license_set = payload["license_set"]
        accepted = payload["accepted"]
    except KeyError as exc:
        raise ProtocolError(f"response payload missing field {exc}") from exc
    if not isinstance(usage_id, str):
        raise ProtocolError("response usage_id must be a string")
    if isinstance(count, bool) or not isinstance(count, int):
        raise ProtocolError(f"response count must be an integer, got {count!r}")
    if not isinstance(accepted, bool):
        raise ProtocolError("response accepted flag must be a boolean")
    if not isinstance(license_set, list) or any(
        isinstance(i, bool) or not isinstance(i, int) for i in license_set
    ):
        raise ProtocolError("response license_set must be a list of ints")
    reason = payload.get("reason")
    detail = payload.get("detail")
    if reason is not None and not isinstance(reason, str):
        raise ProtocolError("response reason must be a string or null")
    if detail is not None and not isinstance(detail, str):
        raise ProtocolError("response detail must be a string or null")
    return IssuanceOutcome(
        usage_id,
        count,
        tuple(license_set),
        accepted,
        reason,
        rejection_detail=detail,
    )


# ---------------------------------------------------------------------------
# Trace-context codec (v2: optional "trace" key on MSG_REQUEST payloads)
# ---------------------------------------------------------------------------
def trace_context_to_payload(context: TraceContext) -> Dict[str, object]:
    """Serialize a trace context for embedding under ``payload["trace"]``."""
    return {"trace_id": context.trace_id, "span_id": context.span_id}


def trace_context_from_payload(
    payload: Dict[str, object]
) -> Optional[TraceContext]:
    """Extract the optional trace context from a MSG_REQUEST payload.

    Returns ``None`` when the request carries no ``"trace"`` key (v1
    clients, or tracing disabled).  A present-but-malformed context --
    wrong container type, missing ids, ids that fail
    :func:`repro.obs.distrib.validate_trace_id` -- raises
    :class:`~repro.errors.ProtocolError`: a corrupt context must be
    rejected loudly, never silently dropped into the journals.
    """
    entry = payload.get("trace")
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise ProtocolError(
            f"trace context must be a JSON object, got {type(entry).__name__}"
        )
    try:
        trace_id = entry["trace_id"]
        span_id = entry["span_id"]
    except KeyError as exc:
        raise ProtocolError(f"trace context missing field {exc}") from exc
    return TraceContext(
        validate_trace_id(trace_id, label="trace_id"),
        validate_trace_id(span_id, label="span_id"),
    )


# ---------------------------------------------------------------------------
# Server-timing codec (v2: optional "timing" key on MSG_RESPONSE payloads)
# ---------------------------------------------------------------------------
_TIMING_PHASES = ("queue_us", "match_us", "admission_us", "revalidate_us")


def timing_to_payload(timing: ServerTiming) -> Dict[str, object]:
    """Serialize the per-request server-side phase breakdown."""
    return timing.to_dict()


def timing_from_payload(payload: Dict[str, object]) -> Optional[ServerTiming]:
    """Extract the optional timing echo from a MSG_RESPONSE payload.

    Returns ``None`` when absent (v1 connections);
    raises :class:`~repro.errors.ProtocolError` on a malformed entry.
    """
    entry = payload.get("timing")
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise ProtocolError(
            f"timing echo must be a JSON object, got {type(entry).__name__}"
        )
    values: Dict[str, int] = {}
    for phase in _TIMING_PHASES:
        value = entry.get(phase)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ProtocolError(
                f"timing phase {phase} must be a non-negative integer, "
                f"got {value!r}"
            )
        values[phase] = value
    shard_id = entry.get("shard_id")
    if isinstance(shard_id, bool) or not isinstance(shard_id, int):
        raise ProtocolError(f"timing shard_id must be an integer, got {shard_id!r}")
    kernel = entry.get("kernel")
    if not isinstance(kernel, str) or not kernel:
        raise ProtocolError(f"timing kernel must be a non-empty string, got {kernel!r}")
    return ServerTiming(shard_id=shard_id, kernel=kernel, **values)


# ---------------------------------------------------------------------------
# Admin codec (v2: MSG_ADMIN / MSG_ADMIN_OK live-introspection family)
# ---------------------------------------------------------------------------
#: Queries a live server answers over the admission port.
ADMIN_QUERIES: Tuple[str, ...] = ("metrics", "health", "slo", "slowest", "events")

#: Ceiling on admin "limit" parameters (slowest-N / event-tail length),
#: so one query cannot ask the server to serialize an unbounded reply.
MAX_ADMIN_LIMIT = 1000


def admin_payload(query: str, *, limit: Optional[int] = None) -> Dict[str, object]:
    """Build a MSG_ADMIN payload for ``query``.

    ``limit`` bounds list-shaped replies (top-N slowest spans, event
    tail); it is meaningless for the snapshot queries and rejected there.
    """
    if query not in ADMIN_QUERIES:
        raise ProtocolError(
            f"unknown admin query {query!r} "
            f"(expected one of: {', '.join(ADMIN_QUERIES)})"
        )
    payload: Dict[str, object] = {"query": query}
    if limit is not None:
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
            raise ProtocolError(f"admin limit must be a positive integer, got {limit!r}")
        if limit > MAX_ADMIN_LIMIT:
            raise ProtocolError(
                f"admin limit {limit} exceeds the ceiling of {MAX_ADMIN_LIMIT}"
            )
        if query not in ("slowest", "events"):
            raise ProtocolError(f"admin query {query!r} takes no limit")
        payload["limit"] = limit
    return payload


def admin_query_from_payload(
    payload: Dict[str, object]
) -> Tuple[str, Optional[int]]:
    """Validate a MSG_ADMIN payload; returns ``(query, limit)``.

    Round-trips :func:`admin_payload` and raises
    :class:`~repro.errors.ProtocolError` on anything else.
    """
    query = payload.get("query")
    if not isinstance(query, str) or query not in ADMIN_QUERIES:
        raise ProtocolError(
            f"unknown admin query {query!r} "
            f"(expected one of: {', '.join(ADMIN_QUERIES)})"
        )
    limit = payload.get("limit")
    if limit is not None:
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
            raise ProtocolError(f"admin limit must be a positive integer, got {limit!r}")
        if limit > MAX_ADMIN_LIMIT:
            raise ProtocolError(
                f"admin limit {limit} exceeds the ceiling of {MAX_ADMIN_LIMIT}"
            )
        if query not in ("slowest", "events"):
            raise ProtocolError(f"admin query {query!r} takes no limit")
    return query, limit
