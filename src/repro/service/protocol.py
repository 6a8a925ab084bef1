"""Length-prefixed JSON framing for the sweep service.

One frame = a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Both sides exchange whole frames only, so a torn
read (peer died mid-frame) is always detectable as a :class:`FrameError`
rather than a half-parsed message — the same never-trust-a-torn-line
discipline the cache segments follow on disk.

The JSON dialect is Python's (``NaN`` tokens allowed), matching the
cache entries the daemon writes; values round-trip byte-identically
through :func:`repro.runner.sweep._normalize` on both sides.

Request/response shapes are plain dicts documented in
``docs/serve.md``; this module only moves them.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional

__all__ = ["FrameError", "MAX_FRAME", "encode_frame", "recv_frame", "send_frame"]

#: Upper bound on one frame's body, a guard against a corrupt or
#: malicious length prefix allocating unbounded memory.  Generous: a
#: sweep submission carries every point's params in one frame.
MAX_FRAME = 256 * 1024 * 1024

_HEADER = struct.Struct("!I")


class FrameError(ConnectionError):
    """The stream ended or desynchronized mid-frame."""


def encode_frame(obj: Any) -> bytes:
    """One message as wire bytes (header + JSON body)."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(body)) + body


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Send one message as a single ``sendall`` (header + body)."""
    sock.sendall(encode_frame(obj))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on EOF *before the first
    byte* (a clean close at a frame boundary), :class:`FrameError` on
    EOF mid-read (the peer died inside a frame)."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise FrameError(f"stream ended {n - got} bytes into a frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Receive one message; ``None`` on a clean EOF between frames.

    Raises :class:`FrameError` for torn frames, oversized lengths, or
    bodies that fail to parse as a JSON object — a desynchronized
    stream must never be silently reinterpreted.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"frame length {length} exceeds MAX_FRAME")
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("stream ended between frame header and body")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"unparsable frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameError(f"frame body must be a JSON object, got {type(message).__name__}")
    return message
