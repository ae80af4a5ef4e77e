"""Line codec shared by the socket server and client.

Frames are newline-delimited JSON.  Replies carry float arrays in binary:
every float ``ndarray`` in a reply is sent as ::

    {"__ndarray__": "<base64 of little-endian float64>", "shape": [...]}

which costs a fraction of a JSON number list to encode and decode and
round-trips every bit (NaN and infinities included).  The client's
decoder turns these objects back into arrays, so callers see arrays.
Requests stay plain JSON lists.
"""

from __future__ import annotations

import base64
import dataclasses
import json

import numpy as np

__all__ = ["MAX_LINE", "decode_line", "encode_line", "to_wire"]

#: Longest frame either side accepts (the asyncio stream ``limit``).  A
#: robot client's biggest request is a long-horizon controls matrix and
#: its biggest replies are trajectories and derivative matrices; 32 MiB
#: is far beyond any of them and refuses absurd lines before
#: ``json.loads`` allocates for them.
MAX_LINE = 32 * 1024 * 1024

_ARRAY_KEY = "__ndarray__"


def to_wire(value):
    """Recursively convert engine outputs to JSON-serializable forms.

    Float arrays become binary array objects, other arrays lists;
    dataclass results (e.g. ``FDDerivatives``) become a dict of every
    field.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "f":
            return value.tolist()
        data = np.ascontiguousarray(value, dtype="<f8").tobytes()
        return {_ARRAY_KEY: base64.b64encode(data).decode("ascii"),
                "shape": list(value.shape)}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [to_wire(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_wire(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_wire(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value


def encode_line(payload) -> bytes:
    """One frame: ``payload`` as JSON (arrays in binary) plus newline."""
    return json.dumps(to_wire(payload)).encode() + b"\n"


def _decode_object(obj: dict):
    if _ARRAY_KEY not in obj:
        return obj
    data = bytearray(base64.b64decode(obj[_ARRAY_KEY]))
    return np.frombuffer(data, dtype="<f8").reshape(obj["shape"])


def decode_line(line: bytes):
    """Parse one frame, restoring binary array objects as ndarrays."""
    return json.loads(line, object_hook=_decode_object)
