"""Asyncio client for the dynamics serving protocol.

:class:`AsyncServeClient` multiplexes any number of concurrent
requests over one TCP connection to an
:class:`~repro.aserve.server.AsyncDynamicsServer`: a background reader
task correlates ``id``-stamped response lines back to the awaiting
coroutine (or the window queue of a streaming rollout), so a robot
process can run thousands of in-flight evaluations over a single
socket.  Float arrays in responses arrive binary-encoded and are
decoded back into ``numpy`` arrays (:mod:`repro.aserve.wire`).  Once the
connection is lost, every pending and later call raises
:class:`RemoteServeError` at once instead of waiting.

    client = await AsyncServeClient.connect("127.0.0.1", port,
                                            tenant="arm-7",
                                            priority="interactive")
    result = await client.submit("iiwa", "FD", q, qd, tau)
    async for window in client.stream_rollout("iiwa", q0, qd0,
                                              controls, dt=1e-3,
                                              window=8):
        replan(window["qs"])            # act on the first knots
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.aserve.wire import MAX_LINE, decode_line
from repro.serve.request import ServeError

__all__ = ["AsyncServeClient", "RemoteServeError", "RemoteStream"]


class RemoteServeError(ServeError):
    """A server-side failure surfaced over the wire.

    ``kind`` carries the server-side exception class name (e.g.
    ``"RateLimitedError"``); ``retry_after_s`` is populated for
    rate-limit refusals."""

    def __init__(self, message: str, kind: str = "",
                 retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.kind = kind
        self.retry_after_s = retry_after_s


def _raise_remote(payload: dict) -> None:
    raise RemoteServeError(
        payload.get("message", "remote error"),
        kind=payload.get("error", ""),
        retry_after_s=payload.get("retry_after_s", 0.0),
    )


class RemoteStream:
    """Client-side async iterator over a streamed rollout's windows.

    Yields the raw window payloads (dicts with ``window``, ``qs``,
    ``qds``); ``await stream.result()`` returns the final full-
    trajectory payload.  ``await stream.cancel()`` abandons the tail
    server-side; iteration then simply ends.
    """

    _DONE = object()

    def __init__(self, client: "AsyncServeClient", req_id: int) -> None:
        self._client = client
        self._id = req_id
        self._queue: asyncio.Queue = asyncio.Queue()
        self._final: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        # Iteration already surfaces errors; an un-awaited result()
        # must not log "exception never retrieved".
        self._final.add_done_callback(
            lambda f: f.cancelled() or f.exception()
        )
        self._cancelled = False

    def _feed(self, payload: dict) -> None:
        if not payload.get("ok", False):
            if not self._final.done():
                self._final.set_exception(RemoteServeError(
                    payload.get("message", "remote error"),
                    kind=payload.get("error", ""),
                    retry_after_s=payload.get("retry_after_s", 0.0),
                ))
            self._queue.put_nowait(self._DONE)
        elif payload.get("done"):
            if not self._final.done():
                self._final.set_result(payload)
            self._queue.put_nowait(self._DONE)
        else:
            self._queue.put_nowait(payload)

    def _drop(self, exc: Exception) -> None:
        if not self._final.done():
            self._final.set_exception(exc)
        self._queue.put_nowait(self._DONE)

    async def cancel(self) -> None:
        self._cancelled = True
        await self._client._send({"op": "cancel", "id": self._id})

    async def result(self) -> dict:
        return await asyncio.shield(self._final)

    def __aiter__(self) -> "RemoteStream":
        return self

    async def __anext__(self) -> dict:
        while True:
            item = await self._queue.get()
            if item is self._DONE:
                # Surface a transport/server error to the iterating
                # consumer; a stream this client cancelled just ends.
                if (not self._cancelled and self._final.done()
                        and self._final.exception() is not None):
                    raise self._final.exception()
                raise StopAsyncIteration
            if self._cancelled:
                continue        # late window raced the cancel
            return item


class AsyncServeClient:
    """One multiplexed connection to an :class:`AsyncDynamicsServer`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, tenant: str) -> None:
        self._reader = reader
        self._writer = writer
        self.tenant = tenant
        self._next_id = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._streams: dict[int, RemoteStream] = {}
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self._closed = False
        #: Why the connection is unusable (read loop died, or closed);
        #: None while it is live.
        self._lost: Exception | None = None

    # -- lifecycle -----------------------------------------------------

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        tenant: str = "default",
        rate_rps: float | None = None,
        burst: float | None = None,
        priority: str | None = None,
        max_inflight: int | None = None,
        deadline_s: float | None = None,
    ) -> "AsyncServeClient":
        """Open a connection and bind its tenant identity/policy."""
        reader, writer = await asyncio.open_connection(host, port,
                                                       limit=MAX_LINE)
        client = cls(reader, writer, tenant)
        hello = {"op": "hello", "tenant": tenant}
        for key, value in (("rate_rps", rate_rps), ("burst", burst),
                           ("priority", priority),
                           ("max_inflight", max_inflight),
                           ("deadline_s", deadline_s)):
            if value is not None:
                hello[key] = value
        await client._send(hello)
        return client

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self._fail_all(RemoteServeError("connection closed"))

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- plumbing ------------------------------------------------------

    def _fail_all(self, exc: Exception) -> None:
        if self._lost is None:
            self._lost = exc
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)
        streams, self._streams = self._streams, {}
        for stream in streams.values():
            stream._drop(exc)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    raise ConnectionResetError("server closed connection")
                try:
                    payload = decode_line(line)
                except json.JSONDecodeError:
                    continue
                req_id = payload.get("id")
                stream = self._streams.get(req_id)
                if stream is not None:
                    stream._feed(payload)
                    if payload.get("done") or not payload.get("ok", False):
                        self._streams.pop(req_id, None)
                    continue
                future = self._pending.pop(req_id, None)
                if future is not None and not future.done():
                    future.set_result(payload)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail_all(RemoteServeError(str(exc) or repr(exc)))

    async def _send(self, payload: dict) -> None:
        data = json.dumps(payload).encode() + b"\n"
        async with self._write_lock:
            self._writer.write(data)
            await self._writer.drain()

    def _allocate(self) -> tuple[int, asyncio.Future]:
        if self._lost is not None:
            raise RemoteServeError(f"connection lost: {self._lost}")
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[self._next_id] = future
        return self._next_id, future

    async def _call(self, payload: dict) -> dict:
        req_id, future = self._allocate()
        payload["id"] = req_id
        await self._send(payload)
        response = await future
        if not response.get("ok", False):
            _raise_remote(response)
        return response

    @staticmethod
    def _tolist(value):
        return None if value is None else np.asarray(value).tolist()

    # -- API -----------------------------------------------------------

    async def ping(self) -> dict:
        return await self._call({"op": "ping"})

    async def submit(self, robot: str, function: str, q, qd=None, u=None,
                     *, minv=None, f_ext=None,
                     deadline_s: float | None = None,
                     urgent: bool | None = None) -> dict:
        """One dynamics evaluation; returns the response payload
        (``value`` holds the result rows)."""
        payload = {
            "op": "submit", "robot": robot,
            "function": getattr(function, "value", function),
            "q": self._tolist(q), "qd": self._tolist(qd),
            "u": self._tolist(u), "minv": self._tolist(minv),
            "deadline_s": deadline_s, "urgent": urgent,
        }
        if f_ext is not None:
            payload["f_ext"] = {
                str(k): self._tolist(v) for k, v in f_ext.items()
            }
        return await self._call(payload)

    async def submit_rollout(self, robot: str, q0, qd0, controls, *,
                             dt: float, scheme: str = "semi_implicit",
                             deadline_s: float | None = None,
                             urgent: bool | None = None) -> dict:
        """One whole-trajectory rollout; resolves with the full ``qs`` /
        ``qds`` payload."""
        return await self._call({
            "op": "rollout", "robot": robot, "scheme": scheme,
            "q0": self._tolist(q0), "qd0": self._tolist(qd0),
            "controls": self._tolist(controls), "dt": dt,
            "deadline_s": deadline_s, "urgent": urgent,
        })

    async def stream_rollout(self, robot: str, q0, qd0, controls, *,
                             dt: float, window: int,
                             scheme: str = "semi_implicit",
                             deadline_s: float | None = None,
                             urgent: bool | None = None) -> RemoteStream:
        """A streaming rollout; returns a :class:`RemoteStream` yielding
        window payloads as the server computes them."""
        req_id, _ = self._allocate()
        # Streams route through the stream table, not the pending map.
        self._pending.pop(req_id, None)
        stream = RemoteStream(self, req_id)
        self._streams[req_id] = stream
        await self._send({
            "op": "rollout", "id": req_id, "robot": robot,
            "scheme": scheme, "window": window,
            "q0": self._tolist(q0), "qd0": self._tolist(qd0),
            "controls": self._tolist(controls), "dt": dt,
            "deadline_s": deadline_s, "urgent": urgent,
        })
        return stream

    async def telemetry(self) -> dict:
        response = await self._call({"op": "telemetry"})
        return response["telemetry"]

    async def admin(self, action: str | None = None,
                    shard: int | None = None,
                    wait_s: float | None = None) -> dict:
        """Admin snapshot, optionally after a pool mutation
        (``action`` in drain/restart/scale_up/scale_down)."""
        payload = {"op": "admin"}
        if action is not None:
            payload["action"] = action
        if shard is not None:
            payload["shard"] = shard
        if wait_s is not None:
            payload["wait_s"] = wait_s
        response = await self._call(payload)
        return response["admin"]
