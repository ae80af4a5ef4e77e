"""Line-protocol socket server: the serving plane's first network edge.

:class:`AsyncDynamicsServer` listens on a TCP port and speaks a
newline-delimited JSON protocol (one object per line, ``id``-correlated
responses, out-of-order completion — requests from one connection
execute concurrently and responses interleave).  It is a thin shell:
every operation lands on the :class:`~repro.aserve.gateway.AsyncGateway`,
so out-of-process clients get the same admission control, priority
classes, deadline propagation, and streaming semantics as in-process
coroutines.

Protocol (client -> server), one JSON object per line::

    {"op": "hello", "tenant": "lab", "rate_rps": 500, "priority":
     "interactive", ...}                 -> bind this connection's tenant
    {"op": "submit", "id": 1, "robot": "iiwa", "function": "FD",
     "q": [...], "qd": [...], "u": [...]}  -> one dynamics evaluation
    {"op": "rollout", "id": 2, "robot": "iiwa", "scheme": "rk4",
     "q0": [...], "qd0": [...], "controls": [[...]], "dt": 1e-3,
     "window": 8}                        -> streamed: one line per window
                                            ({"done": false}), then the
                                            final line ({"done": true})
    {"op": "cancel", "id": 2}            -> abandon stream 2's tail
    {"op": "telemetry"}                  -> telemetry JSON document
    {"op": "admin"}                      -> admin_state snapshot
    {"op": "admin", "action": "drain"|"restart"|"scale_up"|"scale_down",
     "shard": 0}                         -> pool mutation
    {"op": "ping"}                       -> {"op": "pong"}

Responses echo ``id`` and carry ``"ok": true`` or ``"ok": false`` with
``error`` (exception class name) and ``message``; rate-limit refusals
include ``retry_after_s``.  A frame that is valid JSON but not an
object, or a ``submit``/``rollout`` frame missing a required field, is
answered with ``"error": "InvalidFrame"`` and the connection stays
open.  Float arrays in responses (``value``, ``qs``, ``qds``, and each
field of a structured result such as ``FDDerivatives``, which is sent as
an object of its fields) are binary::

    {"__ndarray__": "<base64 of little-endian float64>", "shape": [...]}

:class:`~repro.aserve.client.AsyncServeClient` decodes them back into
arrays (:mod:`repro.aserve.wire`); requests stay plain JSON lists.

A connection whose first bytes are an HTTP ``GET`` is served as a
one-shot HTTP/1.1 exchange instead —
``/metrics`` (Prometheus text), ``/healthz``, and ``/telemetry`` — so
the same port feeds both robot clients and a scraper.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.aserve.admission import (
    AdmissionController,
    ClientOverloaded,
    RateLimitedError,
    TenantPolicy,
)
from repro.aserve.autoscale import Autoscaler
from repro.aserve.gateway import AsyncGateway
from repro.aserve.wire import MAX_LINE, encode_line
from repro.dynamics.functions import RBDFunction
from repro.serve.service import DynamicsService

__all__ = ["AsyncDynamicsServer"]

class InvalidFrame(ValueError):
    """A frame the protocol cannot act on (answered, never fatal)."""


def _required(message: dict, key: str):
    """``message[key]``; an absent or ``null`` field is an InvalidFrame
    naming it (a bare KeyError would read like an unknown robot)."""
    value = message.get(key)
    if value is None:
        raise InvalidFrame(
            f"{message.get('op')} frame is missing required field {key!r}"
        )
    return value


def _error_payload(req_id, exc: BaseException) -> dict:
    payload = {
        "id": req_id,
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, RateLimitedError):
        payload["retry_after_s"] = exc.retry_after_s
    return payload


class AsyncDynamicsServer:
    """Serve a :class:`DynamicsService` over TCP (JSON lines + HTTP GET).

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  An optional :class:`Autoscaler` is started and
    stopped with the server and surfaced through the admin op.
    """

    def __init__(
        self,
        service: DynamicsService,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: AdmissionController | None = None,
        autoscaler: Autoscaler | None = None,
    ) -> None:
        self.service = service
        self.gateway = AsyncGateway(service, admission)
        self.autoscaler = autoscaler
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self.connections = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "AsyncDynamicsServer":
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port,
            limit=MAX_LINE,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.autoscaler is not None:
            self.autoscaler.start()
        return self

    async def stop(self) -> None:
        if self.autoscaler is not None:
            self.autoscaler.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "AsyncDynamicsServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        tenant = f"conn-{self.connections}"
        write_lock = asyncio.Lock()
        #: Live streaming rollouts on this connection, id -> stream.
        streams: dict = {}
        tasks: set[asyncio.Task] = set()

        async def send(payload: dict) -> None:
            data = encode_line(payload)
            async with write_lock:
                writer.write(data)
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await send({"ok": False, "error": "LineTooLong",
                                "message": "request line exceeds limit"})
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                if stripped.startswith(b"GET ") or stripped.startswith(b"HEAD "):
                    await self._serve_http(stripped, reader, writer)
                    return
                try:
                    message = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    await send(_error_payload(None, exc))
                    continue
                if not isinstance(message, dict):
                    await send(_error_payload(None, InvalidFrame(
                        "a frame must be a JSON object, got "
                        f"{type(message).__name__}"
                    )))
                    continue
                op = message.get("op")
                if op == "hello":
                    tenant = await self._handle_hello(message, tenant, send)
                    continue
                if op == "cancel":
                    stream = streams.get(message.get("id"))
                    if stream is not None:
                        stream.cancel()
                    await send({"id": message.get("id"), "ok": True,
                                "op": "cancel"})
                    continue
                # Every other op runs concurrently so a long rollout
                # doesn't head-of-line-block the connection's pings.
                task = asyncio.ensure_future(self._handle(
                    message, tenant, send, streams
                ))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            # A dropped connection abandons its streams' tails — the
            # client is gone, free the shard capacity.
            for stream in streams.values():
                stream.cancel()
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError):
                # Server shutdown cancels connection tasks mid-teardown;
                # the socket is closed either way.
                pass

    async def _handle_hello(self, message: dict, tenant: str,
                            send) -> str:
        name = str(message.get("tenant", tenant))
        fields = {}
        for key in ("rate_rps", "burst", "deadline_s"):
            if message.get(key) is not None:
                fields[key] = float(message[key])
        if message.get("priority") is not None:
            fields["priority"] = str(message["priority"])
        if message.get("max_inflight") is not None:
            fields["max_inflight"] = int(message["max_inflight"])
        try:
            if fields:
                self.gateway.set_policy(name, TenantPolicy(**fields))
            await send({"ok": True, "op": "hello", "tenant": name})
            return name
        except (ValueError, TypeError) as exc:
            await send({"ok": False, "op": "hello",
                        "error": type(exc).__name__, "message": str(exc)})
            return tenant

    async def _handle(self, message: dict, tenant: str, send,
                      streams: dict) -> None:
        op = message.get("op")
        req_id = message.get("id")
        try:
            if op == "submit":
                await self._handle_submit(message, tenant, send)
            elif op == "rollout":
                await self._handle_rollout(message, tenant, send, streams)
            elif op == "telemetry":
                await send({"id": req_id, "ok": True,
                            "telemetry": self.service.telemetry().to_json()})
            elif op == "admin":
                await self._handle_admin(message, send)
            elif op == "ping":
                await send({"id": req_id, "ok": True, "op": "pong"})
            else:
                await send({"id": req_id, "ok": False,
                            "error": "UnknownOp",
                            "message": f"unknown op {op!r}"})
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            try:
                await send(_error_payload(req_id, exc))
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_submit(self, message: dict, tenant: str,
                             send) -> None:
        req_id = message.get("id")
        f_ext = message.get("f_ext")
        if f_ext is not None:
            f_ext = {int(k): np.asarray(v, dtype=float)
                     for k, v in f_ext.items()}
        result = await self.gateway.submit(
            _required(message, "robot"),
            RBDFunction(_required(message, "function")),
            np.asarray(_required(message, "q"), dtype=float),
            qd=(None if message.get("qd") is None
                else np.asarray(message["qd"], dtype=float)),
            u=(None if message.get("u") is None
               else np.asarray(message["u"], dtype=float)),
            minv=(None if message.get("minv") is None
                  else np.asarray(message["minv"], dtype=float)),
            f_ext=f_ext,
            tenant=tenant,
            deadline_s=message.get("deadline_s"),
            urgent=message.get("urgent"),
        )
        await send({
            "id": req_id, "ok": True,
            "value": result.value,
            "shard": result.shard,
            "engine": result.engine,
            "backend": result.backend,
            "batch_size": result.batch_size,
            "wall_latency_s": result.wall_latency_s,
            "modeled_latency_s": result.modeled_latency_s,
        })

    async def _handle_rollout(self, message: dict, tenant: str, send,
                              streams: dict) -> None:
        req_id = message.get("id")
        kwargs = dict(
            scheme=message.get("scheme", "semi_implicit"),
            tenant=tenant,
            deadline_s=message.get("deadline_s"),
            urgent=message.get("urgent"),
        )
        args = (
            _required(message, "robot"),
            np.asarray(_required(message, "q0"), dtype=float),
            np.asarray(_required(message, "qd0"), dtype=float),
            np.asarray(_required(message, "controls"), dtype=float),
            float(_required(message, "dt")),
        )
        window = message.get("window")
        if window is None:
            result = await self.gateway.submit_rollout(*args, **kwargs)
            await send(self._rollout_payload(req_id, result))
            return
        stream = await self.gateway.stream_rollout(
            *args, window=int(window), **kwargs
        )
        streams[req_id] = stream
        try:
            async for w in stream:
                await send({
                    "id": req_id, "ok": True, "done": False,
                    "window": [w.t0, w.t1],
                    "qs": w.trajectory.qs,
                    "qds": w.trajectory.qds,
                })
            try:
                result = await stream.result()
            except Exception as exc:
                await send(_error_payload(req_id, exc))
                return
            await send(self._rollout_payload(req_id, result))
        finally:
            streams.pop(req_id, None)

    @staticmethod
    def _rollout_payload(req_id, result) -> dict:
        return {
            "id": req_id, "ok": True, "done": True,
            "qs": result.value.qs,
            "qds": result.value.qds,
            "horizon": result.horizon,
            "windows": result.windows,
            "shard": result.shard,
            "engine": result.engine,
            "batch_size": result.batch_size,
            "wall_latency_s": result.wall_latency_s,
        }

    async def _handle_admin(self, message: dict, send) -> None:
        req_id = message.get("id")
        action = message.get("action")
        loop = asyncio.get_running_loop()
        if action in ("drain", "restart", "scale_up", "scale_down"):
            shard = message.get("shard")
            if action == "drain":
                await loop.run_in_executor(
                    None, lambda: self.service.drain_shard(
                        int(shard), wait_s=message.get("wait_s")
                    )
                )
            elif action == "restart":
                self.service.restart_shard(int(shard))
            elif action == "scale_up":
                await loop.run_in_executor(
                    None, lambda: self.service.scale_up(reason="admin")
                )
            else:
                await loop.run_in_executor(
                    None, lambda: self.service.scale_down(
                        index=None if shard is None else int(shard),
                        reason="admin",
                    )
                )
        elif action is not None:
            await send({"id": req_id, "ok": False, "error": "UnknownAction",
                        "message": f"unknown admin action {action!r}"})
            return
        state = self.service.admin_state()
        state["tenants"] = self.gateway.admission.stats()
        if self.autoscaler is not None:
            state["autoscaler"] = self.autoscaler.stats()
        await send({"id": req_id, "ok": True, "admin": state})

    # -- HTTP (scrape surface) -----------------------------------------

    async def _serve_http(self, request_line: bytes,
                          reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """One-shot HTTP/1.1: GET /metrics | /healthz | /telemetry."""
        try:
            path = request_line.split()[1].decode("latin-1")
        except (IndexError, UnicodeDecodeError):
            path = "/"
        # Drain the (ignored) request headers.
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
        if path.startswith("/metrics"):
            status, ctype = "200 OK", "text/plain; version=0.0.4"
            body = self.service.telemetry().prometheus()
        elif path.startswith("/healthz"):
            healthy = any(
                s.health == "healthy" for s in self.service.pool.shards
            )
            status = "200 OK" if healthy else "503 Service Unavailable"
            ctype = "application/json"
            body = json.dumps({
                "status": "ok" if healthy else "degraded",
                "active_shards": self.service.pool.n_active,
                "shard_health": [
                    s.health for s in self.service.pool.shards
                ],
            })
        elif path.startswith("/telemetry"):
            status, ctype = "200 OK", "application/json"
            body = json.dumps(self.service.telemetry().to_json())
        else:
            status, ctype = "404 Not Found", "text/plain"
            body = f"no route for {path}\n"
        payload = body.encode()
        writer.write(
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n".encode() + payload
        )
        try:
            await writer.drain()
        finally:
            writer.close()
