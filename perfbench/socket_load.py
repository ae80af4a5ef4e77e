"""The two socket workloads: ``mpc-socket`` and ``fleet-poisson``.

Both drive a server process (:mod:`serve_host`, i.e. ``python -m repro
serve`` with its defaults) through the repo's own
:class:`repro.aserve.AsyncServeClient`, so the client side is what a
robot program would run.
"""

from __future__ import annotations

import asyncio
import os
import re
import select
import signal
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from common import (
    FLEET_CONNECTIONS,
    FLEET_MIX,
    FLEET_RATE,
    FUNCTIONS,
    HERE,
    MPC_ROBOT,
    ROOT,
    RUN_DIR,
    WARMUP_S,
    child_env,
    read_report,
)

#: Seconds a launched server may take to print its address.
START_TIMEOUT_S = 120.0
#: Seconds an unanswered request is waited for (after the last send of
#: an open loop, or within a tick of a closed one).
DRAIN_TIMEOUT_S = 10.0
#: Least gap before the next open-loop send in which a host-speed
#: sample (about 1 ms) may run.
METER_GAP_S = 4e-3
_READY = re.compile(r"serving dynamics on [^\s:]+:(\d+)")


class ServerProcess:
    """One ``serve_host`` process: start, mark, stop, read its report."""

    def __init__(self, trace: bool, tag: str) -> None:
        self.trace = trace
        self.report_path = RUN_DIR / f"serve-{os.getpid()}-{tag}.json"
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.t_launch = 0.0

    def start(self) -> "ServerProcess":
        cmd = [sys.executable, str(HERE / "serve_host.py"),
               "--report", str(self.report_path)]
        if self.trace:
            cmd.append("--trace")
        self.t_launch = perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        # Raw reads: the address line must be seen as soon as it is
        # written, whatever else the CLI prints before it.
        fd = self.proc.stdout.fileno()
        seen = b""
        deadline = self.t_launch + START_TIMEOUT_S
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not start in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited with code {self.proc.wait()}")
            seen += chunk
            match = _READY.search(seen.decode(errors="replace"))
            if match:
                self.port = int(match.group(1))
                return self

    def mark(self) -> None:
        """Tell a traced host that the measured interval starts now."""
        if self.trace:
            self.proc.send_signal(signal.SIGUSR1)

    def stop(self) -> dict | None:
        """SIGINT (the CLI's shutdown path), wait, and read the report."""
        if self.proc is None:
            return None
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        if not self.report_path.exists():
            return None
        report = read_report(self.report_path)
        self.report_path.unlink()
        return report


@dataclass
class Request:
    robot: str
    function: str
    q: np.ndarray
    qd: np.ndarray | None
    u: np.ndarray | None
    t_ref: float = 0.0          # send time (closed) / due time (open)
    t_sent: float = 0.0
    t_done: float | None = None
    outcome: str = "pending"    # ok | <server exception name> | timeout
    value: object = None

    @property
    def latency_ms(self) -> float:
        return (self.t_done - self.t_ref) * 1e3

    @property
    def rtt_ms(self) -> float:
        return (self.t_done - self.t_sent) * 1e3


def make_request(rng, robot: str, function: str, nv: int) -> Request:
    """A request with a fresh random state; Minv takes only ``q``."""
    q = rng.uniform(-1.0, 1.0, nv)
    if function == "Minv":
        return Request(robot, function, q, None, None)
    return Request(robot, function, q, rng.uniform(-1.0, 1.0, nv),
                   rng.normal(0.0, 1.0, nv))


async def send(client, req: Request, t_ref: float | None = None) -> Request:
    from repro.aserve import RemoteServeError

    req.t_sent = perf_counter()
    req.t_ref = req.t_sent if t_ref is None else t_ref
    try:
        response = await client.submit(req.robot, req.function, req.q,
                                       req.qd, req.u)
    except RemoteServeError as exc:
        req.outcome = exc.kind or type(exc).__name__
    else:
        req.outcome, req.value = "ok", response["value"]
    req.t_done = perf_counter()
    return req


async def _connect(port: int, tenant: str, priority: str | None = None):
    from repro.aserve import AsyncServeClient

    return await AsyncServeClient.connect(
        "127.0.0.1", port, tenant=tenant, priority=priority,
    )


async def answer_pairs(port: int, pairs, rng, nvs: dict) -> float:
    """Send the first request of every (robot, function) pair, one at a
    time; returns the instant the last one was answered."""
    client = await _connect(port, "setup")
    try:
        for robot, function in pairs:
            await asyncio.wait_for(
                send(client, make_request(rng, robot, function,
                                          nvs[robot])),
                START_TIMEOUT_S)
        return perf_counter()
    finally:
        await client.close()


async def mpc_loop(port: int, rng, nv: int, seconds: float, on_measure,
                   meter):
    """Closed loop on one interactive connection: each tick sends every
    MPC function at batch 1 for the current state of ``MPC_ROBOT`` and
    ends with the last answer.  Between measured ticks (the server
    idles) ``meter`` samples the host's speed.  Returns ``(tick_ms,
    tick_end_times, requests, elapsed_s)`` of the measured ticks."""
    client = await _connect(port, "mpc", priority="interactive")
    ticks, ticks_t, requests = [], [], []
    q = rng.uniform(-1.0, 1.0, nv)
    qd = rng.uniform(-1.0, 1.0, nv)
    try:
        t_measure = perf_counter() + WARMUP_S
        t_end = t_measure + seconds
        measuring = False
        t_first = t_last = 0.0
        while perf_counter() < t_end:
            q = q + 0.01 * rng.standard_normal(nv)
            qd = qd + 0.01 * rng.standard_normal(nv)
            u = rng.normal(0.0, 1.0, nv)
            tick = [Request(MPC_ROBOT, fn, q,
                            None if fn == "Minv" else qd,
                            None if fn == "Minv" else u)
                    for fn in FUNCTIONS]
            if not measuring and perf_counter() >= t_measure:
                measuring = True
                on_measure()
                t_first = perf_counter()
            t0 = perf_counter()
            tasks = [asyncio.ensure_future(send(client, r)) for r in tick]
            _, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            for r in tick:
                if r.t_done is None:
                    r.outcome = "timeout"
            t_last = perf_counter()
            if measuring:
                ticks.append((t_last - t0) * 1e3)
                ticks_t.append(t_last)
                requests.extend(tick)
                if meter.due():
                    meter.sample()
    finally:
        await client.close()
    return ticks, ticks_t, requests, t_last - t_first


async def fleet_loop(port: int, rng, nvs: dict, seconds: float, on_measure,
                     meter):
    """Open loop: Poisson arrivals at ``FLEET_RATE`` per second, spread
    over ``FLEET_CONNECTIONS`` connections, robots from ``nvs`` and
    functions dealt per robot from a ``FLEET_MIX`` deck.  Every request
    is timed from its due time.  In a measured gap with nothing in
    flight (the server idles) and the next send far enough off,
    ``meter`` samples the host's speed.  Returns ``(requests, late_ms,
    flush_wait_ms)``: the measured interval's requests and send delays,
    and the batcher's flush timer as the server's telemetry reports it
    after the run."""
    # A Poisson process conditioned on its count, per phase: every seed
    # offers the same number of measured requests.
    due = np.concatenate([
        np.sort(rng.uniform(0.0, WARMUP_S, round(FLEET_RATE * WARMUP_S))),
        WARMUP_S + np.sort(rng.uniform(0.0, seconds,
                                       round(FLEET_RATE * seconds))),
    ])
    # Shuffled decks hold the exact mix (robots uniform, functions by
    # weight), so the share of each pair is the same for every seed.
    deck = [(robot, fn) for robot in sorted(nvs)
            for fn, count in FLEET_MIX for _ in range(count)]
    pairs = []
    while len(pairs) < len(due):
        pairs.extend(deck[i] for i in rng.permutation(len(deck)))
    reqs = [make_request(rng, robot, fn, nvs[robot])
            for robot, fn in pairs[:len(due)]]
    clients = [await _connect(port, f"fleet-{i}")
               for i in range(FLEET_CONNECTIONS)]
    tasks, late_ms, measured = [], [], []
    inflight = 0
    idle = asyncio.Event()

    def landed(_task) -> None:
        nonlocal inflight
        inflight -= 1
        if not inflight:
            idle.set()

    try:
        t0 = perf_counter() + 0.05
        measuring = False
        for i, (offset, req) in enumerate(zip(due, reqs)):
            t_due = t0 + offset
            delay = t_due - perf_counter()
            if measuring and delay > METER_GAP_S and meter.due():
                try:
                    await asyncio.wait_for(idle.wait(),
                                           delay - METER_GAP_S)
                except asyncio.TimeoutError:
                    pass
                else:
                    meter.sample()
                delay = t_due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if offset >= WARMUP_S:
                if not measuring:
                    measuring = True
                    on_measure()
                late_ms.append((perf_counter() - t_due) * 1e3)
                measured.append(req)
            task = asyncio.ensure_future(
                send(clients[i % FLEET_CONNECTIONS], req, t_ref=t_due))
            inflight += 1
            idle.clear()
            task.add_done_callback(landed)
            tasks.append(task)
        _, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        telemetry = await asyncio.wait_for(clients[0].telemetry(),
                                           DRAIN_TIMEOUT_S)
    finally:
        for client in clients:
            await client.close()
    for req in measured:
        if req.t_done is None:
            req.outcome = "timeout"
    gauge = telemetry["serve_effective_wait_seconds"]["samples"][0]
    return measured, late_ms, gauge["value"] * 1e3
