"""Per-layer timing for the traced run, taken from outside the program.

Where the program records a layer itself, the probe reads that record:
it sets the service's public ``tracer`` attribute to a
:class:`repro.obs.Tracer` and reads the ``aserve.admission`` spans
(admission time) and ``serve.queue`` spans (submission to the start of
the batch's execution), and admission refusals from
``AdmissionController.stats()``.  For the rest, :class:`Probe` wraps
public entry points of each layer — the names a caller or a sibling
module reaches them by — and restores them on :meth:`Probe.uninstall`.
Nothing in ``src/`` is edited.  The wire and resolve times, which the
program does not record, follow a request across layers by the hash of
its input state (:func:`common.row_key`), unique per request in every
workload.

Layers and what is wrapped:

* ``aserve``: ``AsyncGateway.submit`` (server-side time of a socket
  request).
* ``serve``: ``DynamicsService.submit`` / ``submit_rollout`` (submit
  time, future-done instant; the first call attaches the tracer).
* ``dynamics``: ``batch_evaluate`` where ``repro.serve.service`` and
  ``repro.dynamics.batch`` bind it (one engine call per coalesced
  batch) and the ``CompiledEngine`` function methods (kernel time).
* ``rollout``: ``RolloutPlan.rollout``.
* ``spatial``: ``cross_motion`` / ``cross_force`` where
  ``repro.dynamics.plan`` binds them.
* ``backend``: ``einsum_path`` where ``numpy.einsum`` binds it, and the
  public ``numpy.einsum_path``.
* ``plan``: the repo's own :class:`repro.obs.KernelProfiler`, with
  per-level records, installed through :func:`repro.obs.install`.
"""

from __future__ import annotations

import threading
from time import perf_counter

from common import median, percentile, row_key

#: Engine method -> Table-I function name.
ENGINE_METHODS = {
    "id_batch": "ID", "m_batch": "M", "minv_batch": "Minv",
    "fd_batch": "FD", "did_batch": "dID", "dfd_batch": "dFD",
    "difd_batch": "diFD",
}
#: Spans the tracer keeps; a traced run books a few per request, well
#: under this (``tracer_dropped`` in the log says if it was not).
TRACER_CAPACITY = 1 << 18
PLAN_KERNELS = ("transforms", "rnea", "aba", "mminvgen", "rnea_derivatives")
LEVEL_KERNELS = ("rnea", "aba")


class Probe:
    """Installs the wrappers and accumulates what they record."""

    def __init__(self) -> None:
        from repro.obs import KernelProfiler, Tracer

        self._lock = threading.Lock()
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.profiler = KernelProfiler(per_level=True)
        self.tracer = Tracer(capacity=TRACER_CAPACITY)
        self.service = None
        self.gateway = None
        self.reset()

    # -- bookkeeping ---------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far (call when measuring starts)."""
        with self._lock:
            self.gateway_ms: dict[str, float] = {}
            self.submit_us: list[float] = []
            self.done: dict[str, float] = {}
            self.exec_span: dict[str, tuple[float, float]] = {}
            self.kernel_ms: dict[str, list[float]] = {}
            self.engine_calls: list[tuple[str, str, int, float]] = []
            self.dispatch_ms: list[float] = []
            self.rollout_ms: list[float] = []
            self.rollout_knots = 0
            self.rollout_s = 0.0
            self.cross_s = 0.0
            self.kernel_s = 0.0
            self.einsum_paths: dict[str, int] = {}
            self.engine_call_count: dict[str, int] = {}
        self.profiler.reset()
        self.tracer.clear()
        self.t_reset = perf_counter()
        self._stats0 = None if self.service is None else self.service.stats()
        self._refused0 = self._refusals()

    def _refusals(self) -> int:
        """Requests admission has turned away so far, over all tenants."""
        if self.gateway is None:
            return 0
        return sum(t["rate_limited"] + t["overloaded"]
                   for t in self.gateway.admission.stats().values())

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original))

    def _in_engine(self) -> bool:
        return getattr(self._tls, "fn", None) is not None

    # -- install / uninstall -------------------------------------------

    def install(self) -> "Probe":
        import numpy as np

        import repro.dynamics.batch as batch_mod
        import repro.dynamics.plan as plan_mod
        import repro.serve.service as service_mod
        from repro.aserve.gateway import AsyncGateway
        from repro.dynamics.engine import CompiledEngine
        from repro.obs import hooks
        from repro.rollout.engine import RolloutPlan
        from repro.serve.service import DynamicsService

        try:
            from numpy._core import einsumfunc
        except ImportError:             # numpy < 2
            from numpy.core import einsumfunc

        probe = self
        tls = self._tls

        def gateway_submit(original):
            async def wrapper(gateway, robot, function, q, *args, **kwargs):
                probe.gateway = gateway
                t0 = perf_counter()
                try:
                    return await original(gateway, robot, function, q,
                                          *args, **kwargs)
                finally:
                    elapsed = (perf_counter() - t0) * 1e3
                    probe.gateway_ms[row_key(function.value, q)] = elapsed
            return wrapper

        def service_submit(rollout):
            # submit(robot, function, q, ...) / submit_rollout(robot, q0,
            # ...): the state follows the function, or the robot.
            def make(original):
                def wrapper(service, robot, *args, **kwargs):
                    if probe.service is None:
                        probe.service = service
                        service.tracer = probe.tracer
                    t0 = perf_counter()
                    future = original(service, robot, *args, **kwargs)
                    t1 = perf_counter()
                    if rollout:
                        key = row_key("rollout", args[0])
                    else:
                        fn = getattr(args[0], "value", args[0])
                        key = row_key(fn, args[1])
                    probe.submit_us.append((t1 - t0) * 1e6)
                    future.add_done_callback(
                        lambda _f, k=key: probe.done.__setitem__(
                            k, perf_counter())
                    )
                    return future
                return wrapper
            return make

        def batch_evaluate(original):
            def wrapper(model, function, states, *args, **kwargs):
                tls.engine_s = 0.0
                t0 = perf_counter()
                out = original(model, function, states, *args, **kwargs)
                t1 = perf_counter()
                dispatch = (t1 - t0) - tls.engine_s
                for row in states.q:
                    probe.exec_span.setdefault(
                        row_key(function.value, row), (t0, t1))
                probe.dispatch_ms.append(dispatch * 1e3)
                return out
            return wrapper

        def engine_method(fn):
            def make(original):
                def wrapper(engine, model, q, *args, **kwargs):
                    if probe._in_engine():
                        return original(engine, model, q, *args, **kwargs)
                    tls.fn, tls.cross, tls.einsum = fn, 0.0, 0
                    t0 = perf_counter()
                    try:
                        return original(engine, model, q, *args, **kwargs)
                    finally:
                        elapsed = perf_counter() - t0
                        tls.fn = None
                        tls.engine_s = getattr(tls, "engine_s", 0.0) + elapsed
                        n = len(q)
                        bucket = f"{fn}.{'b1' if n == 1 else 'bN'}"
                        with probe._lock:
                            probe.kernel_ms.setdefault(bucket, []).append(
                                elapsed * 1e3)
                            probe.engine_calls.append(
                                (model.name, fn, n, elapsed))
                            probe.kernel_s += elapsed
                            probe.cross_s += tls.cross
                            probe.einsum_paths[fn] = (
                                probe.einsum_paths.get(fn, 0) + tls.einsum)
                            probe.engine_call_count[fn] = (
                                probe.engine_call_count.get(fn, 0) + 1)
                return wrapper
            return make

        def cross(original):
            def wrapper(*args, **kwargs):
                if not probe._in_engine():
                    return original(*args, **kwargs)
                t0 = perf_counter()
                out = original(*args, **kwargs)
                tls.cross += perf_counter() - t0
                return out
            return wrapper

        def einsum_path(original):
            def wrapper(*args, **kwargs):
                if probe._in_engine():
                    tls.einsum += 1
                return original(*args, **kwargs)
            return wrapper

        def rollout(original):
            def wrapper(plan, model, q0, qd0, controls=None, **kwargs):
                t0 = perf_counter()
                out = original(plan, model, q0, qd0, controls, **kwargs)
                t1 = perf_counter()
                for row in q0:
                    probe.exec_span.setdefault(
                        row_key("rollout", row), (t0, t1))
                with probe._lock:
                    probe.rollout_ms.append((t1 - t0) * 1e3)
                    probe.rollout_knots += out.batch * out.horizon
                    probe.rollout_s += t1 - t0
                return out
            return wrapper

        self._patch(AsyncGateway, "submit", gateway_submit)
        self._patch(DynamicsService, "submit", service_submit(False))
        self._patch(DynamicsService, "submit_rollout", service_submit(True))
        self._patch(service_mod, "batch_evaluate", batch_evaluate)
        self._patch(batch_mod, "batch_evaluate", batch_evaluate)
        for method, fn in ENGINE_METHODS.items():
            self._patch(CompiledEngine, method, engine_method(fn))
        self._patch(plan_mod, "cross_motion", cross)
        self._patch(plan_mod, "cross_force", cross)
        self._patch(einsumfunc, "einsum_path", einsum_path)
        self._patch(np, "einsum_path", einsum_path)
        self._patch(RolloutPlan, "rollout", rollout)
        hooks.install(profiler=self.profiler)
        return self

    def uninstall(self) -> None:
        from repro.obs import hooks

        hooks.uninstall()
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        if self.service is not None:
            self.service.tracer = None

    # -- report --------------------------------------------------------

    def report(self) -> dict:
        """Everything recorded since :meth:`reset`, reduced to what the
        driver needs: per-request ``[gateway_ms, resolve_ms]`` rows keyed
        by input hash (the driver keeps only requests it measured) plus
        per-layer aggregates."""
        spans = [s for s in self.tracer.spans() if s.start_s >= self.t_reset]
        admit_us = [1e6 * s.duration_s for s in spans
                    if s.name == "aserve.admission"]
        wait_ms = [1e3 * s.duration_s for s in spans
                   if s.name == "serve.queue"]
        with self._lock:
            per_key = {}
            for key, done in list(self.done.items()):
                span = self.exec_span.get(key)
                per_key[key] = [
                    self.gateway_ms.get(key),
                    None if span is None else (done - span[1]) * 1e3,
                ]
            engine_calls = list(self.engine_calls)
            report = {
                "per_key": per_key,
                "tracer_dropped": self.tracer.dropped,
                "admit_us_p50": median(admit_us),
                "refused": self._refusals() - self._refused0,
                "wait_ms_p50": median(wait_ms),
                "wait_ms_p99": percentile(wait_ms, 99.0),
                "submit_us_p50": median(self.submit_us),
                "dispatch_ms_p50": median(self.dispatch_ms),
                "kernel_ms_p50": {
                    bucket: median(v) for bucket, v in self.kernel_ms.items()
                },
                "rollout_call_ms_p50": median(self.rollout_ms),
                "rollout_knots_per_s": (
                    self.rollout_knots / self.rollout_s
                    if self.rollout_s else 0.0),
                "cross_share": (self.cross_s / self.kernel_s
                                if self.kernel_s else 0.0),
                "einsum_path_calls": {
                    fn: self.einsum_paths[fn] / self.engine_call_count[fn]
                    for fn in self.engine_call_count
                },
            }
        report.update(self._modeled(engine_calls))
        report["plan"] = self._plan_metrics()
        report["service"] = self._service_metrics()
        return report

    def _service_metrics(self) -> dict:
        if self.service is None or self._stats0 is None:
            return {"rows_per_call": 0.0, "flush_full_share": 0.0,
                    "retries": 0}
        s0, s1 = self._stats0, self.service.stats()

        def delta(key):
            return s1[key] - s0[key]

        def total(stats, key):
            return sum(stats[key].values())

        batches = total(s1, "engine_batches") - total(s0, "engine_batches")
        requests = (total(s1, "engine_requests")
                    - total(s0, "engine_requests"))
        flushes = (delta("flushed_full") + delta("flushed_timeout")
                   + delta("flushed_merged"))
        return {
            "rows_per_call": requests / batches if batches else 0.0,
            "flush_full_share": (delta("flushed_full") / flushes
                                 if flushes else 0.0),
            "retries": delta("retries"),
        }

    @staticmethod
    def _modeled(engine_calls) -> dict:
        """Modeled Dadu-RBD time next to the measured kernel time.

        ``modeled_us``: batch-1 modeled latency per function, averaged
        over the robots the workload served it for — fixed by the
        accelerator model, so no host-side change can move it.
        ``wall_over_modeled``: median over engine calls of wall time
        over the modeled makespan of the same (robot, function, batch).
        """
        from repro.core.accelerator import DaduRBD
        from repro.dynamics.functions import RBDFunction
        from repro.model.library import load_robot

        accels: dict[str, DaduRBD] = {}
        makespans: dict[tuple, float] = {}

        def accel(robot):
            if robot not in accels:
                accels[robot] = DaduRBD(load_robot(robot))
            return accels[robot]

        def modeled_s(robot, fn, n, field):
            key = (robot, fn, n, field)
            if key not in makespans:
                acc = accel(robot)
                profile = acc.profile_batch(RBDFunction(fn), n)
                makespans[key] = acc.config.cycles_to_seconds(
                    getattr(profile, field))
            return makespans[key]

        ratios: dict[str, list[float]] = {}
        robots: dict[str, set] = {}
        for robot, fn, n, wall in engine_calls:
            robots.setdefault(fn, set()).add(robot)
            ratios.setdefault(fn, []).append(
                wall / modeled_s(robot, fn, n, "makespan_cycles"))
        modeled_us = {
            fn: 1e6 * sum(modeled_s(r, fn, 1, "mean_latency_cycles")
                          for r in sorted(rs)) / len(rs)
            for fn, rs in robots.items()
        }
        return {
            "modeled_us": modeled_us,
            "wall_over_modeled": {fn: median(v) for fn, v in ratios.items()},
        }

    def _plan_metrics(self) -> dict:
        """Mean time per kernel call and per recursion-level pass, pooled
        over robots, plus the full per-robot table for the log."""
        kernels: dict[str, list[float]] = {}
        levels: dict[str, list[float]] = {}
        table = []
        for (robot, kernel), row in self.profiler.breakdown().items():
            calls_total = kernels.setdefault(kernel, [0, 0.0])
            calls_total[0] += row["calls"]
            calls_total[1] += row["total_s"]
            level_rows = {}
            for lvl, lrow in row["levels"].items():
                slot = levels.setdefault(kernel, [0, 0.0])
                slot[0] += lrow["calls"]
                slot[1] += lrow["total_s"]
                level_rows[str(lvl)] = 1e6 * lrow["total_s"] / lrow["calls"]
            table.append({
                "robot": robot, "kernel": kernel, "calls": row["calls"],
                "mean_ms": 1e3 * row["mean_s"], "level_us": level_rows,
            })
        out = {
            f"{k}_ms": (1e3 * kernels[k][1] / kernels[k][0]
                        if kernels.get(k, [0])[0] else 0.0)
            for k in PLAN_KERNELS
        }
        for k in LEVEL_KERNELS:
            calls, total = levels.get(k, [0, 0.0])
            out[f"{k}.level_us"] = 1e6 * total / calls if calls else 0.0
        out["table"] = table
        return out


def resolve_ms_p50(per_key: dict, keys) -> float:
    """Median resolve time over the requests the driver measured."""
    rows = (per_key.get(key) for key in keys)
    return median([row[1] for row in rows
                   if row is not None and row[1] is not None])
