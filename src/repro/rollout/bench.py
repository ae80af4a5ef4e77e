"""Rollout benchmark: batched ``(n, T)`` slabs vs per-task stepping.

Three workloads, mirroring the paper's application mix:

* ``serial`` — free RK4 rollouts on the iiwa arm (the Fig 13 shape:
  serial in time, parallel across sampling points);
* ``quadruped_free`` — free semi-implicit rollouts on HyQ, so every step
  integrates the floating base on the SE(3) manifold with no contact
  solve to hide its cost;
* ``quadruped_contact`` — semi-implicit rollouts on HyQ with two feet in
  contact (the legged-MPC shape: every step is a constrained FD).

The per-task baseline steps each trajectory with the scalar kernels —
the loop ``repro.apps.integrators`` ran before the rollout subsystem —
timed on a task subsample and scaled to the full batch (stated in the
emitted rows as ``baseline_tasks_measured``).  Used by
``python -m repro rollout-bench`` and ``benchmarks/bench_rollout.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dynamics.contact import ContactPoint, constrained_forward_dynamics
from repro.dynamics.functions import forward_dynamics
from repro.model.library import load_robot
from repro.rollout import RolloutEngine

#: Acceptance target at batch 256 (and the CI smoke floor).
SPEEDUP_TARGET = 5.0
SPEEDUP_FLOOR = 1.0
#: Workload names, in report order.
WORKLOADS = ("serial", "quadruped_free", "quadruped_contact")


def _workload(name: str):
    """(robot, scheme, contacts) for a named workload."""
    if name == "serial":
        return "iiwa", "rk4", None
    if name == "quadruped_free":
        return "hyq", "semi_implicit", None
    if name == "quadruped_contact":
        model = load_robot("hyq")
        feet = [
            ContactPoint(model.link_index(link), np.array([0.0, 0.0, -0.35]))
            for link in ("lf_kfe", "rh_kfe")
        ]
        return "hyq", "semi_implicit", feet
    raise ValueError(f"unknown workload {name!r}")


def _scalar_rollout(model, q0, qd0, controls, dt, scheme, contacts):
    """Per-task reference stepping with the scalar kernels."""
    q, qd = q0.copy(), qd0.copy()
    for t in range(controls.shape[0]):
        tau = controls[t]
        if contacts:
            qdd = constrained_forward_dynamics(model, q, qd, tau,
                                               contacts).qdd
            qd = qd + dt * qdd
            q = model.integrate(q, dt * qd)
        elif scheme == "rk4":
            from repro.apps.integrators import State, rk4_step

            state = rk4_step(model, State(q, qd), tau, dt)
            q, qd = state.q, state.qd
        else:
            qdd = forward_dynamics(model, q, qd, tau)
            qd = qd + dt * qdd
            q = model.integrate(q, dt * qd)
    return q, qd


def run_rollout_bench(
    workload: str = "serial",
    batch: int = 256,
    horizon: int = 16,
    engine: str = "compiled",
    baseline_tasks: int = 8,
    dt: float = 1e-3,
    seed: int = 0,
) -> dict:
    """Time one workload; returns a flat result row.

    The batched side simulates the whole ``(batch, horizon)`` slab via
    :class:`~repro.rollout.RolloutEngine`; the baseline steps
    ``min(baseline_tasks, batch)`` tasks with the scalar kernels and is
    scaled to the full batch.
    """
    robot, scheme, contacts = _workload(workload)
    model = load_robot(robot)
    rng = np.random.default_rng(seed)
    q0 = np.stack([model.random_q(rng) for _ in range(batch)])
    qd0 = 0.2 * rng.normal(size=(batch, model.nv))
    controls = 0.1 * rng.normal(size=(batch, horizon, model.nv))

    rollout_engine = RolloutEngine(scheme, engine=engine)
    rollout_engine.rollout(model, q0, qd0, controls, dt=dt,
                           contacts=contacts)              # warm-up
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        rollout_engine.rollout(model, q0, qd0, controls, dt=dt,
                               contacts=contacts)
        best = min(best, time.perf_counter() - t0)

    measured = min(baseline_tasks, batch)
    _scalar_rollout(model, q0[0], qd0[0], controls[0], dt, scheme,
                    contacts)                              # warm-up
    t0 = time.perf_counter()
    for k in range(measured):
        _scalar_rollout(model, q0[k], qd0[k], controls[k], dt, scheme,
                        contacts)
    baseline = (time.perf_counter() - t0) * (batch / measured)

    return {
        "workload": workload,
        "robot": robot,
        "scheme": scheme,
        "engine": engine,
        "backend": "numpy",
        "batch": batch,
        "horizon": horizon,
        "contacts": 0 if not contacts else len(contacts),
        "baseline_tasks_measured": measured,
        "per_task_s": baseline,
        "batched_s": best,
        "speedup": baseline / best,
        "steps_per_s": batch * horizon / best,
    }


def format_rollout_table(rows: list[dict]):
    """Render the result rows as a reporting table."""
    from repro.reporting import Table

    table = Table(
        "rollout: batched slab vs per-task stepping",
        ["workload", "batch", "T", "per-task (ms)", "batched (ms)",
         "speedup", "steps/s"],
    )
    for row in rows:
        table.add_row(
            row["workload"], row["batch"], row["horizon"],
            row["per_task_s"] * 1e3, row["batched_s"] * 1e3,
            row["speedup"], row["steps_per_s"],
        )
    return table


__all__ = [
    "SPEEDUP_FLOOR",
    "SPEEDUP_TARGET",
    "WORKLOADS",
    "format_rollout_table",
    "run_rollout_bench",
]
