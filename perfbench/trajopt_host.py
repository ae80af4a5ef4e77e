"""The ``trajopt-batch`` workload, hosted in its own process.

    python3 perfbench/trajopt_host.py --seed N --seconds S --report FILE \\
        [--trace] [--setup-only]

An in-process ``DynamicsService()`` with its shipped defaults serves a
closed loop that alternates iiwa and hyq.  Each iteration submits
``ROLLOUTS`` semi-implicit rollouts of ``HORIZON`` knots plus ``KNOTS``
dFD requests, then waits for all of them.  One op is a round: one iiwa
iteration followed by one hyq iteration, so every op has the same mix.

The host prints ``READY`` once the first request of every (robot,
function) pair has been answered — the driver times set-up up to that
line — then measures for S seconds after a ``WARMUP_S`` warm-up, checks a
sample of outputs against the ``loop`` engine, and writes FILE.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
from time import perf_counter

import numpy as np

from calibrate import SpeedMeter, scale_ops
from common import (
    SLO_MS,
    TRAJOPT,
    WARMUP_S,
    Outcomes,
    peak_rss_mb,
    write_report,
)

ROBOTS = ("iiwa", "hyq")
ROLLOUTS = 32
HORIZON = 32
KNOTS = 64
DT = 1e-3
#: Seconds a submitted request may stay unanswered before it counts as
#: a timeout.
WAIT_TIMEOUT_S = 60.0
#: Sampled per iteration for the oracle (one rollout, two knots), capped.
ORACLE_ROLLOUTS = 16
ORACLE_KNOTS = 32


def make_iteration(rng, nv: int) -> dict:
    return {
        "q0": rng.uniform(-1.0, 1.0, (ROLLOUTS, nv)),
        "qd0": rng.uniform(-1.0, 1.0, (ROLLOUTS, nv)),
        "controls": rng.normal(0.0, 1.0, (ROLLOUTS, HORIZON, nv)),
        "q": rng.uniform(-1.0, 1.0, (KNOTS, nv)),
        "qd": rng.uniform(-1.0, 1.0, (KNOTS, nv)),
        "tau": rng.normal(0.0, 1.0, (KNOTS, nv)),
    }


def submit_iteration(service, robot: str, it: dict,
                     rollouts: int = ROLLOUTS, knots: int = KNOTS) -> list:
    """Submit one iteration, rollouts first; returns one ``[future,
    t_submit, t_done]`` record per request (``t_done`` is filled in by
    the future's done-callback)."""
    from repro.dynamics.functions import RBDFunction

    records = []

    def track(future, t_submit):
        rec = [future, t_submit, None]
        future.add_done_callback(
            lambda _f: rec.__setitem__(2, perf_counter()))
        records.append(rec)

    for k in range(rollouts):
        t = perf_counter()
        track(service.submit_rollout(
            robot, it["q0"][k], it["qd0"][k], it["controls"][k], DT), t)
    for k in range(knots):
        t = perf_counter()
        track(service.submit(
            robot, RBDFunction.DFD, it["q"][k], it["qd"][k],
            it["tau"][k]), t)
    return records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    probe = None
    if args.trace:
        from probes import Probe

        probe = Probe().install()

    from repro.model.library import load_robot
    from repro.serve import DynamicsService

    rng = np.random.default_rng(args.seed)
    nvs = {robot: load_robot(robot).nv for robot in ROBOTS}
    service = DynamicsService()
    try:
        for robot in ROBOTS:
            first = submit_iteration(service, robot,
                                     make_iteration(rng, nvs[robot]),
                                     rollouts=1, knots=1)
            concurrent.futures.wait([rec[0] for rec in first])
        print("READY", flush=True)
        if args.setup_only:
            return 0
        report = run(service, rng, nvs, args, probe)
    finally:
        service.close()
    report["peak_rss_mb"] = peak_rss_mb()
    write_report(args.report, report)
    return 0


def run(service, rng, nvs: dict, args, probe) -> dict:
    outcomes = Outcomes()
    ops_ms, ops_t, keys = [], [], []
    rows_ok = 0
    ok_ms, ok_t = [], []
    samples_r, samples_k = [], []
    meter = SpeedMeter()
    t_measure = perf_counter() + WARMUP_S
    t_end = t_measure + args.seconds
    measuring = False
    t_first = t_last = 0.0
    while perf_counter() < t_end:
        if not measuring and perf_counter() >= t_measure:
            measuring = True
            if probe is not None:
                probe.reset()
            t_first = perf_counter()
        round_ms = 0.0
        for robot in ROBOTS:
            it = make_iteration(rng, nvs[robot])
            t0 = perf_counter()
            pending = submit_iteration(service, robot, it)
            concurrent.futures.wait([rec[0] for rec in pending],
                                    timeout=WAIT_TIMEOUT_S)
            round_ms += (perf_counter() - t0) * 1e3
            if not measuring:
                continue
            for k, (future, t_sub, t_done) in enumerate(pending):
                rollout = k < ROLLOUTS
                if not future.done():
                    future.cancel()
                    outcomes.add("timeout")
                    continue
                exc = future.exception()
                if exc is not None:
                    outcomes.add_error(type(exc).__name__)
                    continue
                outcomes.add("ok")
                rows_ok += HORIZON if rollout else 1
                ok_ms.append((t_done - t_sub) * 1e3)
                ok_t.append(t_done)
            if probe is not None:
                keys.extend(_keys(it))
            # Keep copies of the sampled inputs and outputs only: served
            # values are views into whole batch slabs, and holding them
            # would grow the peak RSS this workload reports.
            r = int(rng.integers(ROLLOUTS))
            samples_r.append((robot, it["q0"][r].copy(),
                              it["qd0"][r].copy(), it["controls"][r].copy(),
                              _served(pending[r][0])))
            for k in rng.choice(KNOTS, size=2, replace=False):
                samples_k.append((robot, it["q"][k].copy(),
                                  it["qd"][k].copy(), it["tau"][k].copy(),
                                  _served(pending[ROLLOUTS + int(k)][0])))
        if measuring:
            t_last = perf_counter()
            ops_ms.append(round_ms)
            ops_t.append(t_last)
            # Every request of the round is answered: the service idles.
            meter.sample(2)
    trace = None
    if probe is not None:
        from probes import resolve_ms_p50

        trace = probe.report()
        trace["resolve_ms_p50"] = resolve_ms_p50(trace.pop("per_key"), keys)
        probe.uninstall()
    checked = _check(samples_r, samples_k, rng, outcomes)
    # The limit applies to latency on the reference host, like op_*_ms.
    latency = scale_ops(ok_ms, ok_t, meter.samples)
    slo_ok = int(np.sum(latency <= SLO_MS[TRAJOPT]))
    return {
        "ops_ms": ops_ms,
        "ops_t": ops_t,
        "slo_ok": slo_ok,
        "outcomes": outcomes.as_dict(),
        "rows_ok": rows_ok,
        "seconds": t_last - t_first,
        "ref_ms": meter.samples,
        "oracle_checked": checked,
        "trace": trace,
    }


def _served(future):
    """A private copy of an ok future's value, or None."""
    if not future.done() or future.exception() is not None:
        return None
    return copy.deepcopy(future.result().value)


def _keys(it: dict) -> list[str]:
    from common import row_key

    return ([row_key("rollout", row) for row in it["q0"]]
            + [row_key("dFD", row) for row in it["q"]])


def _check(samples_r, samples_k, rng, outcomes: Outcomes) -> int:
    """Compare sampled ok outputs with the loop engine; a mismatch moves
    the request from ok to wrong.  Returns how many were checked."""
    import oracle

    samples_r = [s for s in samples_r if s[-1] is not None]
    samples_k = [s for s in samples_k if s[-1] is not None]
    picks_r = rng.permutation(len(samples_r))[:ORACLE_ROLLOUTS]
    picks_k = rng.permutation(len(samples_k))[:ORACLE_KNOTS]
    for i in picks_r:
        robot, q0, qd0, controls, traj = samples_r[i]
        if not oracle.rollout_matches(robot, q0, qd0, controls, DT,
                                      traj.qs, traj.qds):
            outcomes.mark_wrong()
    for i in picks_k:
        robot, q, qd, tau, value = samples_k[i]
        ref = oracle.reference(robot, "dFD", q, qd, tau)
        if not oracle.matches(value, ref):
            outcomes.mark_wrong()
    return len(picks_r) + len(picks_k)


if __name__ == "__main__":
    raise SystemExit(main())
