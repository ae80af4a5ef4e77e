"""Packed-column plan sweeps and ragged cross-robot batching.

Two measurements on top of the ragged-batching work:

1. **Packed compiled sweeps vs the loop reference** — every
   :class:`repro.dynamics.plan.ExecutionPlan` runs its mass-matrix and
   derivative kernels on packed ``(n, L, 6, |cols|)`` column slabs (each
   level's path/subtree DOF-column union as one contiguous window), the
   only layout the compiled engine has.  This times the ``compiled``
   engine against the per-task ``loop`` reference for Minv and dFD at
   the largest batch, serial (iiwa) and branched (hyq, atlas) trees.

2. **Coalesced vs fragmented mixed-robot serving** — a heterogeneous
   fleet (one queue per (robot, function)) fragments into per-robot
   batches unless ``BatchPolicy.coalesce`` folds compatible queues into
   one ragged batch per flush (:class:`repro.dynamics.RaggedBatch`).
   This drives an identical interleaved multi-robot load through both
   policies and records throughput, merged-flush stats, and a
   per-request result-identity check (coalescing must not change any
   answer, bit for bit).

Acceptance anchors: compiled dFD over loop at the largest batch >= 29x
on atlas and >= 50x on iiwa (CI smoke floors; repeated runs on a 2-core
host, numpy 2.4.6, measured atlas 32-44x, iiwa 57-93x), and the
coalesced serve run must actually merge queues (``flushed_merged >= 1``)
while returning bitwise-identical results.

Runs under pytest (with the usual summary table) or directly for CI
smoke::

    PYTHONPATH=src python benchmarks/bench_ragged.py --quick
"""

import sys
import time

import numpy as np

from repro.dynamics import BatchStates
from repro.dynamics.engine import get_engine
from repro.dynamics.functions import RBDFunction
from repro.model.library import load_robot
from repro.serve import BatchPolicy, DynamicsService

#: Packed-sweep sweep set: serial control + branched + high-DOF stressor.
ROBOTS = ("iiwa", "hyq", "atlas")
BATCH = 256
FUNCTIONS = (RBDFunction.MINV, RBDFunction.DFD)
#: CI smoke floors for compiled-vs-loop dFD, per gated robot.
DFD_FLOORS = {"atlas": 29.0, "iiwa": 50.0}
#: Compiled samples per loop sample in one timing rep.
COMPILED_SAMPLES = 5
#: Mixed-robot serve load: requests per robot, interleaved round-robin.
SERVE_ROBOTS = ("iiwa", "hyq", "quadruped_arm")
SERVE_REQUESTS_PER_ROBOT = 24


def _time_engine_pair(model, function, batch, reps=3):
    """Best-of wall seconds for (loop, compiled) calls.

    The two engines' reps interleave so drift on a noisy shared host
    hits both sides alike; only the within-run ratio is trusted.  A
    compiled call is 30-90x shorter than a loop call, so each rep takes
    ``COMPILED_SAMPLES`` compiled samples to one loop sample.
    """
    engines = (get_engine("loop"), get_engine("compiled"))
    states = BatchStates.random(model, batch, seed=0)
    q, qd = states.q, states.qd
    tau = np.random.default_rng(1).normal(size=(batch, model.nv))
    if function is RBDFunction.MINV:
        calls = [(e.minv_batch, (model, q)) for e in engines]
    elif function is RBDFunction.DFD:
        calls = [(e.dfd_batch, (model, q, qd, tau)) for e in engines]
    else:
        raise ValueError(f"unsupported function {function}")
    for fn, args in calls:
        fn(*args)                                   # warm-up both engines
    best = [float("inf"), float("inf")]
    for _ in range(reps):
        for side, (fn, args) in enumerate(calls):
            for _ in range(COMPILED_SAMPLES if side else 1):
                t0 = time.perf_counter()
                fn(*args)
                best[side] = min(best[side], time.perf_counter() - t0)
    return best[0], best[1]


def run_packed_bench(robots=ROBOTS, batch=BATCH,
                     functions=FUNCTIONS, reps=3) -> list[dict]:
    """Rows of {robot, function, batch, loop_s, compiled_s, speedup}
    (speedup = loop / compiled)."""
    rows = []
    for robot in robots:
        model = load_robot(robot)
        for function in functions:
            loop_s, comp_s = _time_engine_pair(model, function, batch, reps)
            rows.append({
                "robot": robot,
                "function": function,
                "batch": batch,
                "loop_s": loop_s,
                "compiled_s": comp_s,
                "speedup": loop_s / comp_s,
            })
    return rows


def _run_serve_mode(coalesce: bool, requests_per_robot: int,
                    robots=SERVE_ROBOTS) -> tuple[dict, list]:
    """One mixed-robot FD load through the service; returns (stats row,
    per-request result values in submission order)."""
    rng = np.random.default_rng(7)
    inputs = []
    for k in range(requests_per_robot):
        for robot in robots:
            nv = load_robot(robot).nv
            inputs.append((robot, rng.standard_normal(nv),
                           rng.standard_normal(nv), rng.standard_normal(nv)))
    policy = BatchPolicy(max_batch=64, max_wait_s=2e-3, coalesce=coalesce)
    service = DynamicsService(policy=policy, n_shards=1,
                              warm_robots=list(robots))
    t0 = time.perf_counter()
    futures = [service.submit(robot, RBDFunction.FD, q, qd, u)
               for robot, q, qd, u in inputs]
    values = [np.asarray(f.result(timeout=60).value) for f in futures]
    wall_s = time.perf_counter() - t0
    stats = service.stats()
    service.close()
    n = len(inputs)
    return {
        "mode": "coalesced" if coalesce else "fragmented",
        "requests": n,
        "wall_s": wall_s,
        "throughput_rps": n / wall_s,
        "batches": sum(stats["engine_batches"].values()),
        "mean_batch_occupancy": stats["mean_batch_occupancy"],
        "flushed_merged": stats["flushed_merged"],
        "queues_per_flush": stats["queues_per_flush"],
        "ragged_batches": stats["ragged_batches"],
        "ragged_segments": stats["ragged_segments"],
    }, values


def run_serve_bench(requests_per_robot=SERVE_REQUESTS_PER_ROBOT):
    """Coalesced vs fragmented rows + the result-identity verdict."""
    fragmented, frag_values = _run_serve_mode(False, requests_per_robot)
    coalesced, coal_values = _run_serve_mode(True, requests_per_robot)
    identical = all(
        np.array_equal(a, b) for a, b in zip(frag_values, coal_values)
    )
    return [fragmented, coalesced], identical


def _packed_table(rows):
    from repro.reporting import Table

    table = Table(
        "ragged: packed compiled sweeps vs loop "
        "(speedup = loop/compiled)",
        ["robot", "function", "batch", "loop (ms)", "compiled (ms)",
         "speedup"],
    )
    for row in rows:
        table.add_row(row["robot"], row["function"].value, row["batch"],
                      row["loop_s"] * 1e3, row["compiled_s"] * 1e3,
                      row["speedup"])
    return table


def _serve_table(rows):
    from repro.reporting import Table

    table = Table(
        "ragged: mixed-robot serve, coalesced vs fragmented",
        ["mode", "requests", "batches", "occupancy", "merged",
         "queues/flush", "throughput (r/s)"],
    )
    for row in rows:
        table.add_row(row["mode"], row["requests"], row["batches"],
                      row["mean_batch_occupancy"], row["flushed_merged"],
                      row["queues_per_flush"], row["throughput_rps"])
    return table


def _gated_dfd_speedups(rows) -> dict:
    """Compiled-vs-loop dFD speedup per gated robot."""
    return {
        row["robot"]: row["speedup"] for row in rows
        if row["robot"] in DFD_FLOORS
        and row["function"] is RBDFunction.DFD
    }


def _speedup_line(speedups: dict) -> str:
    cells = ", ".join(f"{robot} {x:.1f}x (floor {DFD_FLOORS[robot]:.0f}x)"
                      for robot, x in speedups.items())
    return f"compiled vs loop dFD at {BATCH}: {cells}"


def test_packed_sweep_speedup(once):
    """Compiled/loop dFD >= its floor on atlas and iiwa; serve
    coalescing merges losslessly."""
    from conftest import record_table

    def _run():
        rows = run_packed_bench()
        record_table(_packed_table(rows))
        speedups = _gated_dfd_speedups(rows)
        record_table(f"== packed-column sweeps ==\n{_speedup_line(speedups)}")
        assert set(speedups) == set(DFD_FLOORS), speedups
        assert all(x >= DFD_FLOORS[r] for r, x in speedups.items()), speedups
        serve_rows, identical = run_serve_bench(requests_per_robot=8)
        record_table(_serve_table(serve_rows))
        coalesced = serve_rows[1]
        assert coalesced["flushed_merged"] >= 1, coalesced
        assert coalesced["ragged_batches"] >= 1, coalesced
        assert identical, "coalesced results diverged from fragmented"

    once(_run)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    reps = 2 if quick else 3
    requests_per_robot = 8 if quick else SERVE_REQUESTS_PER_ROBOT
    rows = run_packed_bench(reps=reps)
    print(f"bench_ragged: {'quick' if quick else 'full'} mode")
    print(_packed_table(rows).render())
    speedups = _gated_dfd_speedups(rows)
    print(f"\n{_speedup_line(speedups)}")
    serve_rows, identical = run_serve_bench(requests_per_robot)
    print()
    print(_serve_table(serve_rows).render())
    print(f"\ncoalesced results identical to fragmented: {identical}")
    if "--json" in argv:
        from jsonout import write_bench_json

        json_rows = [
            {**row, "engine": "compiled", "backend": "numpy"}
            for row in rows
        ] + serve_rows
        path = write_bench_json(
            "ragged", json_rows,
            {"dfd_speedup_vs_loop": speedups,
             "floors": DFD_FLOORS,
             "serve_results_identical": identical,
             "coalesced_merged_flushes": serve_rows[1]["flushed_merged"],
             "coalesced_queues_per_flush":
                 serve_rows[1]["queues_per_flush"]},
        )
        print(f"wrote {path}")
    slow = {r: x for r, x in speedups.items() if x < DFD_FLOORS[r]}
    if slow:
        print(f"FAIL: compiled/loop dFD below floor on {sorted(slow)}",
              file=sys.stderr)
        return 1
    if not identical:
        print("FAIL: coalesced serve results diverged", file=sys.stderr)
        return 1
    if serve_rows[1]["flushed_merged"] < 1:
        print("FAIL: coalescing mode never merged a flush", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
