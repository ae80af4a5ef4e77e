"""Structure-compiled engine vs the per-task loop reference.

The compiled engine replays a per-robot execution plan
(:mod:`repro.dynamics.plan`): recursions scheduled by tree *depth level*
(independent branches fused into one array op per level), transforms
refreshed in one op per joint kind, and preallocated per-thread
workspaces.  Its advantage grows with branching — a serial chain has one
link per level, a quadruped advances four legs per step — which is
exactly the structure argument the paper's SAPS make in silicon.

This bench times ``"compiled"`` (the default engine) against the
``"loop"`` reference on a serial robot (iiwa) and three branched robots
(hyq, quadruped_arm, atlas) across the batch sizes the serve runtime
produces.

Acceptance anchors (speedup = loop / compiled): every branched FD cell
swept holds its batch's floor (the CI smoke covers batch 64), the best
branched FD cell at batch 256 reaches the target, and per-robot dFD
floors hold at batch 256.  Each floor sits ~25% under the lowest ratio
measured over repeated runs on a 2-core host (numpy 2.4.6), so host
noise does not trip it but a real kernel regression does.

Runs under pytest (with the usual summary table) or directly for CI
smoke::

    PYTHONPATH=src python benchmarks/bench_plan.py --quick
"""

import sys
import time

import numpy as np

from repro.dynamics import BatchStates, batch_evaluate
from repro.dynamics.functions import RBDFunction
from repro.dynamics.plan import plan_for
from repro.model.library import load_robot

#: (robot, is_branched) — one serial chain, three branched topologies
#: (atlas is the high-DOF stressor the packed sweeps target).
ROBOTS = (("iiwa", False), ("hyq", True), ("quadruped_arm", True),
          ("atlas", True))
BATCHES = (1, 64, 256)
FUNCTIONS = (RBDFunction.FD, RBDFunction.DFD)
#: Per-batch compiled/loop floors on every branched FD cell (measured
#: 3.9-11.8x at batch 1, where per-call overhead dominates, and 57-136x
#: at batch 64 and 256).
FD_FLOORS = {1: 2.5, 64: 50.0, 256: 50.0}
#: Acceptance target for the best branched FD cell at the accelerator's
#: native batch size (measured 108-133x).
BRANCHED_FD_TARGET = 80.0
#: Per-robot compiled/loop dFD floors at batch 256 (measured hyq 48-74x,
#: quadruped_arm 40-52x, atlas 33-45x).
DFD_FLOORS = {"hyq": 52.0, "quadruped_arm": 30.0, "atlas": 25.0}


def _time_engine(model, function, states, u, engine, reps) -> float:
    """Best-of-``reps`` wall seconds for one batched call."""
    batch_evaluate(model, function, states, u, engine=engine)   # warm-up
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        batch_evaluate(model, function, states, u, engine=engine)
        best = min(best, time.perf_counter() - t0)
    return best


def run_plan_bench(robots=ROBOTS, batches=BATCHES,
                   functions=FUNCTIONS) -> list[dict]:
    """Rows of {robot, function, batch, loop_s, compiled_s, speedup}
    (speedup = loop / compiled)."""
    rows = []
    for robot, branched in robots:
        model = load_robot(robot)
        for batch in batches:
            states = BatchStates.random(model, batch, seed=0)
            u = np.random.default_rng(1).normal(size=(batch, model.nv))
            for function in functions:
                row = {
                    "robot": robot,
                    "branched": branched,
                    "function": function,
                    "batch": batch,
                }
                # One timed loop call past batch 1: it runs for seconds
                # there, so host noise is small next to it.
                row["loop_s"] = _time_engine(
                    model, function, states, u, "loop",
                    reps=3 if batch == 1 else 1,
                )
                row["compiled_s"] = _time_engine(
                    model, function, states, u, "compiled", reps=5
                )
                row["speedup"] = row["loop_s"] / row["compiled_s"]
                rows.append(row)
    return rows


def _plan_table(rows):
    from repro.reporting import Table

    table = Table(
        "plan: compiled vs loop (speedup = loop / compiled)",
        ["robot", "function", "batch", "loop (ms)", "compiled (ms)",
         "speedup"],
    )
    for row in rows:
        table.add_row(
            row["robot"], row["function"].value, row["batch"],
            row["loop_s"] * 1e3, row["compiled_s"] * 1e3, row["speedup"],
        )
    return table


def _schedule_lines() -> str:
    lines = ["== compiled level schedules =="]
    for robot, _ in ROBOTS:
        info = plan_for(load_robot(robot)).describe()
        lines.append(
            f"{robot}: {info['links']} links -> {info['levels']} levels, "
            f"widths {info['level_widths']} ({info['branches']} branches)"
        )
    return "\n".join(lines)


def _branched_speedups(rows, batch, function):
    return {
        row["robot"]: row["speedup"]
        for row in rows
        if row["branched"] and row["batch"] == batch
        and row["function"] is function
    }


def _fd_regressions(rows) -> list[str]:
    """Branched FD cells under their batch's floor, formatted for the
    report."""
    return [
        f"{row['robot']}@{row['batch']}: FD {row['speedup']:.1f}x < floor "
        f"{FD_FLOORS[row['batch']]:.1f}x"
        for row in rows
        if row["branched"] and row["function"] is RBDFunction.FD
        and row["speedup"] < FD_FLOORS[row["batch"]]
    ]


def _dfd_regressions(rows) -> list[str]:
    """Per-robot dFD-at-256 floor violations, formatted for the report."""
    dfd256 = _branched_speedups(rows, 256, RBDFunction.DFD)
    return [
        f"{robot}: dFD {dfd256[robot]:.1f}x < floor {floor:.0f}x"
        for robot, floor in DFD_FLOORS.items()
        if robot in dfd256 and dfd256[robot] < floor
    ]


def test_compiled_engine_speedup(once):
    """Compiled/loop holds each batch's floor on branched FD, reaches the
    target on the best branched FD cell at 256, and per-robot dFD floors
    hold."""
    from conftest import record_table

    def _run():
        rows = run_plan_bench()
        record_table(_plan_table(rows))
        record_table(_schedule_lines())
        fd256 = _branched_speedups(rows, 256, RBDFunction.FD)
        dfd256 = _branched_speedups(rows, 256, RBDFunction.DFD)
        record_table(
            "== compiled-engine speedup (branched, batch 256) ==\n"
            + "\n".join(
                f"{robot}: FD {s:.1f}x (floor {FD_FLOORS[256]:.0f}x), dFD "
                f"{dfd256.get(robot, float('nan')):.1f}x (floor "
                f"{DFD_FLOORS.get(robot, 0.0):.0f}x)"
                for robot, s in fd256.items()
            )
        )
        assert not _fd_regressions(rows), _fd_regressions(rows)
        assert max(fd256.values()) >= BRANCHED_FD_TARGET
        assert not _dfd_regressions(rows), _dfd_regressions(rows)

    once(_run)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    robots = (("iiwa", False), ("quadruped_arm", True)) if quick else ROBOTS
    batches = (64,) if quick else BATCHES
    functions = (RBDFunction.FD,) if quick else FUNCTIONS
    rows = run_plan_bench(robots, batches, functions)
    print(f"bench_plan: {'quick' if quick else 'full'} mode")
    print(_plan_table(rows).render())
    print()
    print(_schedule_lines())
    fd_regressions = _fd_regressions(rows)
    for line in fd_regressions:
        print(f"FD regression: {line}", file=sys.stderr)
    worst = {
        batch: min(_branched_speedups(rows, batch, RBDFunction.FD).values())
        for batch in batches
    }
    print("\ncompiled vs loop on branched FD: worst " + ", ".join(
        f"{s:.1f}x at batch {batch} (floor {FD_FLOORS[batch]:.1f}x)"
        for batch, s in worst.items()
    ))
    # Per-robot dFD floors only apply when the sweep covered dFD at 256
    # (full mode); quick mode has no dFD rows to assert on.
    dfd_regressions = _dfd_regressions(rows)
    for line in dfd_regressions:
        print(f"dFD regression: {line}", file=sys.stderr)
    if "--json" in argv:
        from jsonout import write_bench_json

        from repro import obs

        # One extra profiled pass per (robot, function) at the largest
        # batch — after the timing loops, which ran with hooks disabled —
        # so the JSON carries the per-kernel breakdown alongside the
        # end-to-end numbers.
        profiler = obs.KernelProfiler(per_level=True)
        tracer = obs.Tracer()
        with obs.profiled(profiler=profiler, tracer=tracer):
            for robot, _ in robots:
                model = load_robot(robot)
                batch = max(batches)
                states = BatchStates.random(model, batch, seed=0)
                u = np.random.default_rng(1).normal(size=(batch, model.nv))
                for function in functions:
                    batch_evaluate(model, function, states, u,
                                   engine="compiled")
        json_rows = [
            {**row, "engine": "compiled", "backend": "numpy"}
            for row in rows
        ]
        path = write_bench_json(
            "plan", json_rows,
            {"worst_branched_fd_speedup": worst, "fd_floors": FD_FLOORS,
             "target": BRANCHED_FD_TARGET,
             "dfd_floors": DFD_FLOORS,
             "dfd_speedups_256": {
                 robot: s for robot, s in
                 _branched_speedups(rows, 256, RBDFunction.DFD).items()
             },
             "kernel_breakdown": profiler.snapshot(),
             "trace_summary": tracer.summary()},
        )
        print(f"wrote {path}")
    if fd_regressions:
        print("FAIL: branched FD cell below its batch floor",
              file=sys.stderr)
        return 1
    if dfd_regressions:
        print("FAIL: per-robot dFD floor violated", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
