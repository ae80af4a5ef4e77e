"""Host-side speedup of the compiled batch engine over the loop engine.

The paper's accelerator consumes 256-task batches (Section VI-A); the
serve runtime forms them, and the execution engine decides how fast the
host evaluates them.  This bench times the structure-compiled
``"compiled"`` engine (the default everywhere: level-scheduled plan
sweeps, one array op per depth level across the whole batch) against the
per-task ``"loop"`` reference on the iiwa FD and dFD workloads.

Acceptance anchor: the compiled engine must be >= 5x faster than the
loop engine on iiwa FD and dFD at batch 256.

Runs under pytest (with the usual summary table) or directly for CI
smoke::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick
"""

import sys
import time

import numpy as np

from repro.dynamics import BatchStates, batch_evaluate
from repro.dynamics.functions import RBDFunction
from repro.model.library import load_robot

ROBOT = "iiwa"
BATCH = 256
FUNCTIONS = (RBDFunction.FD, RBDFunction.DFD)
SPEEDUP_FLOOR = 5.0


def _time_engine(model, function, states, u, engine, reps) -> float:
    """Best-of-``reps`` wall seconds for one batched call."""
    batch_evaluate(model, function, states, u, engine=engine)   # warm-up
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        batch_evaluate(model, function, states, u, engine=engine)
        best = min(best, time.perf_counter() - t0)
    return best


def run_engine_bench(batch: int = BATCH,
                     functions=FUNCTIONS) -> dict[RBDFunction, dict]:
    """Per-function timings: {function: {loop_s, compiled_s, speedup}}."""
    model = load_robot(ROBOT)
    states = BatchStates.random(model, batch, seed=0)
    u = np.random.default_rng(1).normal(size=(batch, model.nv))
    out = {}
    for function in functions:
        loop_s = _time_engine(model, function, states, u, "loop", reps=2)
        comp_s = _time_engine(model, function, states, u, "compiled", reps=5)
        out[function] = {
            "loop_s": loop_s,
            "compiled_s": comp_s,
            "speedup": loop_s / comp_s,
        }
    return out


def _engine_table(stats: dict[RBDFunction, dict], batch: int):
    from repro.reporting import Table

    table = Table(
        f"engine: {ROBOT} loop vs compiled (batch {batch})",
        ["function", "loop (ms)", "compiled (ms)", "speedup"],
    )
    for function, s in stats.items():
        table.add_row(function.value, s["loop_s"] * 1e3,
                      s["compiled_s"] * 1e3, s["speedup"])
    return table


def test_compiled_engine_speedup(once):
    """Compiled engine >= 5x loop engine on iiwa FD and dFD at batch 256."""
    from conftest import record_table

    def _run():
        stats = run_engine_bench()
        record_table(_engine_table(stats, BATCH))
        fd = stats[RBDFunction.FD]["speedup"]
        dfd = stats[RBDFunction.DFD]["speedup"]
        record_table(
            f"== compiled-engine speedup ({ROBOT}, batch {BATCH}) ==\n"
            f"FD:  {fd:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)\n"
            f"dFD: {dfd:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)"
        )
        assert fd >= SPEEDUP_FLOOR
        assert dfd >= SPEEDUP_FLOOR

    once(_run)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    batch = 64 if quick else BATCH
    stats = run_engine_bench(batch)
    print(f"bench_engine: {ROBOT}, batch {batch}")
    print(_engine_table(stats, batch).render())
    fd_speedup = stats[RBDFunction.FD]["speedup"]
    dfd_speedup = stats[RBDFunction.DFD]["speedup"]
    print(f"\ncompiled vs loop: FD {fd_speedup:.1f}x, dFD "
          f"{dfd_speedup:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)")
    if "--json" in argv:
        from jsonout import write_bench_json

        rows = [
            {"robot": ROBOT, "function": function, "batch": batch,
             "engine": "compiled", "backend": "numpy", **s}
            for function, s in stats.items()
        ]
        path = write_bench_json(
            "engine", rows,
            {"fd_speedup": fd_speedup, "dfd_speedup": dfd_speedup,
             "floor": SPEEDUP_FLOOR},
        )
        print(f"wrote {path}")
    if min(fd_speedup, dfd_speedup) < SPEEDUP_FLOOR:
        print("FAIL: speedup below floor", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
