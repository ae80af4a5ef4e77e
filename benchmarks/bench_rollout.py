"""Batched rollout throughput vs per-task stepping.

The rollout subsystem (:mod:`repro.rollout`) simulates whole ``(n, T)``
trajectory slabs through the batched engines; this bench times it
against the serial per-task stepping loop it replaced, on the two
paper-shaped workloads (free RK4 on the iiwa arm; free and
contact-constrained semi-implicit on HyQ), at horizons 16 and 64.  The
free HyQ workload keeps the batched floating-base manifold update under
the same floor as the kernels.

Acceptance anchor: >= 5x batched-over-per-task at batch 256 on at least
one workload (measured ~40-200x on the dev host); the CI smoke floor is
1x.

Runs under pytest (summary table) or directly for CI smoke::

    PYTHONPATH=src python benchmarks/bench_rollout.py --quick --json
"""

import sys

from repro.rollout.bench import (
    SPEEDUP_FLOOR,
    SPEEDUP_TARGET,
    WORKLOADS,
    format_rollout_table,
    run_rollout_bench,
)

BATCH = 256
HORIZONS = (16, 64)


def _run(batch: int, horizons, baseline_tasks: int) -> list[dict]:
    return [
        run_rollout_bench(workload, batch=batch, horizon=horizon,
                          baseline_tasks=baseline_tasks)
        for workload in WORKLOADS
        for horizon in horizons
    ]


def test_rollout_speedup(once):
    """Batched rollouts >= 1x per-task stepping (target 5x) at batch 256."""
    from conftest import record_table

    def _check():
        rows = _run(BATCH, (16,), baseline_tasks=4)
        record_table(format_rollout_table(rows))
        best = max(row["speedup"] for row in rows)
        record_table(
            f"== rollout speedup (batch {BATCH}) ==\n"
            f"best: {best:.1f}x (target {SPEEDUP_TARGET:.0f}x, "
            f"floor {SPEEDUP_FLOOR:.0f}x)"
        )
        assert best >= SPEEDUP_FLOOR
        for row in rows:
            assert row["speedup"] >= SPEEDUP_FLOOR

    once(_check)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    batch = 32 if quick else BATCH
    horizons = (8,) if quick else HORIZONS
    rows = _run(batch, horizons, baseline_tasks=4 if quick else 8)
    print(f"bench_rollout: batch {batch}, horizons {horizons}")
    print(format_rollout_table(rows).render())
    best = max(row["speedup"] for row in rows)
    floor = SPEEDUP_FLOOR if quick else SPEEDUP_TARGET
    print(f"\nbest batched-rollout speedup: {best:.1f}x "
          f"(target {SPEEDUP_TARGET:.0f}x at batch 256, floor {floor:.0f}x)")
    if "--json" in argv:
        import numpy as np

        from jsonout import write_bench_json

        from repro import obs
        from repro.model.library import load_robot
        from repro.rollout import RolloutEngine

        # One extra profiled slab (after the timing loops, which ran
        # with hooks disabled) so the JSON carries the per-step kernel
        # breakdown alongside the throughput numbers.
        model = load_robot("iiwa")
        rng = np.random.default_rng(0)
        profiler = obs.KernelProfiler()
        tracer = obs.Tracer()
        with obs.profiled(profiler=profiler, tracer=tracer):
            RolloutEngine("semi_implicit", engine="compiled").rollout(
                model,
                rng.normal(size=(batch, model.nv)) * 0.1,
                np.zeros((batch, model.nv)),
                rng.normal(size=(batch, horizons[0], model.nv)) * 0.05,
                dt=1e-3,
            )
        path = write_bench_json(
            "rollout", rows,
            {"best_speedup": best, "target": SPEEDUP_TARGET,
             "floor": floor, "batch": batch,
             "kernel_breakdown": profiler.snapshot(),
             "trace_summary": tracer.summary()},
        )
        print(f"wrote {path}")
    if best < floor:
        print("FAIL: speedup below floor", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
