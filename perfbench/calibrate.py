"""Host-speed calibration: op times in reference-host milliseconds.

A shared host's speed drifts by a quarter or more within minutes, and
it switches between fast and slow stretches of a second or so (other
tenants on the same cores and caches); every time this benchmark
measures drifts with it.  So the process that times the ops also times
a fixed reference kernel — small numpy array ops and interpreter work,
the mix the program's kernels run, with no :mod:`repro` code in it —
at points where the program under test is idle.  Each op's time is
then scaled by ``NOMINAL_REF_MS`` over the median reference time within
``WINDOW_S`` of the op: what the op would have taken on the reference
host.  An open-loop request's latency also holds the batcher's flush
timer, which no host speeds up: that part is left as it is.  Set-up
times are scaled by samples taken just before each launch.  The
measured figures and the run's speed factor are printed beside the
metrics.

Program changes do not move the reference: it imports nothing from the
program and never runs while the program does.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Median ``reference_ms()`` on the reference host (the 2-core x86-64
#: VM the benchmark was defined on, Python 3.11, numpy 2.4.6, one BLAS
#: thread) in a quiet stretch.
NOMINAL_REF_MS = 1.25
#: Least seconds between two samples of a :class:`SpeedMeter`.
MIN_INTERVAL_S = 0.05
#: An op is scaled by the reference samples taken within this many
#: seconds of its end (the nearest one if there are none).
WINDOW_S = 1.0

_RNG = np.random.default_rng(20240611)
_X = _RNG.normal(size=(16, 6, 6))
_V = _RNG.normal(size=(16, 6))
_IDX = _RNG.permutation(16)


def reference_ms() -> float:
    """Run the reference kernel once; returns its wall time in ms."""
    t0 = perf_counter()
    acc = 0.0
    for k in range(100):
        y = np.matmul(_X, _V[..., None])[..., 0]
        z = _X[_IDX] @ _X
        w = np.where(y > 0.0, y, -y) + z[:, 0, :]
        acc += float(w.sum())
        for j in range(12):
            acc += j * 0.5 - k
    t = (perf_counter() - t0) * 1e3
    if acc != acc:          # keeps the work from being optimized away
        raise RuntimeError("reference kernel produced NaN")
    return t


class SpeedMeter:
    """``(time, reference ms)`` samples taken while the program under
    test is idle."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")

    def due(self) -> bool:
        return perf_counter() - self._last >= MIN_INTERVAL_S

    def sample(self, repeats: int = 1) -> None:
        reference_ms()      # untimed: brings the kernel back into cache
        for _ in range(repeats):
            ms = reference_ms()
            self.samples.append((perf_counter(), ms))
        self._last = perf_counter()


def scale_ops(ops_ms, t_ops, samples, fixed_ms: float = 0.0) -> np.ndarray:
    """Each op's time in reference-host ms: ``ops_ms[i]`` (ending at
    ``t_ops[i]``), less ``fixed_ms`` that no host speeds up (a timer),
    times ``NOMINAL_REF_MS`` over the median of the samples within
    ``WINDOW_S`` of it, plus ``fixed_ms`` again."""
    if not len(samples):
        raise RuntimeError("no host-speed reference samples were taken")
    ts, refs = np.asarray(samples, dtype=float).T
    order = np.argsort(ts)
    ts, refs = ts[order], refs[order]
    t_ops = np.asarray(t_ops, dtype=float)
    lo = np.searchsorted(ts, t_ops - WINDOW_S, side="left")
    hi = np.searchsorted(ts, t_ops + WINDOW_S, side="right")
    local = np.array([
        np.median(refs[a:b]) if b > a else refs[np.abs(ts - t).argmin()]
        for a, b, t in zip(lo, hi, t_ops)
    ])
    ops = np.asarray(ops_ms, dtype=float) - fixed_ms
    return fixed_ms + ops * NOMINAL_REF_MS / local


def run_factor(samples) -> float:
    """``NOMINAL_REF_MS`` over the median of all samples: above 1 on a
    host faster than the reference host."""
    return NOMINAL_REF_MS / float(np.median([ms for _, ms in samples]))
