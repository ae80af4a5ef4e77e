"""Helpers shared by the benchmark driver and the processes it launches.

Nothing here imports numpy or :mod:`repro` at module level, so the
driver can pin the BLAS/OpenMP thread environment before either loads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for the report files the launched processes write; it
#: lives inside the checkout and is removed when a run ends.
RUN_DIR = HERE / "_run"

#: Thread-count variables of the BLAS/OpenMP runtimes numpy may load.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)

#: Seconds of load before the measured interval (caches and per-thread
#: workspaces fill; not counted anywhere).
WARMUP_S = 2.0
TRAJOPT = "trajopt-batch"
#: Per-request latency limits for ``slo_share``, per workload.
SLO_MS = {"mpc-socket": 25.0, "fleet-poisson": 25.0, TRAJOPT: 1000.0}
#: The functions an MPC tick sends (on iiwa), and the per-function
#: metrics.
MPC_ROBOT = "iiwa"
FUNCTIONS = ("FD", "Minv", "dFD")
FLEET_ROBOTS = ("iiwa", "hyq", "atlas")
#: Function deck per robot: FD 50 %, Minv 25 %, dFD 25 %.
FLEET_MIX = (("FD", 2), ("Minv", 1), ("dFD", 1))
#: A little under half the saturation rate of the fleet mix against a
#: default ``python -m repro serve`` on a 2-core host (the backlog grew
#: without bound at 240 req/s and held, at p99 ~300 ms, at 180 req/s).
#: Under half, so host noise on a shared machine does not push the
#: server into the queueing knee: at 100 req/s the run-to-run spread of
#: op_p50_ms was 21 %, at 70 req/s 7 %.
FLEET_RATE = 70.0
FLEET_CONNECTIONS = 2

#: Tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Server-side exception names that mean "turned away", not "broke".
REFUSED_ERRORS = frozenset({
    "RateLimitedError", "ClientOverloaded", "ServiceOverloaded",
})
SHED_ERRORS = frozenset({"DeadlineExceededError"})


def pin_threads(env: dict) -> dict:
    """Pin every BLAS/OpenMP runtime in ``env`` to one thread."""
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def child_env() -> dict:
    """Environment for a launched process: pinned threads, the repo's
    ``src`` on the path, unbuffered stdout (its readiness lines)."""
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def have_sources() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def row_key(tag: str, row) -> str:
    """Identity of one request by its function and input state (inputs
    are unique per request and function), so the traced processes can
    follow a request across the socket and through the batcher without
    touching the program."""
    import numpy as np

    h = hashlib.blake2b(tag.encode(), digest_size=8)
    h.update(np.ascontiguousarray(row, dtype=float).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------

def percentile(values, p: float) -> float:
    """numpy's linear-interpolated percentile; 0 for no values."""
    import numpy as np

    return float(np.percentile(values, p)) if len(values) else 0.0


def median(values) -> float:
    return percentile(values, 50.0)


def supported(n: int, p: float) -> bool:
    """At least ten of ``n`` samples lie beyond the ``p``-th percentile."""
    return n - math.ceil(n * p / 100.0) >= 10


def windowed_tail(values, windows: int, p: float) -> tuple[float, float]:
    """``(percentile, value)``: the median over ``windows`` equal
    consecutive windows of each window's ``p``-th percentile.  One
    burst of host noise moves one window, not the reported tail.  If a
    window holds too few samples for ``p``, the percentile steps down
    the ladder until every window supports it."""
    n = len(values)
    chunks = [values[i * n // windows:(i + 1) * n // windows]
              for i in range(windows)]
    smallest = min(len(c) for c in chunks)
    for q in (p,) + tuple(x for x in TAIL_LADDER if x < p):
        if supported(smallest, q):
            return q, median([percentile(c, q) for c in chunks])
    return 50.0, median(values)


# ----------------------------------------------------------------------
# Outcome accounting
# ----------------------------------------------------------------------

class Outcomes:
    """Exactly one terminal outcome per request: ``ok``, ``refused``,
    ``shed``, ``timeout``, ``wrong`` (oracle mismatch) or
    ``error:<ExceptionName>``."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def add(self, outcome: str) -> None:
        self.counts[outcome] += 1

    def add_error(self, name: str) -> None:
        if name in REFUSED_ERRORS:
            self.add("refused")
        elif name in SHED_ERRORS:
            self.add("shed")
        else:
            self.add(f"error:{name}")

    def mark_wrong(self) -> None:
        """Move one already-counted ``ok`` to ``wrong``."""
        self.counts["ok"] -= 1
        self.counts["wrong"] += 1

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def ok(self) -> int:
        return self.counts["ok"]

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    def as_dict(self) -> dict:
        return {k: v for k, v in sorted(self.counts.items()) if v}

    def merge(self, other: dict) -> None:
        self.counts.update(other)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True,
            text=True, timeout=20, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def src_digest() -> str:
    """sha256 over the program's sources (the checkout may not be a git
    repository, so this identifies the code either way)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> dict:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "src_digest": src_digest(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ----------------------------------------------------------------------
# Report files written by launched processes
# ----------------------------------------------------------------------

def write_report(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def read_report(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    import resource

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0 if sys.platform != "darwin" else kib / 2**20
