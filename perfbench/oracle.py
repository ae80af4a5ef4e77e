"""Correctness oracle: served outputs against the ``loop`` engine.

Runs after the timed interval.  A served value matches when every
component agrees with the reference at ``rtol = atol = 1e-10``.
Structured results (``FDDerivatives``/``IDDerivatives``) are compared
field by field, whether they arrive as the dataclass itself (in
process) or as a JSON object or list of their fields (over the wire).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.dynamics import BatchStates, batch_evaluate
from repro.dynamics.functions import RBDFunction
from repro.model.library import load_robot
from repro.rollout import RolloutEngine

TOL = 1e-10


def _close(served, reference) -> bool:
    try:
        served = np.asarray(served, dtype=float)
    except (TypeError, ValueError):
        return False
    return (served.shape == np.shape(reference)
            and bool(np.allclose(served, reference, rtol=TOL, atol=TOL)))


def reference(robot: str, function: str, q, qd=None, u=None):
    """One request evaluated alone on the ``loop`` engine."""
    model = load_robot(robot)
    zero = np.zeros(model.nv)
    qd = zero if qd is None else qd
    u = zero if u is None else u
    return batch_evaluate(
        model, RBDFunction(function), BatchStates(q[None], qd[None]),
        u[None], engine="loop",
    )[0]


def matches(served, ref) -> bool:
    if not dataclasses.is_dataclass(ref):
        return _close(served, ref)
    fields = [f.name for f in dataclasses.fields(ref)]
    if dataclasses.is_dataclass(served):
        served = dataclasses.asdict(served)
    if isinstance(served, dict):
        return (set(served) == set(fields)
                and all(_close(served[f], getattr(ref, f)) for f in fields))
    if isinstance(served, (list, tuple)) and len(served) == len(fields):
        return all(_close(s, getattr(ref, f)) for s, f in zip(served, fields))
    return False


def rollout_matches(robot: str, q0, qd0, controls, dt: float,
                    qs, qds) -> bool:
    """One semi-implicit rollout against the ``loop`` engine."""
    ref = RolloutEngine("semi_implicit", engine="loop").rollout(
        load_robot(robot), q0[None], qd0[None], controls[None], dt=dt,
    )
    return _close(qs, ref.qs[0]) and _close(qds, ref.qds[0])
