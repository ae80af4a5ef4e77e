"""Coriolis matrix and the classic equation-of-motion decomposition.

Provides the factorization ``tau = M(q) qdd + C(q, qd) qd + g(q)`` used by
passivity-based controllers, with the Christoffel-consistent ``C`` so the
classic property that ``dM/dt - 2C`` is skew-symmetric holds.  Built on
CRBA with manifold-aware directional derivatives, and validated against
RNEA in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.crba import crba
from repro.dynamics.rnea import gravity_torques
from repro.errors import ModelError
from repro.model.robot import RobotModel


def _require_coordinate_velocities(model: RobotModel) -> None:
    """The Christoffel construction needs qd == d(q)/dt; floating and
    spherical joints use quasi-velocities (body twists) whose equations
    of motion carry extra Lie-bracket terms not captured here."""
    for i in range(model.nb):
        if not model.joint(i).coordinate_velocity:
            raise ModelError(
                "coriolis_matrix requires coordinate velocities; link "
                f"{model.links[i].name!r} has a "
                f"{model.joint(i).type_name} (quasi-velocity joint)"
            )


def _unit(n: int, k: int) -> np.ndarray:
    e = np.zeros(n)
    e[k] = 1.0
    return e


def mass_matrix_derivatives(
    model: RobotModel, q: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """``dM/dq`` as an (nv, nv, nv) array (last axis = tangent direction).

    Central differences on the configuration manifold; exact to O(eps^2).
    """
    nv = model.nv
    dm = np.zeros((nv, nv, nv))
    for k in range(nv):
        e = eps * _unit(nv, k)
        dm[:, :, k] = (
            crba(model, model.integrate(q, e))
            - crba(model, model.integrate(q, -e))
        ) / (2 * eps)
    return dm


def coriolis_matrix(
    model: RobotModel, q: np.ndarray, qd: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """The Christoffel Coriolis matrix ``C(q, qd)``::

        C[i, j] = sum_k c_{ijk}(q) qd[k]
        c_{ijk} = 0.5 * (dM_ij/dq_k + dM_ik/dq_j - dM_jk/dq_i)
    """
    _require_coordinate_velocities(model)
    qd = np.asarray(qd, dtype=float)
    dm = mass_matrix_derivatives(model, q, eps)
    # c[i, j, k] in one broadcast from the three dM permutations.
    christoffel = 0.5 * (
        dm
        + np.transpose(dm, (0, 2, 1))
        - np.transpose(dm, (2, 1, 0))
    )
    return christoffel @ qd


def equation_of_motion_terms(
    model: RobotModel, q: np.ndarray, qd: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, C, g) with ``tau = M qdd + C qd + g(q)``."""
    return (
        crba(model, q),
        coriolis_matrix(model, q, qd),
        gravity_torques(model, q),
    )


def mass_matrix_time_derivative(
    model: RobotModel, q: np.ndarray, qd: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """``dM/dt`` along the current velocity (directional derivative)."""
    qd = np.asarray(qd, dtype=float)
    m_plus = crba(model, model.integrate(q, eps * qd))
    m_minus = crba(model, model.integrate(q, -eps * qd))
    return (m_plus - m_minus) / (2 * eps)
