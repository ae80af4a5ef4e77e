"""Unit tests for SO(3) utilities."""

import numpy as np
import pytest

from repro.spatial.so3 import (
    exp_so3,
    is_rotation,
    log_so3,
    rot_axis,
    rotx,
    roty,
    rotz,
    skew,
    unskew,
)


class TestSkew:
    def test_skew_cross_product(self, rng):
        v = rng.normal(size=3)
        u = rng.normal(size=3)
        assert np.allclose(skew(v) @ u, np.cross(v, u))

    def test_skew_antisymmetric(self, rng):
        v = rng.normal(size=3)
        assert np.allclose(skew(v), -skew(v).T)

    def test_unskew_roundtrip(self, rng):
        v = rng.normal(size=3)
        assert np.allclose(unskew(skew(v)), v)

    def test_skew_of_zero(self):
        assert np.allclose(skew(np.zeros(3)), np.zeros((3, 3)))


class TestExpLog:
    def test_exp_identity(self):
        assert np.allclose(exp_so3(np.zeros(3)), np.eye(3))

    def test_exp_is_rotation(self, rng):
        for _ in range(10):
            assert is_rotation(exp_so3(rng.normal(size=3)))

    def test_exp_log_roundtrip(self, rng):
        for _ in range(20):
            w = rng.normal(size=3)
            w = w / np.linalg.norm(w) * rng.uniform(0.01, np.pi - 0.01)
            assert np.allclose(log_so3(exp_so3(w)), w, atol=1e-9)

    def test_log_near_pi(self):
        w = np.array([0.0, 0.0, np.pi - 1e-8])
        r = exp_so3(w)
        w_back = log_so3(r)
        assert np.allclose(exp_so3(w_back), r, atol=1e-6)

    def test_log_small_angle(self):
        w = np.array([1e-11, -2e-11, 5e-12])
        assert np.allclose(log_so3(exp_so3(w)), w, atol=1e-12)

    def test_exp_quarter_turn_z(self):
        r = exp_so3(np.array([0.0, 0.0, np.pi / 2]))
        assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0])


def _log_cases():
    """Rotations covering every log_so3 branch: zero, tiny (<1e-10),
    generic, within 1e-7 of pi, and exactly pi."""
    rng = np.random.default_rng(7)
    axes = rng.normal(size=(4, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    mats = [np.eye(3), exp_so3(np.array([3e-11, -1e-11, 2e-11]))]
    mats += [exp_so3(a * t) for a, t in zip(axes, (0.3, 1.7, 2.9, 3.1))]
    mats += [exp_so3(a * (np.pi - d))
             for a, d in zip(axes, (1e-7, 5e-8, 1e-9, 0.0))]
    # Exact half turns: r = 2 a a^T - I, including a coordinate axis.
    mats += [2.0 * np.outer(a, a) - np.eye(3) for a in axes[:2]]
    mats.append(np.diag([1.0, -1.0, -1.0]))
    return np.stack(mats)


class TestBatchedLog:
    def test_batched_equals_per_element(self):
        r = _log_cases()
        batched = log_so3(r)
        assert batched.shape == (len(r), 3)
        for k in range(len(r)):
            np.testing.assert_allclose(batched[k], log_so3(r[k]),
                                       rtol=0.0, atol=1e-12)

    def test_leading_axes_and_mixed_branches(self):
        """A (2, n/2, 3, 3) stack mixing every branch in one call."""
        r = _log_cases()
        r = r[: len(r) // 2 * 2]
        grid = log_so3(r.reshape(2, -1, 3, 3))
        np.testing.assert_allclose(grid.reshape(-1, 3), log_so3(r),
                                   rtol=0.0, atol=1e-12)

    def test_round_trip_and_range(self):
        r = _log_cases()
        w = log_so3(r)
        assert np.all(np.linalg.norm(w, axis=1) <= np.pi + 1e-12)
        # The near-pi branch reads the axis off the symmetric part, which
        # ignores the O(pi - theta) antisymmetric term.
        np.testing.assert_allclose(exp_so3(w), r, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(exp_so3(w[:6]), r[:6], rtol=0.0,
                                   atol=1e-12)


class TestAxisRotations:
    @pytest.mark.parametrize("fn,axis", [
        (rotx, [1.0, 0.0, 0.0]),
        (roty, [0.0, 1.0, 0.0]),
        (rotz, [0.0, 0.0, 1.0]),
    ])
    def test_matches_rot_axis(self, fn, axis):
        theta = 0.7
        assert np.allclose(fn(theta), rot_axis(np.array(axis), theta))

    def test_rotz_convention(self):
        # Coordinate transform: a point on +x, seen from a frame rotated by
        # +90deg about z, appears on -y.
        e = rotz(np.pi / 2)
        assert np.allclose(e @ np.array([1.0, 0.0, 0.0]), [0.0, -1.0, 0.0])

    def test_rot_axis_transpose_of_exp(self, rng):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = 1.1
        assert np.allclose(rot_axis(axis, theta), exp_so3(axis * theta).T)

    def test_composition(self):
        assert np.allclose(rotz(0.3) @ rotz(0.4), rotz(0.7))


class TestIsRotation:
    def test_rejects_scaled(self):
        assert not is_rotation(2.0 * np.eye(3))

    def test_rejects_reflection(self):
        assert not is_rotation(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_wrong_shape(self):
        assert not is_rotation(np.eye(4))

    def test_accepts_identity(self):
        assert is_rotation(np.eye(3))
