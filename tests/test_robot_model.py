"""Unit tests for the RobotModel tree and builder."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.model.joints import FloatingJoint, RevoluteJoint
from repro.model.library import (
    ROBOT_REGISTRY,
    hyq,
    iiwa,
    load_robot,
    quadruped_arm,
    random_tree,
)
from repro.model.link import Link
from repro.model.robot import RobotBuilder, RobotModel
from repro.model.topology import split_floating_base
from repro.spatial.inertia import SpatialInertia
from repro.spatial.random import random_inertia
from repro.spatial.so3 import exp_so3


def _simple_inertia():
    return SpatialInertia(1.0, np.array([0.0, 0.0, 0.1]), 0.05 * np.eye(3))


class TestValidation:
    def test_parent_must_precede_child(self):
        links = [
            Link("a", 1, RevoluteJoint(), _simple_inertia()),
            Link("b", -1, RevoluteJoint(), _simple_inertia()),
        ]
        with pytest.raises(ModelError):
            RobotModel(links)

    def test_duplicate_names_rejected(self):
        links = [
            Link("a", -1, RevoluteJoint(), _simple_inertia()),
            Link("a", 0, RevoluteJoint(), _simple_inertia()),
        ]
        with pytest.raises(ModelError):
            RobotModel(links)

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            RobotModel([])

    def test_massless_leaf_chain_rejected(self):
        builder = RobotBuilder()
        builder.add_link("a", None, RevoluteJoint(), SpatialInertia.zero())
        with pytest.raises(ModelError):
            builder.build()

    def test_massless_intermediate_ok(self):
        builder = RobotBuilder()
        builder.add_link("a", None, RevoluteJoint(), SpatialInertia.zero())
        builder.add_link("b", "a", RevoluteJoint(), _simple_inertia())
        model = builder.build()
        assert model.nb == 2


class TestShapes:
    def test_iiwa_shape(self):
        model = iiwa()
        assert model.nb == 7
        assert model.nv == 7
        assert model.is_serial_chain()

    def test_hyq_shape(self):
        model = hyq()
        assert model.nb == 13
        assert model.nv == 18
        assert not model.is_serial_chain()
        assert isinstance(model.joint(0), FloatingJoint)

    def test_quadruped_arm_matches_paper(self):
        # Section V-B: NB = 19 links, N = 24 DOF.
        model = quadruped_arm()
        assert model.nb == 19
        assert model.nv == 24

    def test_dof_slices_partition(self, any_robot):
        seen = np.zeros(any_robot.nv, dtype=int)
        for i in range(any_robot.nb):
            sl = any_robot.dof_slice(i)
            seen[sl] += 1
        assert np.all(seen == 1)


class TestTopologyQueries:
    def test_subtree_contains_self(self, any_robot):
        for i in range(any_robot.nb):
            assert i in any_robot.subtree(i)

    def test_subtree_strict_excludes_self(self, any_robot):
        for i in range(any_robot.nb):
            assert i not in any_robot.subtree_strict(i)

    def test_root_subtree_is_everything(self, any_robot):
        assert any_robot.subtree(0) == list(range(any_robot.nb))

    def test_ancestors_ordered_root_first(self):
        model = hyq()
        leaf = model.nb - 1
        anc = model.ancestors(leaf)
        assert anc[0] == 0
        assert all(model.depth(a) < model.depth(leaf) for a in anc)

    def test_supporting_dofs_monotone_down_chain(self):
        model = iiwa()
        counts = [len(model.supporting_dofs(i)) for i in range(model.nb)]
        assert counts == sorted(counts)
        assert counts[-1] == model.nv

    def test_depth_of_serial_chain(self):
        model = iiwa()
        assert [model.depth(i) for i in range(7)] == list(range(1, 8))

    def test_leaves_of_hyq(self):
        model = hyq()
        assert len(model.leaves()) == 4

    def test_children_inverse_of_parent(self, any_robot):
        for i in range(any_robot.nb):
            for c in any_robot.children(i):
                assert any_robot.parent(c) == i

    def test_link_index_roundtrip(self, any_robot):
        for i, link in enumerate(any_robot.links):
            assert any_robot.link_index(link.name) == i

    def test_link_index_unknown(self):
        with pytest.raises(ModelError):
            iiwa().link_index("nope")


class TestConfiguration:
    def test_neutral_q_shape(self, any_robot):
        assert any_robot.neutral_q().shape == (any_robot.nv,)

    def test_integrate_neutral_additive_for_revolute(self, rng):
        model = iiwa()
        q = model.random_q(rng)
        dq = rng.normal(size=model.nv)
        assert np.allclose(model.integrate(q, dq), q + dq)

    def test_random_state_shapes(self, any_robot, rng):
        q, qd = any_robot.random_state(rng)
        assert q.shape == (any_robot.nv,)
        assert qd.shape == (any_robot.nv,)


def _integrate_models():
    models = [load_robot(name) for name in sorted(ROBOT_REGISTRY)]
    models.append(random_tree(9, seed=2, floating=True))
    models.append(split_floating_base(load_robot("hyq")))
    return models


INTEGRATE_MODELS = _integrate_models()
DQ_SCALES = (0.0, 1e-12, 1e-3, 1.0, 3.0)


def _integrate_inputs(model, scale, n=16, seed=5):
    rng = np.random.default_rng(seed)
    q = np.stack([model.random_q(rng) for _ in range(n)])
    return q, scale * rng.normal(size=q.shape)


def _twist_displacement(w, v):
    """Body-frame translation of the twist ``[w; v]`` run for unit time,
    ``int_0^1 exp(s [w]x) v ds``, by 24-point Gauss-Legendre quadrature
    (independent of the closed-form SE(3) exponential)."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    s = 0.5 * (nodes + 1.0)
    rots = exp_so3(s[:, None] * w)
    return 0.5 * np.einsum("k,kij,j->i", weights, rots, v)


class TestBatchIntegrate:
    """``batch_integrate`` is one broadcasting call per joint."""

    @pytest.mark.parametrize("scale", DQ_SCALES)
    @pytest.mark.parametrize("model", INTEGRATE_MODELS,
                             ids=lambda m: m.name)
    def test_matches_per_row(self, model, scale):
        q, dq = _integrate_inputs(model, scale)
        batched = model.batch_integrate(q, dq)
        per_row = np.stack([model.integrate(q[k], dq[k])
                            for k in range(len(q))])
        np.testing.assert_allclose(batched, per_row, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("scale", DQ_SCALES)
    @pytest.mark.parametrize("model", INTEGRATE_MODELS,
                             ids=lambda m: m.name)
    def test_manifold_properties(self, model, scale):
        """Rotations compose (``exp(new) == exp(q) @ exp(dq)``) with
        ``|w| <= pi``; a floating base moves by the twist's body-frame
        displacement; every other joint adds."""
        q, dq = _integrate_inputs(model, scale)
        out = model.batch_integrate(q, dq)
        for i, link in enumerate(model.links):
            sl = model.dof_slice(i)
            joint = link.joint
            qi, dqi, new = q[:, sl], dq[:, sl], out[:, sl]
            if joint.coordinate_velocity:
                np.testing.assert_array_equal(new, qi + dqi)
                continue
            assert np.all(np.linalg.norm(new[:, :3], axis=1)
                          <= np.pi + 1e-12)
            for k in range(len(q)):
                np.testing.assert_allclose(
                    exp_so3(new[k, :3]),
                    exp_so3(qi[k, :3]) @ exp_so3(dqi[k, :3]),
                    rtol=0.0, atol=1e-12,
                )
                if isinstance(joint, FloatingJoint):
                    step = _twist_displacement(dqi[k, :3], dqi[k, 3:])
                    moved = qi[k, 3:] + exp_so3(qi[k, :3]) @ step
                    np.testing.assert_allclose(new[k, 3:], moved,
                                               rtol=0.0, atol=1e-12)

    def test_one_joint_call_per_batch(self, monkeypatch):
        """No per-row loop: each quasi-velocity joint integrates once."""
        model = load_robot("hyq")
        calls = []
        original = FloatingJoint.integrate

        def counted(self, q, dq):
            calls.append(np.shape(q))
            return original(self, q, dq)

        monkeypatch.setattr(FloatingJoint, "integrate", counted)
        q, dq = _integrate_inputs(model, 1.0, n=32)
        model.batch_integrate(q, dq)
        assert calls == [(32, 6)]


class TestBuilder:
    def test_unknown_parent_rejected(self):
        builder = RobotBuilder()
        with pytest.raises(ModelError):
            builder.add_link("a", "ghost", RevoluteJoint(), _simple_inertia())

    def test_duplicate_rejected(self):
        builder = RobotBuilder()
        builder.add_link("a", None, RevoluteJoint(), _simple_inertia())
        with pytest.raises(ModelError):
            builder.add_link("a", None, RevoluteJoint(), _simple_inertia())

    def test_x_tree_exclusive_with_translation(self):
        builder = RobotBuilder()
        with pytest.raises(ModelError):
            builder.add_link(
                "a", None, RevoluteJoint(), _simple_inertia(),
                x_tree=np.eye(6), translation=np.ones(3),
            )

    def test_bad_rotation_rejected(self):
        builder = RobotBuilder()
        with pytest.raises(ModelError):
            builder.add_link(
                "a", None, RevoluteJoint(), _simple_inertia(),
                rotation=2 * np.eye(3),
            )

    def test_build_chain(self, rng):
        builder = RobotBuilder("two")
        builder.add_link("a", None, RevoluteJoint(), random_inertia(rng))
        builder.add_link(
            "b", "a", RevoluteJoint(), random_inertia(rng),
            translation=np.array([0.0, 0.0, 0.4]),
        )
        model = builder.build()
        assert model.nb == 2
        assert model.parent(1) == 0
