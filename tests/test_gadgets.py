import numpy as np
import pytest

from reluflow.gadgets import (
    lift,
    shear_for_region,
    slope_change_stages,
    staircase,
    translation_gadget,
)
from reluflow.schedule import ControlSchedule, flow_points


def flow1(x, sched):
    """The position of the single point x after the schedule."""
    X, _ = flow_points(np.atleast_1d(np.asarray(x, dtype=float))[None], sched)
    return X[0]


class TestTranslationGadget:
    def test_basic_regions(self):
        sched = translation_gadget(c=0.0, h=1.0, tau=1.0, T=1.0)
        assert flow1(2.0, sched)[0] == pytest.approx(3.0, abs=1e-12)
        assert flow1(-0.5, sched)[0] == -0.5

    def test_tau_zero_identity(self):
        sched = translation_gadget(0.0, 1.0, 0.0, 1.0)
        for x in (-1.0, 0.5, 2.0):
            assert flow1(x, sched)[0] == x

    def test_composed_stages(self):
        sched = translation_gadget(c=1.0, h=0.5, tau=2.0, T=1.0)
        assert flow1(1.5, sched)[0] == pytest.approx(3.5, abs=1e-12)

    def test_region_exactness_and_logdet(self, rng):
        sched = translation_gadget(c=-0.5, h=0.25, tau=1.5, T=2.0)
        xs = np.concatenate([rng.uniform(-0.25, 3, 50), rng.uniform(-3, -0.5, 50)])
        out, ld = flow_points(xs[:, None], sched)
        expected = np.where(xs >= -0.25, xs + 1.5, xs)
        assert np.max(np.abs(out[:, 0] - expected)) <= 1e-10
        assert np.max(np.abs(ld)) <= 1e-12  # dilation then contraction cancel

    def test_weight_bound(self):
        c, h, tau, T = 0.0, 1.0, 1.0, 1.0
        sched = translation_gadget(c, h, tau, T)
        bound = (1.0 / (T / 2)) * np.log(1 + tau / h)
        assert np.all(np.linalg.norm(sched.w, axis=1) <= bound + 1e-12)
        assert np.all(np.abs(sched.b) <= c + tau + h + 1e-12)

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            translation_gadget(0.0, 0.0, 1.0, 1.0)

    def test_lifted_axis(self):
        sched = translation_gadget(0.0, 1.0, 1.0, 1.0, d=3, axis=2)
        out = flow1([5.0, -5.0, 2.0], sched)
        np.testing.assert_allclose(out, [5.0, -5.0, 3.0], atol=1e-12)


class TestShearTranslation:
    """shear_for_region as a sideways translation of a half-space."""

    def test_regions(self):
        sched = shear_for_region(move_axis=1, tau=2.0, sel_axis=0, lo=0.0,
                                 hi=1.0, d=2)
        out = flow1([1.5, 0.0], sched)
        np.testing.assert_allclose(out, [1.5, 2.0], atol=1e-12)
        out = flow1([-0.5, 0.0], sched)
        np.testing.assert_allclose(out, [-0.5, 0.0])

    def test_middle_strip(self):
        sched = shear_for_region(1, 2.0, 0, 0.0, 1.0, d=2)
        out = flow1([0.5, 0.0], sched)
        np.testing.assert_allclose(out, [0.5, 1.0], atol=1e-12)

    def test_tau_zero_identity(self):
        sched = shear_for_region(1, 0.0, 0, 0.0, 1.0, d=2)
        out = flow1([1.5, 0.3], sched)
        np.testing.assert_allclose(out, [1.5, 0.3])

    def test_negative_tau(self):
        sched = shear_for_region(1, -2.0, 0, 0.0, 1.0, d=2)
        out = flow1([1.5, 0.0], sched)
        np.testing.assert_allclose(out, [1.5, -2.0], atol=1e-12)

    def test_negative_a_sign(self):
        # active side flips (lo > hi): points with x_0 <= hi move
        sched = shear_for_region(1, 1.0, 0, 0.0, -1.0, d=2)
        out = flow1([-1.5, 0.0], sched)
        np.testing.assert_allclose(out, [-1.5, 1.0], atol=1e-12)
        out = flow1([0.5, 0.0], sched)
        np.testing.assert_allclose(out, [0.5, 0.0])

    def test_k_equals_l_rejected(self):
        with pytest.raises(ValueError):
            shear_for_region(1, 1.0, 1, 0.0, 1.0, d=2)

    def test_divergence_free_jacobian(self, rng):
        sched = shear_for_region(2, 1.7, 0, 0.3, -0.2, d=3)
        X = rng.uniform(-3, 3, size=(1000, 3))
        _, ld = flow_points(X, sched)
        assert np.all(ld == 0.0)  # exact, not approximate
        # finite-difference Jacobian determinant at a few random points
        eps = 1e-6
        for x in X[:20]:
            J = np.empty((3, 3))
            for j in range(3):
                dx = np.zeros(3)
                dx[j] = eps
                fp, _ = flow_points((x + dx)[None], sched)
                fm, _ = flow_points((x - dx)[None], sched)
                J[:, j] = (fp[0] - fm[0]) / (2 * eps)
            assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-6)

    def test_arrays_match_scalar_calls(self):
        # entry 1 is mirrored (lo > hi) and entry 2 moves backwards; lo is
        # broadcast against the arrays
        tau, hi = np.array([1.5, 0.4, -0.7]), np.array([0.25, -0.5, 1.0])
        sched = shear_for_region(2, tau, 0, 0.0, hi, d=3)
        expected = ControlSchedule.concat(
            shear_for_region(2, t, 0, 0.0, h, d=3) for t, h in zip(tau, hi))
        assert sched.to_dict() == expected.to_dict()

    def test_zero_width_entry_rejected(self):
        with pytest.raises(ValueError, match="positive width"):
            shear_for_region(1, [1.0, 2.0], 0, [0.0, 0.5], [1.0, 0.5], d=2)

    def test_shear_for_region_above_and_below(self):
        d = 2
        up = shear_for_region(move_axis=1, tau=0.5, sel_axis=0, lo=1.0, hi=1.25, d=d)
        np.testing.assert_allclose(flow1([2.0, 0.0], up),
                                   [2.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(flow1([0.5, 0.0], up),
                                   [0.5, 0.0])
        down = shear_for_region(move_axis=1, tau=0.5, sel_axis=0, lo=1.0, hi=0.75, d=d)
        np.testing.assert_allclose(flow1([0.0, 0.0], down),
                                   [0.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(flow1([1.5, 0.0], down),
                                   [1.5, 0.0])


class TestStaircase:
    def test_steps_and_ramps(self, rng):
        # x_2 += 0.5 ramp(x_0 + 1) - 2 ramp(x_0 - 2), ramps of half-width 0.1;
        # the zero jump at x_0 = 1 emits no shear
        centres, jumps = [-1.0, 1.0, 2.0], [0.5, 0.0, -2.0]
        sched = staircase(2, 0, centres, jumps, 0.1, d=3)
        assert len(sched) == 4
        X = rng.uniform(-3, 3, size=(400, 3))
        ramp = lambda c: np.clip((X[:, 0] - c + 0.1) / 0.2, 0.0, 1.0)
        out, ld = flow_points(X, sched)
        expected = X.copy()
        expected[:, 2] += sum(t * ramp(c) for c, t in zip(centres, jumps))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
        assert np.all(ld == 0.0)

    def test_scalar_jump_matches_shears(self):
        edges = np.array([0.25, 0.5, 0.75])
        sched = staircase(0, 1, edges, 1.5, 0.01, d=2)
        expected = ControlSchedule.concat(
            shear_for_region(0, 1.5, 1, e - 0.01, e + 0.01, 2) for e in edges)
        assert sched.to_dict() == expected.to_dict()

    def test_all_zero_jumps_give_an_empty_schedule(self):
        assert len(staircase(0, 1, [0.0, 1.0], 0.0, 0.1, d=2)) == 0
        assert len(staircase(0, 1, [0.0, 1.0], [0.0, -0.0], 0.1, d=2)) == 0


class TestLift:
    def test_cells_move_by_their_c_order_index(self):
        # three lattices of 2, 3 and 4 bands, read from axes 2, 0 and 3;
        # x_1 gets 0.7 times the cell's C-order index, the last lattice
        # fastest
        lattices = [(2, np.array([0.0]), 0.05),
                    (0, np.array([-1.0, 1.0]), 0.1),
                    (3, np.array([0.0, 0.5, 1.0]), 0.02)]
        cores = [np.array([-0.5, 0.5]), np.array([-2.0, 0.0, 2.0]),
                 np.array([-0.5, 0.25, 0.75, 1.5])]
        sched = lift(1, lattices, 0.7, d=4)
        cell = np.indices((2, 3, 4)).reshape(3, -1).T    # in C order
        X = np.zeros((len(cell), 4))
        for p, (axis, _, _) in enumerate(lattices):
            X[:, axis] = cores[p][cell[:, p]]
        X[:, 1] = np.linspace(-1.0, 1.0, len(cell))
        out, ld = flow_points(X, sched)
        expected = X.copy()
        expected[:, 1] += 0.7 * np.arange(len(cell))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
        assert np.all(ld == 0.0)


class TestSlopeChangeStage:
    """slope_change_stages with a single stage (c, ratio, h)."""

    def test_contraction(self):
        sched = slope_change_stages(c=[1.0], ratio=[0.25], h=[0.5])
        assert flow1(2.0, sched)[0] == pytest.approx(1.25, abs=1e-13)

    def test_ratio_one_identity(self):
        sched = slope_change_stages([0.0], [1.0], [1.0])
        assert flow1(0.7, sched)[0] == 0.7

    def test_expansion(self):
        sched = slope_change_stages([0.0], [2.0], [1.0])
        assert flow1(0.5, sched)[0] == pytest.approx(1.0, abs=1e-13)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            slope_change_stages([0.0], [-1.0], [1.0])

    def test_fixes_points_below(self):
        sched = slope_change_stages([1.0], [3.0], [0.5])
        assert flow1(0.2, sched)[0] == 0.2
