import numpy as np
import pytest

from reluflow.compressible import (
    profile_logdet,
    profile_schedule,
    slope_profile,
)
from reluflow.gadgets import slope_change_stages, translation_gadget
from reluflow.pipeline import realize_target
from reluflow.schedule import (
    ControlSchedule,
    PiecewiseLinear,
    flow_points,
    flow_segments,
    invert_schedule,
)
from reluflow.targets import CATALOG, get_target


def random_profile(rng, n_max=20, interval=(0.0, 1.0)):
    n = int(rng.integers(0, n_max + 1))
    y = np.sort(rng.uniform(*interval, size=n))
    y = np.concatenate([[interval[0]], y, [interval[1]]])
    # enforce strict increase
    y = interval[0] + np.cumsum(np.diff(np.concatenate([[interval[0]], y])) + 1e-3)
    y = np.concatenate([[interval[0]], y])
    alphas = np.exp(rng.uniform(np.log(1 / 8), np.log(8), size=len(y) - 1))
    beta0 = rng.uniform(-0.5, 0.5)
    return slope_profile(y, alphas, beta0)


class TestEvalProfile:
    def test_identity(self):
        p = slope_profile([0.0, 1.0], [1.0], 0.0)
        x = np.linspace(-1, 2, 7)
        np.testing.assert_array_equal(p(x), x)

    def test_two_piece(self):
        p = slope_profile([0.0, 0.5, 1.0], [2.0, 0.5], 0.0)
        assert p(0.5) == pytest.approx(1.0)
        assert p(0.75) == pytest.approx(1.125)

    def test_beta0_shift(self):
        p0 = slope_profile([0.0, 0.5, 1.0], [2.0, 0.5], 0.0)
        p1 = slope_profile([0.0, 0.5, 1.0], [2.0, 0.5], 0.2)
        x = np.linspace(0, 1, 11)
        np.testing.assert_allclose(p1(x), p0(x) + 0.2, atol=1e-14)

    def test_continuity_at_breakpoints(self, rng):
        p = random_profile(rng)
        for y in p.knots[1:-1]:
            left = p(y - 1e-12)
            assert p(y) == pytest.approx(left, abs=1e-10)

    def test_invalid_slopes(self):
        with pytest.raises(ValueError):
            slope_profile([0.0, 1.0], [-1.0], 0.0)


class TestProfileSchedule:
    def test_identity_empty(self):
        p = slope_profile([0.0, 1.0], [1.0], 0.0)
        assert len(profile_schedule(p)) == 0

    def test_two_piece_flow(self):
        p = slope_profile([0.0, 0.5, 1.0], [2.0, 0.5], 0.0)
        sched = profile_schedule(p)
        out, _ = flow_points(np.array([[0.75], [0.5]]), sched)
        assert out[0, 0] == pytest.approx(1.125, abs=1e-12)
        assert out[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_pure_translation(self):
        p = slope_profile([0.0, 1.0], [1.0], 0.25)
        sched = profile_schedule(p)
        x = np.linspace(0, 1, 9)[:, None]
        out, ld = flow_points(x, sched)
        np.testing.assert_allclose(out[:, 0], x[:, 0] + 0.25, atol=1e-12)
        np.testing.assert_allclose(ld, 0.0, atol=1e-12)

    def test_negative_translation(self):
        p = slope_profile([0.0, 1.0], [1.0], -0.4)
        sched = profile_schedule(p)
        x = np.linspace(0, 1, 9)[:, None]
        out, _ = flow_points(x, sched)
        np.testing.assert_allclose(out[:, 0], x[:, 0] - 0.4, atol=1e-12)

    def test_switch_count(self, rng):
        # n interior breakpoints -> n+1 stages; +2 segments when the left
        # endpoint moves
        y = np.array([0.0, 0.3, 0.7, 1.0])
        alphas = np.array([2.0, 1.0, 0.5])
        p = slope_profile(y, alphas, 0.0)   # zeta(0) = 0: no translation
        n = len(p.knots) - 2                 # interior breakpoints
        assert profile_schedule(p).switch_count == n
        p2 = slope_profile(y, alphas, 0.1)
        assert profile_schedule(p2).switch_count == n + 2

    def test_exactness_random(self, rng):
        for _ in range(100):
            p = random_profile(rng)
            sched = profile_schedule(p, d=1, axis=0)
            x = rng.uniform(p.knots[0], p.knots[-1], size=(100, 1))
            out, ld = flow_points(x, sched)
            expected = p(x[:, 0])
            assert np.max(np.abs(out[:, 0] - expected)) <= 1e-10
            expected_ld = profile_logdet(p, x[:, 0])
            assert np.max(np.abs(ld - expected_ld)) <= 1e-10

    def test_monotone_flow(self, rng):
        p = random_profile(rng)
        sched = profile_schedule(p)
        x = np.linspace(p.knots[0], p.knots[-1], 2000)[:, None]
        out, _ = flow_points(x, sched)
        assert np.all(np.diff(out[:, 0]) > 0)

    def test_lifted_fixes_other_coordinates(self, rng):
        p = slope_profile([0.0, 0.5, 1.0], [2.0, 0.5], 0.3)
        sched = profile_schedule(p, d=3, axis=0)
        X = rng.uniform(0, 1, size=(50, 3))
        out, _ = flow_points(X, sched)
        np.testing.assert_array_equal(out[:, 1:], X[:, 1:])
        np.testing.assert_allclose(out[:, 0], p(X[:, 0]), atol=1e-10)


def _schedule_with_unit_ratios(p) -> ControlSchedule:
    """profile_schedule as it was when every piece got a stage, including
    the zero-field stages of slope ratio 1."""
    y0 = p.knots[0]
    tau = float(p(y0)) - y0
    sched = ControlSchedule()
    if tau > 0:
        sched = translation_gadget(y0 - 2.0, 1.0, tau, 1.0)
    elif tau < 0:
        sched = invert_schedule(translation_gadget(y0 - 2.0 - abs(tau), 1.0,
                                                   abs(tau), 1.0))
    slopes = p.slopes[1:-1]
    prev = np.concatenate([[1.0], slopes[:-1]])
    return sched + slope_change_stages(p(p.knots[:-1]),
                                       slopes / prev,
                                       np.diff(p.knots + tau))


class TestUnitRatioStages:
    def test_no_zero_field_segment_is_emitted(self):
        # slopes 1, 2, 2, 0.5, 0.5: three of the five ratios are 1
        p = slope_profile([0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                            [1.0, 2.0, 2.0, 0.5, 0.5], 0.0)
        sched = profile_schedule(p)
        assert len(sched) == 2
        assert sched.w.any(axis=1).all()

    def test_band_tower_schedules_have_no_zero_field(self):
        sched = realize_target(get_target("sine-radial"), mesh_h=1 / 16,
                               resolution=8).schedule
        assert sched.w.any(axis=1).all()

    @pytest.mark.parametrize("h", [1 / 8, 1 / 16, 1 / 32])
    @pytest.mark.parametrize("name", CATALOG)
    def test_no_stage_of_rounding_size(self, name, h):
        # chords through rounded band values make ratios of 1 read 1 +- a
        # few eps; such a stage would run a full duration at |w| ~ 1e-16
        sched = realize_target(get_target(name), mesh_h=h, cube_h=h,
                               resolution=8).schedule
        size = (np.linalg.norm(sched.w, axis=1)
                * np.linalg.norm(sched.a, axis=1) * sched.duration)
        assert np.all(size >= 1e-9)

    def test_non_increasing_profile_rejected(self):
        p = PiecewiseLinear.through(np.array([0.0, 0.5, 1.0]),
                                    np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ValueError, match="increasing"):
            profile_schedule(p)

    @pytest.mark.parametrize("beta0", [0.0, 0.3, -0.3])
    def test_flow_bit_identical_to_all_stage_schedule(self, rng, beta0):
        slopes = np.repeat(np.exp(rng.uniform(-1, 1, size=5)), 3)
        slopes[:3] = 1.0
        p = slope_profile(np.linspace(0.0, 1.0, len(slopes) + 1), slopes,
                            beta0)
        old = _schedule_with_unit_ratios(p)
        new = profile_schedule(p)
        assert len(old) - len(new) == 11
        assert old.total_duration > new.total_duration
        x = rng.uniform(-0.5, 1.5, size=(500, 1))
        for flow in (flow_points, flow_segments):
            out_old, ld_old = flow(x, old)
            out_new, ld_new = flow(x, new)
            np.testing.assert_array_equal(out_new, out_old)
            np.testing.assert_array_equal(ld_new, ld_old)


class TestProfileLogdet:
    def test_identity_zero(self):
        p = slope_profile([0.0, 1.0], [1.0], 0.0)
        assert profile_logdet(p, 0.5) == 0.0

    def test_two_piece(self):
        p = slope_profile([0.0, 0.5, 1.0], [2.0, 0.5], 0.0)
        assert profile_logdet(p, 0.25) == pytest.approx(np.log(2))
        assert profile_logdet(p, 0.75) == pytest.approx(np.log(0.5))

    def test_tracked_logdet_agrees(self):
        p = slope_profile([0.0, 0.5, 1.0], [2.0, 0.5], 0.0)
        sched = profile_schedule(p)
        _, ld = flow_points(np.array([[0.75]]), sched)
        assert ld[0] == pytest.approx(np.log(0.5), abs=1e-12)

    def test_left_limit_at_breakpoint(self):
        p = slope_profile([0.0, 0.5, 1.0], [2.0, 0.5], 0.0)
        assert profile_logdet(p, 0.5) == pytest.approx(np.log(2))
