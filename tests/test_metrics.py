import numpy as np
import pytest

from reluflow.compressible import profile_schedule, slope_profile
from reluflow.gadgets import shear_for_region, slope_change_stages
from reluflow.kr import GridDensity
from reluflow.mesh import RectDomain
from reluflow.metrics import (
    contraction_check,
    lp_map_error,
    oscillation_counterexample,
    pushforward_density,
    pushforward_values,
    rounding_counterexample,
    tv_distance,
    tv_stability_bound,
)
from reluflow.schedule import ControlSchedule, flow_points

UNIT_SQUARE = RectDomain([0.0, 0.0], [1.0, 1.0])
UNIT_INTERVAL = RectDomain([0.0], [1.0])


def smooth_density(seed, shape=(257, 257)):
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(0.1, 0.4), rng.uniform(1, 3, size=2), rng.uniform(0, 6)
    return GridDensity.from_function(
        lambda X: 1 + a * np.sin(b[0] * X[:, 0] + c) * np.cos(b[1] * X[:, 1]),
        shape)


class TestLpMapError:
    def test_equal_maps(self):
        assert lp_map_error(lambda X: X, lambda X: X, UNIT_SQUARE, 2, 64) == 0.0

    def test_constant_offset(self):
        c = 0.3
        err = lp_map_error(lambda X: X, lambda X: X + c, UNIT_SQUARE, 3, 64)
        assert err == pytest.approx(c * np.sqrt(2), rel=1e-12)

    def test_sine_perturbation_analytic(self):
        # |f-g| = 0.1 |sin(pi x)|: L2 norm = 0.1/sqrt(2)
        f = lambda X: X
        g = lambda X: np.column_stack([X[:, 0] + 0.1 * np.sin(np.pi * X[:, 0]),
                                       X[:, 1]])
        err = lp_map_error(f, g, UNIT_SQUARE, 2, 512)
        assert err == pytest.approx(0.1 / np.sqrt(2), rel=0.01)


class TestPushforward:
    def test_identity_schedule(self):
        rho = smooth_density(0, shape=(65, 65))
        out = pushforward_density(ControlSchedule(), rho, (65, 65))
        np.testing.assert_allclose(out.values, rho.values, atol=1e-12)

    def test_dilation_by_two(self):
        # uniform on [0,1] dilated by 2 -> density 1/2 on (0,2)
        sched = slope_change_stages(0.0, 2.0, 1.0)
        rho_fn = lambda X: ((X[:, 0] >= 0) & (X[:, 0] <= 1)).astype(float)
        y = np.linspace(0.05, 1.95, 39)[:, None]
        vals = pushforward_values(sched, rho_fn, y)
        np.testing.assert_allclose(vals, 0.5, atol=1e-12)

    def test_profile_pushforward_piecewise(self):
        # slopes (2, 1/2) on [0, 1/2, 1]: image densities 1/2 on (0,1), 2 on (1,1.25)
        p = slope_profile([0.0, 0.5, 1.0], [2.0, 0.5], 0.0)
        sched = profile_schedule(p)
        rho_fn = lambda X: ((X[:, 0] >= 0) & (X[:, 0] <= 1)).astype(float)
        inside = pushforward_values(sched, rho_fn, np.array([[0.3], [0.8]]))
        upper = pushforward_values(sched, rho_fn, np.array([[1.1], [1.2]]))
        np.testing.assert_allclose(inside, 0.5, atol=1e-12)
        np.testing.assert_allclose(upper, 2.0, atol=1e-12)

    def test_mass_conserved_analytic(self):
        # profile fixing [0,1]: pushforward of a smooth density integrates
        # to 1; with an analytic density the only quadrature kinks are the
        # three breakpoint images
        p = slope_profile([0.0, 0.5, 1.0], [0.5, 1.5], 0.0)
        sched = profile_schedule(p)
        rho_fn = lambda X: np.where(
            (X[:, 0] >= 0) & (X[:, 0] <= 1),
            1 + 0.3 * np.sin(2 * np.pi * X[:, 0]), 0.0)
        # midpoint rule with the density jumps (images of the breakpoints,
        # at multiples of 1/4) on cell boundaries
        n = 4096
        y = ((np.arange(n) + 0.5) / n)[:, None]
        vals = pushforward_values(sched, rho_fn, y)
        mass = vals.mean()
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_mass_conserved_grid(self):
        # grid densities add interpolation kinks at every node image; the
        # quadrature error scales like O(grid^-1) and shrinks on refinement
        p = slope_profile([0.0, 0.5, 1.0], [0.5, 1.5], 0.0)
        sched = profile_schedule(p, d=2, axis=0)
        rho = smooth_density(1, shape=(257, 257))
        errs = [abs(pushforward_density(sched, rho, (n, n)).integral() - 1.0)
                for n in (129, 513)]
        assert errs[1] <= 2e-3
        assert errs[1] < errs[0]


class TestTvDistance:
    def test_zero_for_equal(self):
        rho = smooth_density(2, shape=(65, 65))
        assert tv_distance(rho, rho) == 0.0

    def test_uniform_vs_2x(self):
        u = GridDensity.uniform((513,))
        rho = GridDensity(np.maximum(2 * np.linspace(0, 1, 513), 1e-12))
        assert tv_distance(u, rho) == pytest.approx(0.5, abs=1e-4)

    def test_disjoint_supports_near_two(self):
        n = 512
        left = np.full(n, 1e-15)
        left[: n // 2] = 2.0
        right = np.full(n, 1e-15)
        right[n // 2:] = 2.0
        tv = tv_distance(GridDensity(left), GridDensity(right))
        assert tv == pytest.approx(2.0, abs=0.02)

    def test_metric_properties(self, rng):
        ds = [smooth_density(s, shape=(33, 33)) for s in (3, 4, 5)]
        a, b, c = [tv_distance(x, y) for x, y in
                   ((ds[0], ds[1]), (ds[1], ds[2]), (ds[0], ds[2]))]
        assert a == tv_distance(ds[1], ds[0])       # symmetry
        assert c <= a + b + 1e-12                   # triangle inequality
        assert a > 0

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance(GridDensity.uniform((16,)), GridDensity.uniform((17,)))


class TestTvStabilityBound:
    def test_identity_zero(self):
        rho = smooth_density(6, shape=(65, 65))
        assert tv_stability_bound(np.zeros((100, 2)), np.zeros(100), rho) == 0.0

    def test_measure_preserving_reduces_to_displacement(self, rng):
        rho = smooth_density(7, shape=(65, 65))
        disp = rng.normal(scale=0.01, size=(200, 2))
        full = tv_stability_bound(disp, np.zeros(200), rho)
        from reluflow.metrics import lipschitz_norm
        expected = lipschitz_norm(rho) * np.mean(np.linalg.norm(disp, axis=1))
        assert full == pytest.approx(expected, rel=1e-12)

    def test_small_dilation_bound_dominates(self):
        # eta(x) = (1+eps) x with a tent density (Lipschitz on all of R,
        # as the bound requires): measured TV <= bound
        eps = 0.01
        n = 1025
        x = np.linspace(0, 1, n)
        tent = np.maximum(2 * (1 - np.abs(2 * x - 1)), 1e-15)
        rho = GridDensity(tent)
        # TV = int |rho(eta(x)) (1+eps) - rho(x)| dx (image mass past 1 is
        # O(eps^2) for the tent and included via the eta-side formula)
        eta_x = (1 + eps) * x
        rho_eta = np.where(eta_x <= 1.0,
                           np.maximum(2 * (1 - np.abs(2 * eta_x - 1)), 0.0),
                           0.0)
        measured = np.trapezoid(np.abs(rho_eta * (1 + eps) - tent), x)
        disp = (eps * x)[:, None]
        logdets = np.full(n, np.log1p(eps))
        bound = tv_stability_bound(disp, logdets, rho)
        assert bound >= measured > 0


class TestContractionCheck:
    def test_equal_inputs(self):
        rho = smooth_density(8, shape=(129, 129))
        sched = shear_for_region(0, 0.1, 1, 0.4, 0.5, 2)
        lhs, rhs = contraction_check(sched, rho, rho, resolution=64)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_identity_transport(self):
        r1, r2 = smooth_density(9, (129, 129)), smooth_density(10, (129, 129))
        lhs, rhs = contraction_check(ControlSchedule(), r1, r2, resolution=128)
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_random_shears_contract(self, rng):
        for trial in range(5):
            tau = rng.uniform(-0.2, 0.2)
            lo = rng.uniform(0.2, 0.5)
            move_axis = int(rng.integers(2))
            sched = shear_for_region(move_axis, tau, 1 - move_axis,
                                     lo, lo + 0.2, 2)
            r1 = smooth_density(20 + trial)
            r2 = smooth_density(40 + trial)
            lhs, rhs = contraction_check(sched, r1, r2, resolution=256)
            assert lhs <= rhs + 0.01


class TestOscillationCounterexample:
    def test_quantitative(self):
        sup, tv = oscillation_counterexample(0.1, 1 / 64)
        assert sup == pytest.approx(0.1 / 64)
        assert tv == pytest.approx(0.4, rel=0.02)

    def test_alpha_to_zero(self):
        _, tv = oscillation_counterexample(1e-4, 1 / 64)
        assert tv <= 1e-3

    def test_h_halving_stable(self):
        _, tv1 = oscillation_counterexample(0.1, 1 / 64)
        _, tv2 = oscillation_counterexample(0.1, 1 / 128)
        assert abs(tv2 - tv1) <= 0.01 * tv1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            oscillation_counterexample(0.5, 1 / 64)
        with pytest.raises(ValueError):
            oscillation_counterexample(0.1, 2.0)


class TestRoundingCounterexample:
    def test_eightfold_refinement(self):
        tv = rounding_counterexample(1 / 8, refine=8)
        assert tv == pytest.approx(1.75, abs=1e-12)
        assert tv >= 1.7

    def test_aliasing_caveat(self):
        assert rounding_counterexample(1 / 8, refine=1) == pytest.approx(0.0)

    def test_refinement_monotone(self):
        tvs = [rounding_counterexample(1 / 8, refine=r) for r in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(tvs, tvs[1:]))
        assert tvs[-1] <= 2.0
