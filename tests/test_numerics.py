import numpy as np
import pytest

from reluflow import numerics
from reluflow.numerics import neuron_field, rk4, solve_increasing
from reluflow.pipeline import _pass_maps
from reluflow.targets import TargetMap, get_target
from tests import test_kr
from tests.conftest import bisection

EPS = np.finfo(float).eps
SEEDS = [3, 17, 101, 2026, 90210]


def assert_near(x, reference, tol):
    """Within ``tol`` of the oracle, up to a few ulps: where f's rounding
    error is larger than its rise over an ulp, the float where f first
    reaches the target depends on which points were tried."""
    assert np.all(np.abs(x - reference)
                  <= tol + 4 * np.spacing(np.abs(reference)))


class Counted:
    """f with a record of every array it was called at."""

    def __init__(self, f):
        self.f, self.points = f, []

    def __call__(self, x):
        self.points.append(np.array(x, dtype=float))
        return self.f(x)


def budget(lo, hi, tol):
    """The solver's bound on calls: both ends, then bisection's count of
    steps plus the spare ones, for the widest entry."""
    halvings = np.ceil(np.log2(np.asarray(hi - lo) / tol))
    return 2 + int(np.max(halvings)) + numerics._SPARE_STEPS


def smooth(x):
    return x + 0.3 * np.sin(3.0 * x)          # f' >= 0.1


class TestSolveIncreasing:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_smooth_function_matches_bisection(self, seed):
        rng = np.random.default_rng(seed)
        lo, hi = -1.0, 2.0
        target = rng.uniform(smooth(lo), smooth(hi), size=500)
        tol = EPS * (hi - lo)
        x = solve_increasing(smooth, target, lo, hi, tol)
        assert_near(x, bisection(smooth, target, lo, hi), tol)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kr_conditional_cdfs_match_bisection(self, seed):
        rng = np.random.default_rng(seed)
        # the density slices of the closed-form inverse's tests, the 1e-9
        # floor among them; per slice: every knot's CDF value, points just
        # off the first knots, and uniform targets
        table, F = test_kr.cdfs_of_slices(
            test_kr.TestClosedFormInverse().slices(rng), 60)
        knots = table.cum / table.cum[:, -1:]
        u = np.concatenate([knots, knots[:, 1:3] * (1 + 1e-9),
                            rng.uniform(size=(len(knots), 47))],
                           axis=1).ravel()
        f = Counted(F.eval)
        x = solve_increasing(f, u, 0.0, 1.0, EPS)
        assert np.max(np.abs(x - bisection(F.eval, u, 0.0, 1.0))) <= 1e-12
        assert len(f.points) <= budget(0.0, 1.0, EPS)

    def test_plateau_gives_its_left_end_like_bisection(self):
        # f = target on [0.3, 0.6]: the root is the plateau's left end
        def f(x):
            return np.where(x < 0.3, x, np.where(x < 0.6, 0.3, x - 0.3))

        target = np.array([0.3, 0.3 - 1e-9, 0.3 + 1e-9, 0.1, 0.5])
        tol = EPS
        x = solve_increasing(f, target, 0.0, 1.0, tol)
        np.testing.assert_allclose(x, bisection(f, target, 0.0, 1.0),
                                   rtol=0, atol=tol)
        assert abs(x[0] - 0.3) <= tol

    @pytest.mark.parametrize("seed", SEEDS)
    def test_array_brackets(self, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-2.0, 0.0, size=300)
        hi = lo + rng.uniform(0.01, 3.0, size=300)
        target = smooth(rng.uniform(lo, hi))
        tol = EPS * (hi - lo)
        f = Counted(smooth)
        x = solve_increasing(f, target, lo, hi, tol)
        assert_near(x, bisection(smooth, target, lo, hi), tol)
        for points in f.points:       # never outside an entry's bracket
            assert np.all((lo <= points) & (points <= hi))
        assert len(f.points) <= budget(lo, hi, tol)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_targets_outside_range_give_exact_endpoint(self, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-2.0, 0.0, size=50)
        hi = lo + rng.uniform(0.01, 3.0, size=50)
        below = smooth(lo) - rng.uniform(0.0, 5.0, size=50)
        above = smooth(hi) + rng.uniform(1e-12, 5.0, size=50)
        tol = EPS * (hi - lo)
        x = solve_increasing(smooth, np.concatenate([below, above, smooth(lo)]),
                             np.tile(lo, 3), np.tile(hi, 3), np.tile(tol, 3))
        np.testing.assert_array_equal(x, np.concatenate([lo, hi, lo]))
        # scalar brackets: f(x) = x^3 maps [-1, 2] onto [-1, 8]
        x = solve_increasing(lambda t: t ** 3, np.array([-5.0, 20.0, 1.0]),
                             -1.0, 2.0, EPS)
        assert x[0] == -1.0 and x[1] == 2.0
        assert abs(x[2] - 1.0) <= 2 * EPS

    @pytest.mark.parametrize("tol", [EPS, 1e-10])
    def test_hostile_function_stays_within_budget(self, tol):
        # flat but for the last 1% of [0, 1], where it climbs a billion-fold
        def f(x):
            return np.where(x < 0.99, 1e-9 * x, 1e-9 * x + (x - 0.99) * 10.0)

        target = f(np.linspace(0.0, 1.0, 41)[1:-1])
        counted = Counted(f)
        x = solve_increasing(counted, target, 0.0, 1.0, tol)
        assert len(counted.points) <= budget(0.0, 1.0, tol)
        assert np.max(np.abs(x - bisection(f, target, 0.0, 1.0))) <= tol

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="tol"):
            solve_increasing(smooth, np.zeros(3), 0.0, 1.0, 0.0)

    def test_kr_pass_2_solve_takes_at_most_12_evaluations(self):
        # pass 2 of the kr target at mesh 1/16 solves phi_0(x_0) = y_0 on
        # its 17 x 16 (band, knot) points; bisection took 60 map calls
        kr = get_target("kr")
        box = list(zip(kr.domain.lower, kr.domain.upper))
        values, _, _ = _pass_maps(kr, 0, box, 1 / 16, 1 / 16)
        box[0] = (values.min(), values.max())
        fn = Counted(kr.fn)
        _pass_maps(TargetMap(kr.name, fn, kr.domain), 1, box, 1 / 16, 1 / 16)
        assert len(fn.points[0]) == 17 * 16
        assert len(fn.points) - 1 <= 12     # the last call reads the values


class TestRK4:
    @pytest.mark.parametrize("duration,step", [(1.0, 1e-2), (0.37, 6e-3)])
    def test_linear_field_gives_exponential(self, duration, step):
        # v(x) = x with div v = 1: x(t) = x0 e^t and q(t) = t
        X0 = np.array([[1.0, -2.0], [0.5, 3.0]])
        X, q = rk4(lambda X: (X, np.ones(X.shape[0])), X0, np.zeros(2),
                   duration, step)
        np.testing.assert_allclose(X, X0 * np.exp(duration), rtol=1e-9)
        np.testing.assert_allclose(q, duration, rtol=0, atol=1e-12)

    def test_per_row_durations(self):
        # each row integrates v(x) = x for its own duration
        X0 = np.array([[1.0, -2.0], [0.5, 3.0], [2.0, 1.0]])
        duration = np.array([0.37, 1.0, 0.0])
        X, q = rk4(lambda X: (X, np.ones(X.shape[0])), X0, np.zeros(3),
                   duration, 6e-3)
        np.testing.assert_allclose(X, X0 * np.exp(duration)[:, None],
                                   rtol=1e-9)
        np.testing.assert_allclose(q, duration, rtol=0, atol=1e-12)
        one, _ = rk4(lambda X: (X, np.ones(X.shape[0])), X0[:1], np.zeros(1),
                     0.37, 6e-3)
        np.testing.assert_array_equal(X[0], one[0])

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan])
    def test_step_must_be_positive(self, step):
        with pytest.raises(ValueError, match="step must be positive"):
            rk4(lambda X: (X, np.ones(X.shape[0])), np.ones((2, 2)),
                np.zeros(2), 1.0, step)


class TestNeuronField:
    def test_per_row_neurons(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 3))
        w, a, b = rng.normal(size=(6, 3)), rng.normal(size=(6, 3)), \
            rng.normal(size=6)
        V, div = neuron_field(X, w, a, b)
        for i in range(6):
            Vi, di = neuron_field(X[i:i + 1], w[i], a[i], b[i])
            np.testing.assert_allclose(V[i], Vi[0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(div[i], di[0], rtol=1e-12, atol=0)
