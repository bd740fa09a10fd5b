import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from reluflow.kr import (
    _CHUNK_ROWS,
    GridDensity,
    KRMap,
    _SliceTable,
    conditional_cdf,
    displacement_field,
    marginal,
)
from reluflow.targets import get_target
from tests.conftest import bisection


def density_2x(n=512):
    # rho(x) = 2x, kept positive at the left node
    return GridDensity.from_function(
        lambda X: np.maximum(2 * X[:, 0], 1e-9), (n,))


class TestGridDensity:
    def test_uniform_normalized(self):
        rho = GridDensity.uniform((33, 33))
        assert rho.integral() == pytest.approx(1.0)
        rho.check_normalized()

    def test_positive_required(self):
        with pytest.raises(ValueError):
            GridDensity(np.array([1.0, 0.0, 1.0]))

    def test_from_function_normalizes(self):
        rho = GridDensity.from_function(lambda X: 1 + X[:, 0] * X[:, 1],
                                        (64, 64))
        assert rho.integral() == pytest.approx(1.0, abs=1e-12)


class TestInterpolant:
    """GridDensity.__call__ against the scipy interpolator it replaced."""

    @pytest.mark.parametrize("shape", [(17,), (9, 6), (5, 7, 4)])
    def test_matches_regular_grid_interpolator(self, rng, shape):
        rho = GridDensity(rng.uniform(0.2, 3.0, size=shape))
        d = len(shape)
        nodes = np.stack([rng.choice(n, 30) for n in rho.nodes], -1)
        faces = rng.uniform(size=(2 * d, d))
        for j in range(d):
            faces[2 * j, j], faces[2 * j + 1, j] = 0.0, 1.0
        corners = np.array(np.meshgrid(*[[0.0, 1.0]] * d)).reshape(d, -1).T
        outside = rng.uniform(size=(4 * d, d))
        for j in range(d):
            outside[4 * j:4 * j + 4, j] = [-1e-12, -0.3, 1 + 1e-12, 1.7]
        nan_rows = rng.uniform(-0.5, 1.5, size=(3 * d, d))
        for j in range(d):
            nan_rows[3 * j, j] = np.nan
            nan_rows[3 * j + 1] = np.nan
            nan_rows[3 * j + 2] = 2.0                  # NaN and outside
            nan_rows[3 * j + 2, j] = np.nan
        X = np.concatenate([rng.uniform(size=(200, d)), nodes, faces,
                            corners, outside, nan_rows])
        oracle = RegularGridInterpolator(rho.nodes, rho.values,
                                         bounds_error=False, fill_value=0.0)
        got = rho(X)
        assert got.shape == (len(X),)
        np.testing.assert_allclose(got, oracle(X), rtol=0, atol=1e-14)
        # infinite coordinates too (the oracle itself warns on them)
        far = np.concatenate([outside, np.full((2, d), 0.5)])
        far[-2:, 0] = [-np.inf, np.inf]
        np.testing.assert_array_equal(rho(far), np.zeros(len(far)))
        assert np.all(np.isnan(rho(nan_rows)))
        np.testing.assert_array_equal(rho(nodes), rho.values[tuple(
            np.rint(nodes * (np.array(shape) - 1)).astype(int).T)])

    def test_rejects_points_of_another_dimension(self):
        with pytest.raises(ValueError, match="shape"):
            GridDensity.uniform((5, 5))(np.zeros((4, 3)))


class TestMarginal:
    def test_uniform(self):
        rho = GridDensity.uniform((17, 17))
        m = marginal(rho, 1)
        np.testing.assert_allclose(m.values, 1.0)

    def test_product_density(self):
        f = GridDensity.from_function(lambda X: (1 + X[:, 0]) * (1 + X[:, 1]),
                                      (65, 65))
        m = f.values[0, :] / f.values[0, 0]  # profile along axis 1
        m1 = marginal(f, 1)
        # marginal of a product is proportional to the first factor
        ratio = m1.values / (1 + np.linspace(0, 1, 65))
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
        assert m[1] > 1.0  # sanity: second factor really varies

    def test_analytic_1pxy(self):
        rho = GridDensity.from_function(lambda X: 1 + X[:, 0] * X[:, 1],
                                        (256, 256))
        m1 = marginal(rho, 1)
        x = np.linspace(0, 1, 256)
        expected = (1 + x / 2) / 1.25   # int_0^1 (1+xy) dy = 1 + x/2; mass 5/4
        np.testing.assert_allclose(m1.values, expected, atol=1e-6)


class TestConditionalCdf:
    def test_uniform_identity(self):
        rho = GridDensity.uniform((33,))
        for t in (0.0, 0.25, 0.7, 1.0):
            assert conditional_cdf(rho, 1, t) == pytest.approx(t, abs=1e-12)

    def test_linear_density(self):
        rho = density_2x()
        for t in (0.2, 0.5, 0.9):
            assert conditional_cdf(rho, 1, t) == pytest.approx(t * t, abs=1e-5)

    def test_endpoints_exact(self):
        rho = GridDensity.from_function(lambda X: 1 + X[:, 0], (64,))
        assert conditional_cdf(rho, 1, 0.0) == 0.0
        assert conditional_cdf(rho, 1, 1.0) == 1.0

    def test_monotone_in_t(self):
        rho = GridDensity.from_function(
            lambda X: 1 + 0.5 * np.sin(3 * X[:, 0]), (128,))
        ts = np.linspace(0, 1, 50)
        vals = [conditional_cdf(rho, 1, t) for t in ts]
        assert np.all(np.diff(vals) > 0)

    def test_conditioning_2d(self):
        # rho(x, y) propto 1 + x y: conditional in y at x=1 is (1+y)/(3/2)
        rho = GridDensity.from_function(lambda X: 1 + X[:, 0] * X[:, 1],
                                        (128, 128))
        t = 0.5
        expected = (t + t * t / 2) / 1.5
        assert conditional_cdf(rho, 2, t, [1.0]) == pytest.approx(expected,
                                                                  abs=1e-4)


def cdfs_of_slices(dens, repeats):
    """Conditional CDFs whose points p * repeats ... (p + 1) * repeats - 1
    have the density slice dens[p]: each point's prefix is a node of the
    leading axis, where the blend takes one row with weight exactly 1."""
    table = _SliceTable(GridDensity(dens))
    return table, table.at(np.repeat(table.lead[0], repeats)[:, None])


def blended_rows(F, values):
    """Every entry of each point's slice of the table ``values``, as an
    (n, nodes) array formed by the CDFs' own blend."""
    return F.entry(values, np.arange(len(F.table.nodes))[:, None]).T


def counted_inverse(F, targets):
    """F.invert by the count of blended cumulative entries <= the mass,
    with the whole (n, nodes) blended rows formed: the reference for the
    bisection.  Also returns whether each row is non-decreasing."""
    nodes = F.table.nodes
    cum = blended_rows(F, F.table.cum)
    mass = targets * cum[:, -1]
    i = np.maximum(np.count_nonzero(cum <= mass[:, None], axis=1) - 1, 0)
    d0, slope = F._piece(i)
    r = mass - cum[np.arange(len(i)), i]
    f = 2.0 * r / (d0 + np.sqrt(np.maximum(d0 * d0 + 2.0 * slope * r, 0.0)))
    right = nodes[np.minimum(i + 1, len(nodes) - 1)]
    return (nodes[i] + np.clip(f, 0.0, right - nodes[i]),
            np.all(np.diff(cum, axis=1) >= 0, axis=1))


class TestClosedFormInverse:
    def slices(self, rng):
        n = 11
        dens = rng.uniform(0.2, 3.0, size=(6, n))
        dens[0, 3:6] = dens[0, 3]          # two flat pieces
        dens[1] = np.maximum(2 * np.linspace(0, 1, n), 1e-9)   # the 2x floor
        dens[2, :2] = 1e-9                 # a flat piece on the floor
        return dens

    @pytest.mark.parametrize("seed", [20260823, 3, 17, 101, 2026])
    def test_matches_bisection(self, seed):
        rng = np.random.default_rng(seed)
        dens = self.slices(rng)
        n_rows, n = dens.shape
        table, _ = cdfs_of_slices(dens, 1)
        knots = table.cum / table.cum[:, -1:]
        # per slice: 0, 1, every knot's CDF value, points just off the
        # first knots, and uniform targets
        u = np.concatenate([np.zeros((n_rows, 1)), np.ones((n_rows, 1)),
                            knots, knots[:, 1:3] * (1 + 1e-9),
                            rng.uniform(size=(n_rows, 40))], axis=1)
        _, F = cdfs_of_slices(dens, u.shape[1])
        u = u.ravel()
        t = F.invert(u)
        reference = bisection(F.eval, u, 0.0, 1.0)
        assert np.max(np.abs(t - reference)) <= 1e-10
        assert np.max(np.abs(F.eval(t) - u)) <= 1e-12

    @pytest.mark.parametrize("seed", [20260823, 3, 17])
    def test_bisection_equals_the_count(self, seed):
        rng = np.random.default_rng(seed)
        dens = self.slices(rng)
        n_rows, n = dens.shape
        table, _ = cdfs_of_slices(dens, 1)
        knots = table.cum / table.cum[:, -1:]
        u = np.concatenate([np.zeros((n_rows, 1)), np.ones((n_rows, 1)),
                            knots, np.nextafter(knots, -1),
                            np.nextafter(knots, 2),
                            np.full((n_rows, 1), -1e-13),
                            np.full((n_rows, 1), 1 + 1e-13),
                            rng.uniform(size=(n_rows, 40))], axis=1)
        _, F = cdfs_of_slices(dens, u.shape[1])
        expected, increasing = counted_inverse(F, u.ravel())
        assert increasing.all()
        np.testing.assert_array_equal(F.invert(u.ravel()), expected)

    def test_endpoints_and_knots_exact(self, rng):
        dens = self.slices(rng)
        n_rows, n = dens.shape
        table, F = cdfs_of_slices(dens, n)
        nodes = np.tile(table.nodes, n_rows)
        assert np.all(F.invert(np.zeros(len(nodes))) == 0.0)
        assert np.all(F.invert(np.ones(len(nodes))) == 1.0)
        # targets within invert's rounding allowance stay in [0, 1]
        assert np.all(F.invert(np.full(len(nodes), -1e-13)) == 0.0)
        assert np.all(F.invert(np.full(len(nodes), 1 + 1e-13)) == 1.0)
        assert np.all(F.eval(np.zeros(len(nodes))) == 0.0)
        assert np.all(F.eval(np.ones(len(nodes))) == 1.0)
        np.testing.assert_allclose(F.invert(F.eval(nodes)), nodes,
                                   rtol=0, atol=1e-12)

    def test_slices_are_the_given_rows(self, rng):
        dens = self.slices(rng)
        table, F = cdfs_of_slices(dens, 1)
        widths = np.diff(np.linspace(0, 1, dens.shape[1]))
        cum = np.cumsum(widths * (dens[:, :-1] + dens[:, 1:]) / 2, axis=1)
        rows = blended_rows(F, table.cum)
        np.testing.assert_array_equal(rows[:, 1:], cum)


class TestSliceTable:
    @pytest.mark.parametrize("k", [2, 3])
    def test_blend_matches_interpolator(self, rng, k):
        rho = GridDensity.from_function(
            lambda X: 1 + 0.5 * np.sin(3 * X[:, 0] + 2 * X[:, 1])
            + 0.3 * X[:, 2] * X[:, 0], (9, 7, 11))
        marg = marginal(rho, k)
        table = _SliceTable(marg)
        prefix = np.concatenate([
            rng.uniform(size=(40, k - 1)),
            # grid nodes, the corners among them
            np.stack([rng.choice(nodes, 20) for nodes in table.lead], -1),
            np.stack([nodes[[0, -1, 0, -1]] for nodes in table.lead], -1),
            # slightly outside: extrapolated from the boundary cell
            rng.uniform(-0.05, 1.05, size=(20, k - 1))])
        interp = RegularGridInterpolator(marg.nodes, marg.values,
                                         bounds_error=False, fill_value=None)
        t = table.nodes
        pts = np.concatenate([np.repeat(prefix, len(t), axis=0),
                              np.tile(t, len(prefix))[:, None]], axis=1)
        expected = interp(pts).reshape(len(prefix), len(t))
        F = table.at(prefix)
        blended = blended_rows(F, table.dens)
        np.testing.assert_allclose(blended, expected, rtol=1e-13)
        cum = np.cumsum(np.diff(t) * (expected[:, :-1] + expected[:, 1:]) / 2,
                        axis=1)
        rows = blended_rows(F, table.cum)
        np.testing.assert_allclose(rows[:, 1:], cum, rtol=1e-13)
        np.testing.assert_allclose(F.total, cum[:, -1], rtol=1e-13)

    @pytest.mark.parametrize("k", [2, 3])
    def test_bisection_equals_the_count(self, rng, k):
        # flat rows but for two pieces, light at the first node of the
        # leading axes and heavy at the second: a prefix left of 0 weighs
        # the heavy row by less than 0, and its blended row falls there
        values = np.ones((3,) * (k - 1) + (9,))
        values[(0,) * (k - 1) + (slice(2, 4),)] = 0.05
        values[(1,) * (k - 1) + (slice(2, 4),)] = 2.0
        table = _SliceTable(GridDensity(values))
        prefix = np.concatenate([
            np.stack([rng.choice(nodes, 20) for nodes in table.lead], -1),
            rng.uniform(size=(30, k - 1)),
            rng.uniform(-0.1, 1.1, size=(30, k - 1)),
            np.full((1, k - 1), -0.1)])
        u = np.concatenate([[0.0, 1.0, -1e-13, 1 + 1e-13],
                            rng.uniform(size=46)])
        F = table.at(np.repeat(prefix, len(u), axis=0))
        u = np.tile(u, len(prefix))
        # a falling row can give a zero or negative density in the root
        with np.errstate(divide="ignore", invalid="ignore"):
            expected, increasing = counted_inverse(F, u)
            t = F.invert(u)
        inside = np.repeat(np.all((prefix >= 0) & (prefix <= 1), axis=1),
                           len(u) // len(prefix))
        assert increasing[inside].all() and not increasing.all()
        np.testing.assert_array_equal(t[increasing], expected[increasing])
        # a falling row is no CDF: the bisection and the count may pick
        # different pieces there, and the bisection's result stays in [0, 1]
        assert np.all((t[~increasing] >= 0.0) & (t[~increasing] <= 1.0))


class TestKrMap:
    def test_identity(self, rng):
        rho = GridDensity.from_function(lambda X: 1 + 0.3 * X[:, 0], (128, 128))
        phi = KRMap(rho, rho)
        X = rng.uniform(0.05, 0.95, size=(30, 2))
        np.testing.assert_allclose(phi(X), X, atol=1e-6)

    def test_uniform_to_2x_is_sqrt(self):
        phi = KRMap(GridDensity.uniform((512,)), density_2x())
        assert phi(np.array([[0.25]]))[0, 0] == pytest.approx(0.5, abs=1e-5)
        x = np.linspace(0.05, 0.95, 19)[:, None]
        np.testing.assert_allclose(phi(x)[:, 0], np.sqrt(x[:, 0]), atol=1e-5)

    def test_triangularity(self, rng):
        rho1 = GridDensity.from_function(
            lambda X: 1 + 0.5 * X[:, 0] * X[:, 1], (64, 64))
        phi = KRMap(GridDensity.uniform((64, 64)), rho1)
        base = phi(np.array([0.4, 0.6])[None])[0]
        moved = phi(np.array([0.4, 0.9])[None])[0]
        assert moved[0] == pytest.approx(base[0], abs=1e-12)

    def test_monotone_in_xk(self):
        rho1 = GridDensity.from_function(
            lambda X: 1 + 0.5 * X[:, 0] * X[:, 1], (64, 64))
        phi = KRMap(GridDensity.uniform((64, 64)), rho1)
        ys = [phi(np.array([0.3, y])[None])[0][1]
              for y in np.linspace(0.05, 0.95, 12)]
        assert np.all(np.diff(ys) > 0)

    def test_pushforward_histogram(self, rng):
        rho1 = GridDensity.from_function(
            lambda X: (1 + X[:, 0]) * (0.5 + X[:, 1]), (64, 64))
        phi = KRMap(GridDensity.uniform((64, 64)), rho1)
        # stratified uniform cloud: still rho0 samples, far less histogram
        # noise than i.i.d. draws at 1e5 points
        n_strata = 316
        base = (np.arange(n_strata) + 0.0) / n_strata
        gx, gy = np.meshgrid(base, base, indexing="ij")
        X = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        X += rng.uniform(0, 1 / n_strata, size=X.shape)
        Y = phi(X)
        hist, _, _ = np.histogram2d(Y[:, 0], Y[:, 1], bins=32,
                                    range=[[0, 1], [0, 1]])
        emp = hist / hist.sum() * 32 * 32
        nodes = (np.arange(32) + 0.5) / 32
        Xc = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
        target = (1 + Xc[..., 0]) * (0.5 + Xc[..., 1])
        target /= target.mean()
        tv = np.mean(np.abs(emp - target))
        assert tv <= 0.05

    def test_inverse_consistency(self, rng):
        rho0 = GridDensity.uniform((64, 64))
        rho1 = GridDensity.from_function(
            lambda X: 1 + 0.4 * X[:, 0] + 0.2 * X[:, 1], (64, 64))
        fwd, back = KRMap(rho0, rho1), KRMap(rho1, rho0)
        X = rng.uniform(0.1, 0.9, size=(15, 2))
        np.testing.assert_allclose(back(fwd(X)), X, atol=1e-4)

    def test_round_trip_3d(self, rng):
        rho0 = GridDensity.from_function(
            lambda X: 1 + 0.5 * X[:, 0] * X[:, 2] + 0.3 * X[:, 1], (9, 7, 11))
        rho1 = GridDensity.from_function(
            lambda X: 1 + 0.8 * np.exp(-8 * np.sum((X - 0.5) ** 2, axis=1)),
            (9, 7, 11))
        fwd, back = KRMap(rho0, rho1), KRMap(rho1, rho0)
        X = np.concatenate([rng.uniform(size=(500, 3)),
                            rng.integers(0, 2, size=(8, 3)).astype(float)])
        Y = fwd(X)
        assert np.all((Y >= 0) & (Y <= 1))
        np.testing.assert_allclose(back(Y), X, rtol=0, atol=1e-12)

    def test_kr_target_fixes_the_boundary_exactly(self, rng):
        fn = get_target("kr").fn
        s = rng.uniform(size=50)
        for axis in (0, 1):
            for end in (0.0, 1.0):
                X = np.column_stack([s, s])
                X[:, axis] = end
                assert np.all(fn(X)[:, axis] == end)
        corners = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(fn(corners), corners)

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_points_of_another_width(self, width):
        with pytest.raises(ValueError, match=rf"\(2, {width}\)"):
            get_target("kr").fn(np.full((2, width), 0.5))

    def test_chunk_boundary_rows_match_single_rows(self, rng):
        rho1 = GridDensity.from_function(
            lambda X: 1 + 0.4 * X[:, 0] + 0.2 * X[:, 1], (65, 65))
        phi = KRMap(GridDensity.uniform((65, 65)), rho1)
        X = rng.uniform(0.0, 1.0, size=(2 * _CHUNK_ROWS + 7, 2))
        out = phi(X)
        for i in (0, _CHUNK_ROWS - 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS - 1,
                  2 * _CHUNK_ROWS, len(X) - 1):
            np.testing.assert_array_equal(out[i], phi(X[i:i + 1])[0])


class TestDisplacementField:
    def test_identity_zero(self, rng):
        rho = GridDensity.from_function(lambda X: 1 + 0.3 * X[:, 0], (64,))
        phi = KRMap(rho, rho)
        for t in (0.0, 0.5, 1.0):
            u = displacement_field(phi, t, [0.4])
            assert abs(u[0]) <= 1e-5

    def test_sqrt_at_t0(self):
        phi = KRMap(GridDensity.uniform((512,)), density_2x())
        u = displacement_field(phi, 0.0, [0.25])
        assert u[0] == pytest.approx(np.sqrt(0.25) - 0.25, abs=1e-5)

    def test_rk4_flow_reaches_target(self):
        phi = KRMap(GridDensity.uniform((512,)), density_2x())
        x = np.array([0.25])
        n_steps = 64
        dt = 1.0 / n_steps
        t = 0.0
        for _ in range(n_steps):
            k1 = displacement_field(phi, t, x)
            k2 = displacement_field(phi, t + dt / 2, x + dt / 2 * k1)
            k3 = displacement_field(phi, t + dt / 2, x + dt / 2 * k2)
            k4 = displacement_field(phi, min(t + dt, 1.0), x + dt * k3)
            x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        assert x[0] == pytest.approx(0.5, abs=1e-6)
