import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from reluflow.kr import (
    _CHUNK_ROWS,
    GridDensity,
    _SliceTable,
    conditional_cdf,
    displacement_field,
    kr_map,
    marginal,
)
from reluflow.numerics import bisect_increasing
from reluflow.targets import get_target


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


class TestClosedFormInverse:
    def slices(self, rng):
        n = 11
        dens = rng.uniform(0.2, 3.0, size=(6, n))
        dens[0, 3:6] = dens[0, 3]          # two flat pieces
        dens[1] = np.maximum(2 * np.linspace(0, 1, n), 1e-9)   # the 2x floor
        dens[2, :2] = 1e-9                 # a flat piece on the floor
        return dens

    def test_matches_bisection(self, rng):
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
        reference = bisect_increasing(F.eval, u, 0.0, 1.0, 40)
        assert np.max(np.abs(t - reference)) <= 1e-10
        assert np.max(np.abs(F.eval(t) - u)) <= 1e-12

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
        _, F = cdfs_of_slices(dens, 1)
        widths = np.diff(np.linspace(0, 1, dens.shape[1]))
        cum = np.cumsum(widths * (dens[:, :-1] + dens[:, 1:]) / 2, axis=1)
        np.testing.assert_array_equal(F._cum_rows[:, 1:], cum)


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
        blended = np.einsum("pc,pcm->pm", F.weights, table.dens[F.rows])
        np.testing.assert_allclose(blended, expected, rtol=1e-13)
        cum = np.cumsum(np.diff(t) * (expected[:, :-1] + expected[:, 1:]) / 2,
                        axis=1)
        np.testing.assert_allclose(F._cum_rows[:, 1:], cum, rtol=1e-13)
        np.testing.assert_allclose(F.total, cum[:, -1], rtol=1e-13)


class TestKrMap:
    def test_identity(self, rng):
        rho = GridDensity.from_function(lambda X: 1 + 0.3 * X[:, 0], (128, 128))
        phi = kr_map(rho, rho)
        X = rng.uniform(0.05, 0.95, size=(30, 2))
        np.testing.assert_allclose(phi(X), X, atol=1e-6)

    def test_uniform_to_2x_is_sqrt(self):
        phi = kr_map(GridDensity.uniform((512,)), density_2x())
        assert phi(np.array([[0.25]]))[0, 0] == pytest.approx(0.5, abs=1e-5)
        x = np.linspace(0.05, 0.95, 19)[:, None]
        np.testing.assert_allclose(phi(x)[:, 0], np.sqrt(x[:, 0]), atol=1e-5)

    def test_triangularity(self, rng):
        rho1 = GridDensity.from_function(
            lambda X: 1 + 0.5 * X[:, 0] * X[:, 1], (64, 64))
        phi = kr_map(GridDensity.uniform((64, 64)), rho1)
        x = np.array([0.4, 0.6])
        base = phi.eval_point(x)
        moved = phi.eval_point([0.4, 0.9])
        assert moved[0] == pytest.approx(base[0], abs=1e-12)

    def test_monotone_in_xk(self):
        rho1 = GridDensity.from_function(
            lambda X: 1 + 0.5 * X[:, 0] * X[:, 1], (64, 64))
        phi = kr_map(GridDensity.uniform((64, 64)), rho1)
        ys = [phi.eval_point([0.3, y])[1] for y in np.linspace(0.05, 0.95, 12)]
        assert np.all(np.diff(ys) > 0)

    def test_pushforward_histogram(self, rng):
        rho1 = GridDensity.from_function(
            lambda X: (1 + X[:, 0]) * (0.5 + X[:, 1]), (64, 64))
        phi = kr_map(GridDensity.uniform((64, 64)), rho1)
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
        fwd, back = kr_map(rho0, rho1), kr_map(rho1, rho0)
        X = rng.uniform(0.1, 0.9, size=(15, 2))
        np.testing.assert_allclose(back(fwd(X)), X, atol=1e-4)

    def test_round_trip_3d(self, rng):
        rho0 = GridDensity.from_function(
            lambda X: 1 + 0.5 * X[:, 0] * X[:, 2] + 0.3 * X[:, 1], (9, 7, 11))
        rho1 = GridDensity.from_function(
            lambda X: 1 + 0.8 * np.exp(-8 * np.sum((X - 0.5) ** 2, axis=1)),
            (9, 7, 11))
        fwd, back = kr_map(rho0, rho1), kr_map(rho1, rho0)
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

    def test_chunk_boundary_rows_match_single_rows(self, rng):
        rho1 = GridDensity.from_function(
            lambda X: 1 + 0.4 * X[:, 0] + 0.2 * X[:, 1], (65, 65))
        phi = kr_map(GridDensity.uniform((65, 65)), rho1)
        X = rng.uniform(0.0, 1.0, size=(2 * _CHUNK_ROWS + 7, 2))
        out = phi(X)
        for i in (0, _CHUNK_ROWS - 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS - 1,
                  2 * _CHUNK_ROWS, len(X) - 1):
            np.testing.assert_array_equal(out[i], phi(X[i:i + 1])[0])


class TestDisplacementField:
    def test_identity_zero(self, rng):
        rho = GridDensity.from_function(lambda X: 1 + 0.3 * X[:, 0], (64,))
        phi = kr_map(rho, rho)
        for t in (0.0, 0.5, 1.0):
            u = displacement_field(phi, t, [0.4])
            assert abs(u[0]) <= 1e-5

    def test_sqrt_at_t0(self):
        phi = kr_map(GridDensity.uniform((512,)), density_2x())
        u = displacement_field(phi, 0.0, [0.25])
        assert u[0] == pytest.approx(np.sqrt(0.25) - 0.25, abs=1e-5)

    def test_rk4_flow_reaches_target(self):
        phi = kr_map(GridDensity.uniform((512,)), density_2x())
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
