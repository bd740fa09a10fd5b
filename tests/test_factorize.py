import numpy as np
import pytest

from reluflow.factorize import (
    check_factorization,
    polar_factorize,
)
from reluflow.mesh import (
    RectDomain,
    in_simplex,
    kuhn_triangulate,
    lagrange_interpolate,
    simplex_edges,
    simplex_volumes,
)
from reluflow.pipeline import FactorizationError

UNIT_SQUARE = RectDomain([0.0, 0.0], [1.0, 1.0])
UNIT_CUBE = RectDomain([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


def sine_shear(X):
    X = np.atleast_2d(X)
    return np.column_stack([X[:, 0], X[:, 1] + 0.25 * np.sin(np.pi * X[:, 0])])


def interpolant(f, h=0.5, domain=UNIT_SQUARE):
    return lagrange_interpolate(f, kuhn_triangulate(domain, h))


def affine_on_unit_cube():
    """An affine map interpolated on the unit cube at h = 0.5, and its
    factorization; half of the 48 cells need the det-sign label swap."""
    M = np.array([[1.1, 0.2, 0.0], [-0.1, 0.9, 0.3], [0.05, 0.0, 1.2]])
    c = np.array([0.05, -0.1, 0.2])
    pa = interpolant(lambda X: X @ M.T + c, h=0.5, domain=UNIT_CUBE)
    assert pa.triangulation.n_simplices == 48
    return pa, polar_factorize(pa)


class TestPolarFactorize:
    def test_identity_map(self):
        pa = interpolant(lambda X: X, h=1.0)
        f = polar_factorize(pa)
        np.testing.assert_allclose(f.lam, 1.0, atol=1e-12)
        # profile has slope 1 everywhere
        np.testing.assert_allclose(f.profile.slopes, 1.0, atol=1e-12)
        assert check_factorization(pa, f, 500) <= 1e-9

    def test_x1_scaling_lambda(self):
        pa = interpolant(lambda X: np.column_stack([2 * X[:, 0], X[:, 1]]), h=1.0)
        f = polar_factorize(pa)
        np.testing.assert_allclose(f.lam, 2.0, atol=1e-12)
        # psi'' = 2 on every tower interval
        for lo, hi in f.layout.intervals:
            mid = 0.5 * (lo + hi)
            dpsi = (f.profile(mid + 1e-7) - f.profile(mid - 1e-7)) / 2e-7
            assert dpsi == pytest.approx(2.0, rel=1e-5)

    def test_sine_shear_vertex_composition(self):
        tri = kuhn_triangulate(UNIT_SQUARE, 1.0)
        pa = lagrange_interpolate(sine_shear, tri)
        f = polar_factorize(pa)
        err = np.abs(f.eval_points(tri.vertices) - pa.eval_points(tri.vertices))
        assert err.max() <= 1e-9

    def test_mixed_orientation_rejected(self):
        fold = lambda X: np.column_stack([np.abs(X[:, 0] - 0.5), X[:, 1]])
        pa = interpolant(fold, h=0.25)
        with pytest.raises(FactorizationError):
            polar_factorize(pa)

    def test_measure_preserving_cells(self):
        pa = interpolant(sine_shear, h=0.25)
        f = polar_factorize(pa)
        for cm in (f.m1, f.m2):
            dets = np.linalg.det(cm.A)
            np.testing.assert_allclose(np.abs(dets), 1.0, atol=1e-10)
            np.testing.assert_allclose(dets, 1.0, atol=1e-10)  # det = +1

    def test_tower_disjoint(self):
        pa = interpolant(sine_shear, h=0.5)
        f = polar_factorize(pa)
        iv = f.layout.intervals
        # intervals consecutive and disjoint
        assert np.all(iv[:, 0] >= UNIT_SQUARE.upper[0] + 1.0)
        assert np.all(np.abs(iv[1:, 0] - iv[:-1, 1]) <= 1e-12)
        # tower volumes match source volumes
        tri = pa.triangulation
        np.testing.assert_allclose(simplex_volumes(f.m1.targets),
                                   simplex_volumes(tri.vertices[tri.simplices]),
                                   rtol=0, atol=1e-10)

    def test_volume_ledger(self):
        pa = interpolant(sine_shear, h=0.25)
        f = polar_factorize(pa)
        tri = pa.triangulation
        img = np.sum(np.abs(np.linalg.det(pa.A))
                     * simplex_volumes(tri.vertices[tri.simplices]))
        ghat = simplex_volumes(f.m2.sources).sum()
        assert ghat == pytest.approx(img, abs=1e-9)


class TestEvalCellMap:
    def test_identity_outside(self):
        pa = interpolant(sine_shear, h=0.5)
        f = polar_factorize(pa)
        x = np.array([-5.0, -5.0])
        np.testing.assert_array_equal(f.m1.eval_points(x[None])[0], x)

    def test_vertices_map_to_tower(self):
        # the affine part of cell j carries its simplex vertices onto the
        # tower simplex vertices (boundary points may route via a neighbor
        # when evaluated through the swap rule, so test the affine directly)
        pa = interpolant(sine_shear, h=1.0)
        f = polar_factorize(pa)
        tri = pa.triangulation
        tower = f.m1.targets
        tower_inv = np.linalg.inv(simplex_edges(tower))
        for j in range(tri.n_simplices):
            vertices = tri.vertices[tri.simplices[j]]
            img = vertices @ f.m1.A[j].T + f.m1.b[j]
            assert np.all(in_simplex(img, tower[j], tower_inv[j], tol=1e-9))
            # interior points route correctly through the swap rule too
            bary = vertices.mean(axis=0)
            img2 = f.m1.eval_points(bary[None], tol=1e-9)
            assert in_simplex(img2, tower[j], tower_inv[j], tol=1e-9)[0]

    def test_involution(self, rng):
        pa = interpolant(sine_shear, h=0.5)
        f = polar_factorize(pa)
        X = np.vstack([
            rng.uniform(0, 1, size=(500, 2)),
            rng.uniform(-3, 12, size=(500, 2)),
        ])
        Y = f.m1.eval_points(X, tol=1e-9)
        Z = f.m1.eval_points(Y, tol=1e-9)
        assert np.max(np.abs(Z - X)) <= 1e-10

    def test_involution_3d(self, rng):
        _, f = affine_on_unit_cube()
        X = np.vstack([
            rng.uniform(0, 1, size=(1000, 3)),
            rng.uniform(-3, 12, size=(1000, 3)),
        ])
        Y = f.m1.eval_points(X, tol=1e-9)
        Z = f.m1.eval_points(Y, tol=1e-9)
        assert np.max(np.abs(Z - X)) <= 1e-12


class TestCheckFactorization:
    def test_identity_zero_error(self):
        pa = interpolant(lambda X: X, h=0.5)
        f = polar_factorize(pa)
        assert check_factorization(pa, f, 1000) <= 1e-12

    def test_affine_map(self):
        M = np.array([[1.2, 0.1], [0.0, 0.9]])
        c = np.array([0.05, -0.1])
        pa = interpolant(lambda X: X @ M.T + c, h=1.0)
        f = polar_factorize(pa)
        assert check_factorization(pa, f, 1000) <= 1e-9

    def test_affine_map_3d(self):
        pa, f = affine_on_unit_cube()
        assert check_factorization(pa, f, 2000) <= 1e-12

    def test_sine_shear_interior(self):
        pa = interpolant(sine_shear, h=0.25)
        f = polar_factorize(pa)
        assert check_factorization(pa, f, 10000) <= 1e-8

    def test_barycenters(self):
        pa = interpolant(sine_shear, h=0.25)
        f = polar_factorize(pa)
        tri = pa.triangulation
        bary = tri.vertices[tri.simplices].mean(axis=1)
        err = np.abs(f.eval_points(bary) - pa.eval_points(bary))
        assert err.max() <= 1e-8
