import itertools

import numpy as np
import pytest

from reluflow.mesh import (
    PiecewiseAffineMap,
    RectDomain,
    in_simplex,
    kuhn_triangulate,
    lagrange_interpolate,
    simplex_edges,
    simplex_volumes,
    validate_homeomorphism,
)

UNIT_SQUARE = RectDomain([0.0, 0.0], [1.0, 1.0])


def sine_shear(X):
    X = np.atleast_2d(X)
    return np.column_stack([X[:, 0], X[:, 1] + 0.25 * np.sin(np.pi * X[:, 0])])


class TestKuhnTriangulate:
    def test_unit_square_h1(self):
        tri = kuhn_triangulate(UNIT_SQUARE, 1.0)
        assert tri.n_simplices == 2

    def test_unit_cube_h_half(self):
        tri = kuhn_triangulate(RectDomain([0, 0, 0], [1, 1, 1]), 0.5)
        assert tri.n_simplices == 8 * 6

    def test_area_partition(self):
        tri = kuhn_triangulate(UNIT_SQUARE, 0.5)
        assert tri.n_simplices == 8
        total = simplex_volumes(tri.vertices[tri.simplices]).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_h_shrunk_to_divisor(self):
        tri = kuhn_triangulate(UNIT_SQUARE, 0.3)
        assert np.all(tri.cells == 4)  # 1/0.3 -> 4 cells of pitch 0.25
        assert np.allclose(tri.h, 0.25)

    def test_volume_partition_3d(self):
        tri = kuhn_triangulate(RectDomain([-1, 0, 2], [1, 1, 3]), 0.5)
        total = simplex_volumes(tri.vertices[tri.simplices]).sum()
        assert total == pytest.approx(tri.domain.volume, abs=1e-10)

    @pytest.mark.parametrize("domain", [
        pytest.param(UNIT_SQUARE, id="2d"),
        pytest.param(RectDomain([-1, 0, 2], [1, 1, 3]), id="3d"),
    ])
    def test_locate_matches_brute_force(self, rng, domain):
        tri = kuhn_triangulate(domain, 0.5)
        V = tri.vertices[tri.simplices]
        E_inv = np.linalg.inv(simplex_edges(V))
        X = domain.sample(rng, 200)
        found = tri.locate(X)
        for i, x in enumerate(X):
            hits = [j for j in range(tri.n_simplices)
                    if in_simplex(x[None], V[j], E_inv[j], tol=1e-12)[0]]
            assert found[i] in hits

    def test_face_continuity(self, rng):
        # adjacent affine pieces of an interpolant agree on shared faces
        tri = kuhn_triangulate(UNIT_SQUARE, 0.25)
        pa = lagrange_interpolate(sine_shear, tri)
        # evaluate at near-face points from both sides
        X = rng.uniform(0, 1, size=(500, 2))
        Y = pa.eval_points(X)
        Y2 = pa.eval_points(X + 1e-11)
        assert np.max(np.abs(Y - Y2)) <= 1e-9


class TestLagrangeInterpolate:
    def test_identity(self):
        tri = kuhn_triangulate(UNIT_SQUARE, 0.5)
        pa = lagrange_interpolate(lambda X: X, tri)
        for j in range(tri.n_simplices):
            np.testing.assert_allclose(pa.A[j], np.eye(2), atol=1e-12)
            np.testing.assert_allclose(pa.b[j], 0.0, atol=1e-12)

    def test_affine_reproduction(self, rng):
        M = np.array([[1.0, 0.3], [-0.2, 0.8]])
        c = np.array([0.1, -0.4])
        tri = kuhn_triangulate(UNIT_SQUARE, 0.25)
        pa = lagrange_interpolate(lambda X: X @ M.T + c, tri)
        for j in range(tri.n_simplices):
            np.testing.assert_allclose(pa.A[j], M, atol=1e-10)
            np.testing.assert_allclose(pa.b[j], c, atol=1e-10)

    def test_sine_shear_sup_error(self):
        tri = kuhn_triangulate(UNIT_SQUARE, 1.0 / 16)
        pa = lagrange_interpolate(sine_shear, tri)
        g = np.linspace(0, 1, 200)
        X = np.array(list(itertools.product(g, g)))
        err = np.max(np.abs(pa.eval_points(X) - sine_shear(X)))
        assert err <= 0.01

    def test_second_order_convergence(self):
        errors = []
        g = np.linspace(0, 1, 150)
        X = np.array(list(itertools.product(g, g)))
        for h in (1 / 4, 1 / 8, 1 / 16, 1 / 32):
            tri = kuhn_triangulate(UNIT_SQUARE, h)
            pa = lagrange_interpolate(sine_shear, tri)
            errors.append(np.max(np.abs(pa.eval_points(X) - sine_shear(X))))
        for e0, e1 in zip(errors, errors[1:]):
            assert 3.5 <= e0 / e1 <= 4.5

    def test_vertex_reproduction(self):
        tri = kuhn_triangulate(UNIT_SQUARE, 0.25)
        pa = lagrange_interpolate(sine_shear, tri)
        np.testing.assert_allclose(pa.eval_points(tri.vertices),
                                   sine_shear(tri.vertices), atol=1e-12)


class TestEvalPaMap:
    def test_barycenter_is_mean_of_vertex_images(self):
        tri = kuhn_triangulate(UNIT_SQUARE, 0.5)
        pa = lagrange_interpolate(sine_shear, tri)
        for j in range(tri.n_simplices):
            vertices = tri.vertices[tri.simplices[j]]
            bary = vertices.mean(axis=0)
            expected = sine_shear(vertices).mean(axis=0)
            np.testing.assert_allclose(pa.eval_points(bary[None])[0], expected,
                                       atol=1e-12)

    def test_outside_domain_raises(self):
        tri = kuhn_triangulate(UNIT_SQUARE, 0.5)
        pa = lagrange_interpolate(lambda X: X, tri)
        with pytest.raises(ValueError):
            pa.eval_points(np.array([2.0, 0.5])[None])


class TestValidateHomeomorphism:
    def test_identity_all_positive(self):
        tri = kuhn_triangulate(UNIT_SQUARE, 0.5)
        rep = validate_homeomorphism(lagrange_interpolate(lambda X: X, tri))
        assert rep.ok
        np.testing.assert_allclose(rep.dets, 1.0)

    def test_reflection_flagged(self):
        tri = kuhn_triangulate(UNIT_SQUARE, 0.5)
        rep = validate_homeomorphism(
            lagrange_interpolate(lambda X: X[:, ::-1], tri))
        assert rep.orientation_reversing
        assert not rep.mixed_signs
        np.testing.assert_allclose(rep.dets, -1.0)

    def test_fold_mixed_signs(self):
        tri = kuhn_triangulate(UNIT_SQUARE, 0.25)
        fold = lambda X: np.column_stack([np.abs(X[:, 0] - 0.5), X[:, 1]])
        rep = validate_homeomorphism(lagrange_interpolate(fold, tri))
        assert rep.mixed_signs
        assert not rep.ok
