import numpy as np
import pytest

from reluflow.compressible import slope_profile
from reluflow.targets import CATALOG, density_from_spec, get_target


class TestCatalog:
    def test_all_names_construct(self):
        for name in CATALOG:
            t = get_target(name)
            assert t.name == name
            X = np.array([[0.3, 0.4], [0.6, 0.7]])
            out = t.fn(X)
            assert out.shape == X.shape

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_target("moebius")

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(KeyError, match="catalog: " + ", ".join(CATALOG)):
            get_target("moebius")

    def test_affine_domain_follows_the_matrix(self):
        t = get_target("affine", {"matrix": np.diag([1.1, 0.9, 1.2]),
                                  "offset": [0.1, 0.0, -0.1]})
        assert t.domain.d == 3
        np.testing.assert_allclose(t.fn(np.ones((1, 3))), [[1.2, 0.9, 1.1]])
        assert get_target("affine").domain.d == 2

    @pytest.mark.parametrize("params,key", [
        ({"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}, '"matrix"'),
        ({"matrix": [1.0, 1.0]}, '"matrix"'),
        ({"offset": [0.0, 0.0, 0.0]}, '"offset"'),
        ({"matrix": np.eye(3)}, '"offset"'),
    ])
    def test_affine_shapes_checked(self, params, key):
        with pytest.raises(ValueError, match="affine target: " + key):
            get_target("affine", params)

    def test_affine_orientation_guard(self):
        with pytest.raises(ValueError):
            get_target("affine", {"matrix": [[-1.0, 0.0], [0.0, 1.0]]})


class TestInverses:
    @pytest.mark.parametrize("name", ["identity", "affine", "sine-shear",
                                      "radial-compress", "sine-radial",
                                      "profile1d"])
    def test_roundtrip_analytic(self, name, rng):
        t = get_target(name)
        span = t.domain.upper - t.domain.lower
        X = t.domain.lower + span * rng.uniform(0.05, 0.95, size=(40, 2))
        Y = t.fn(X)
        np.testing.assert_allclose(t.inverse(Y), X, atol=1e-9)

    def test_kr_roundtrip(self, rng):
        t = get_target("kr")
        X = rng.uniform(0.1, 0.9, size=(15, 2))
        np.testing.assert_allclose(t.inverse(t.fn(X)), X, atol=1e-4)


class TestLogdet:
    @pytest.mark.parametrize("name", CATALOG)
    def test_matches_central_differences(self, name, rng):
        t = get_target(name)
        span = t.domain.upper - t.domain.lower
        X = t.domain.lower + span * rng.uniform(0.05, 0.95, size=(40, 2))
        eps = 1e-4
        jac = np.stack([(t.fn(X + eps * e) - t.fn(X - eps * e)) / (2 * eps)
                        for e in np.eye(2)], axis=2)
        np.testing.assert_allclose(t.logdet(X),
                                   np.log(np.linalg.det(jac)), atol=1e-6)

    @pytest.mark.parametrize("name", CATALOG)
    def test_image_points_give_the_same_logdet(self, name, rng):
        t = get_target(name)
        span = t.domain.upper - t.domain.lower
        X = t.domain.lower + span * rng.uniform(size=(40, 2))
        np.testing.assert_allclose(t.logdet(X, t.fn(X)), t.logdet(X),
                                   rtol=0, atol=1e-12)


class TestSpecificMaps:
    def test_sine_shear_values(self):
        t = get_target("sine-shear")
        out = t.fn(np.array([[0.5, 0.2]]))
        np.testing.assert_allclose(out, [[0.5, 0.45]], atol=1e-12)

    def test_radial_compress_center_fixed(self):
        t = get_target("radial-compress")
        out = t.fn(np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-12)

    def test_radial_compress_moves_inward(self):
        t = get_target("radial-compress")
        x = np.array([[0.7, 0.5]])
        out = t.fn(x)
        assert 0.5 < out[0, 0] < 0.7

    def test_sine_radial_is_composition(self, rng):
        shear = get_target("sine-shear")
        radial = get_target("radial-compress")
        both = get_target("sine-radial")
        X = rng.uniform(0, 1, size=(25, 2))
        np.testing.assert_allclose(both.fn(X), shear.fn(radial.fn(X)),
                                   atol=1e-12)

    def test_profile1d_applies_profile_on_first_axis(self):
        prof = slope_profile([0.0, 0.5, 1.0], [0.5, 1.5], 0.0)
        t = get_target("profile1d", {"profile": prof, "d": 2})
        out = t.fn(np.array([[0.5, 0.3], [1.0, 0.8]]))
        np.testing.assert_allclose(out[:, 0], [0.25, 1.0], atol=1e-12)
        np.testing.assert_allclose(out[:, 1], [0.3, 0.8], atol=1e-12)

    def test_kr_pushforward_marginal_direction(self):
        # tilted density increases in x and y, so its medians sit above 1/2
        # and the uniform median must map upward in both coordinates
        t = get_target("kr")
        out = t.fn(np.array([[0.5, 0.5]]))
        assert out[0, 0] > 0.5
        assert out[0, 1] > 0.5


class TestDensitySpec:
    def test_catalog_normalized(self):
        for name in ("uniform", "tilted", "product", "bump"):
            rho = density_from_spec(name)
            assert rho.integral() == pytest.approx(1.0, abs=1e-9)

    def test_passthrough_and_values(self):
        rho = density_from_spec("uniform")
        assert density_from_spec(rho) is rho
        again = density_from_spec({"values": rho.values.tolist()})
        np.testing.assert_allclose(again.values, rho.values)

    def test_unknown(self):
        with pytest.raises(KeyError):
            density_from_spec("cauchy")
