import time

import numpy as np
import pytest

from reluflow.kr import GridDensity
from reluflow.mesh import RectDomain
from reluflow.pipeline import (
    FactorizationError,
    RealizeResult,
    map_errors,
    realize_target,
    uniform_density,
)
from reluflow.schedule import ControlSchedule, flow_points, invert_schedule
from reluflow.targets import TargetMap, get_target

UNIT_SQUARE = RectDomain([0.0, 0.0], [1.0, 1.0])


class TestSpecialCases:
    def test_identity_gives_empty_schedule(self):
        r = realize_target(get_target("identity"), resolution=32)
        assert len(r.schedule) == 0
        assert r.lp_error == 0.0
        assert r.tv_error <= 1e-9
        assert r.ok
        assert [s.name for s in r.stages] == ["pass-1", "pass-2"]

    def test_profile_target_is_exact(self):
        r = realize_target(get_target("profile1d"), resolution=64)
        assert r.lp_error <= 1e-9
        assert r.tv_error <= 1e-6
        assert r.stages[0].name == "profile"
        assert len(r.schedule) > 0

    @pytest.mark.parametrize("profile", [
        {"breakpoints": [0.0, 0.4, 1.0], "slopes": [0.5, 4.0 / 3.0],
         "beta0": 0.3},
        {"breakpoints": [0.0, 1.0], "slopes": [1.0], "beta0": 0.3}],
        ids=["two-piece", "translation"])
    def test_shifted_profile_tv_is_exact(self, profile):
        # the target's inverse extends affinely, so image points outside
        # phi(domain) pull back outside the domain and carry no mass
        r = realize_target(get_target("profile1d", {"profile": profile}),
                           resolution=64)
        assert r.lp_error <= 1e-9
        assert r.tv_error <= 1e-9
        assert r.ok

    def test_profile_schedule_matches_target_map(self, rng):
        t = get_target("profile1d")
        r = realize_target(t, resolution=32)
        X = rng.uniform(0.05, 0.95, size=(50, 2))
        out, _ = flow_points(X, r.schedule)
        np.testing.assert_allclose(out, t.fn(X), atol=1e-9)


class TestGenericPipeline:
    def test_sine_shear_stages(self):
        r = realize_target(get_target("sine-shear"), mesh_h=0.25,
                           resolution=32)
        names = [s.name for s in r.stages]
        assert names == ["pass-1", "pass-2"]
        assert np.isfinite(r.lp_error) and np.isfinite(r.tv_error)
        assert r.schedule.d in (None, 2)

    def test_report_dict_is_json_ready(self):
        import json
        r = realize_target(get_target("sine-shear"), mesh_h=0.25,
                           resolution=32)
        text = json.dumps(r.to_report(), sort_keys=True)
        assert "pass-1" in text

    @pytest.mark.parametrize("name", ["sine-radial", "profile1d"])
    def test_stage_wall_times_fit_in_the_call(self, name):
        start = time.perf_counter()
        r = realize_target(get_target(name), mesh_h=0.25, resolution=32)
        elapsed = time.perf_counter() - start
        walls = [s["wall_s"] for s in r.to_report()["stages"]]
        assert len(walls) == len(r.stages)
        assert all(np.isfinite(w) and w >= 0 for w in walls)
        assert sum(walls) <= elapsed

    def test_orientation_reversing_target_rejected(self):
        flip = TargetMap("flip", lambda X: np.atleast_2d(X)[:, ::-1],
                         UNIT_SQUARE)
        with pytest.raises(FactorizationError):
            realize_target(flip, mesh_h=0.5)

    @pytest.mark.parametrize("name,fn", [
        # a quarter turn: x_1 -> phi_1(x) is constant along every row
        ("rotation-90", lambda X: np.column_stack(
            [1.0 - np.atleast_2d(X)[:, 1], np.atleast_2d(X)[:, 0]])),
        # rows increase, but every column map decreases
        ("mirror", lambda X: np.column_stack(
            [np.atleast_2d(X)[:, 0], 1.0 - np.atleast_2d(X)[:, 1]])),
    ])
    def test_non_monotone_band_maps_rejected(self, name, fn):
        with pytest.raises(FactorizationError, match="strictly increasing"):
            realize_target(TargetMap(name, fn, UNIT_SQUARE), mesh_h=0.25)

    def test_switch_counts_reported_per_stage(self):
        r = realize_target(get_target("sine-shear"), mesh_h=0.25,
                           resolution=32)
        total = sum(s.n_segments for s in r.stages)
        assert total == len(r.schedule)


class TestThreeDimensions:
    def test_kr_target_in_three_passes(self):
        # uniform -> 1 + 0.4x + 0.2y + 0.3z on a 17^3 grid: one band-tower
        # pass per axis, at criterion 5's gates
        shape = (17, 17, 17)
        rho1 = GridDensity.from_function(
            lambda X: 1 + 0.4 * X[:, 0] + 0.2 * X[:, 1] + 0.3 * X[:, 2],
            shape)
        t = get_target("kr", {"rho0": GridDensity.uniform(shape),
                              "rho1": rho1})
        r = realize_target(t, mesh_h=0.25, resolution=16)
        assert r.lp_error <= 0.1 and r.tv_error <= 0.2
        assert [s.detail["axis"] for s in r.stages] == [0, 1, 2]
        assert sum(s.n_segments for s in r.stages) == len(r.schedule)
        X = np.random.default_rng(3).uniform(size=(2000, 3))
        Y, _ = flow_points(X, r.schedule)
        Z, _ = flow_points(Y, invert_schedule(r.schedule))
        assert np.abs(Z - X).max() <= 1e-8


class TestMapErrors:
    def test_identity_zero(self):
        t = get_target("identity")
        lp, tv = map_errors(t, ControlSchedule(), 2.0, 32)
        assert lp == 0.0
        assert tv <= 1e-9

    def test_lp_matches_norm_of_target_for_empty_schedule(self):
        # empty schedule realizes the identity, so the L^2 error equals
        # ||phi - id||_{L^2}; for the sine shear that is 0.25/sqrt(2)
        t = get_target("sine-shear")
        lp, _ = map_errors(t, ControlSchedule(), 2.0, 256)
        assert lp == pytest.approx(0.25 / np.sqrt(2), rel=0.01)

    def test_uniform_density_normalized(self, rng):
        rho = uniform_density(UNIT_SQUARE)
        X = rng.uniform(0, 1, size=(1000, 2))
        np.testing.assert_allclose(rho(X), 1.0)
        assert rho(np.array([[2.0, 0.5]]))[0] == 0.0


class TestRandomPointError:
    @pytest.mark.parametrize("name,mesh_h", [("sine-shear", 0.125),
                                             ("sine-radial", 0.0625)])
    def test_l2_on_random_points(self, name, mesh_h):
        # uniform random points also land in the thin strips (shear ramps,
        # gaps between cube cores) that the quadrature midpoints of
        # map_errors can miss, so mass scattered from there cannot hide
        t = get_target(name)
        r = realize_target(t, mesh_h=mesh_h, resolution=16)
        rng = np.random.default_rng(2026)
        X = t.domain.sample(rng, 100_000)
        out, _ = flow_points(X, r.schedule)
        sq = np.sum((out - t.fn(X)) ** 2, axis=1)
        l2 = float(np.sqrt(np.mean(sq) * t.domain.volume))
        assert l2 <= 0.1
