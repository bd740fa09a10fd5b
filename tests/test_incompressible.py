import itertools

import numpy as np
import pytest

from reluflow.incompressible import (
    CubeGrid,
    Permutation,
    mp_realize,
    mp_to_permutation,
    permutation_schedule,
    swap_schedule,
)
from reluflow.schedule import flow_points, flow_segments

GRID2 = CubeGrid(L=1.0, h=0.5, delta=0.125, d=2)   # 4x4 on [-1,1]^2


def rotation90(X):
    X = np.atleast_2d(X)
    return np.column_stack([-X[:, 1], X[:, 0]])


def periodic_translation(grid, axis=0):
    def m(X):
        X = np.atleast_2d(X).copy()
        X[:, axis] += grid.h
        # wrap the last column back to the first
        X[:, axis] = ((X[:, axis] + grid.L) % (2 * grid.L)) - grid.L
        return X
    return m


class TestCubeGrid:
    def test_counts_and_corners(self):
        assert GRID2.n == 4
        assert GRID2.n_cubes == 16
        np.testing.assert_allclose(GRID2.corner([0, 0]), [-1.0, -1.0])
        np.testing.assert_allclose(GRID2.corner([3, 1]), [0.5, -0.5])

    def test_flat_roundtrip(self):
        for idx in GRID2.all_indices():
            assert np.array_equal(GRID2.unflat(GRID2.flat(idx)), idx)

    def test_locate_core(self, rng):
        for idx in GRID2.all_indices():
            pts = GRID2.sample_core(idx, rng, 20)
            assert np.all(GRID2.locate_core(pts) == GRID2.flat(idx))
        # gap points are in no core
        gap = GRID2.corner([1, 1]) + [GRID2.h - GRID2.delta / 2, 0.1]
        assert GRID2.locate_core(gap[None])[0] == -1

    def test_invalid_pitch(self):
        with pytest.raises(ValueError):
            CubeGrid(L=1.0, h=0.3, delta=0.05, d=2)


class TestMpToPermutation:
    def test_identity(self):
        sigma, bad = mp_to_permutation(lambda X: X, GRID2)
        assert sigma.is_identity()
        assert bad == []

    def test_periodic_translation(self):
        sigma, bad = mp_to_permutation(periodic_translation(GRID2), GRID2)
        assert bad == []
        for idx in GRID2.all_indices():
            tgt = idx.copy()
            tgt[0] = (tgt[0] + 1) % GRID2.n
            assert sigma(GRID2.flat(idx)) == GRID2.flat(tgt)

    def test_rotation_good(self):
        grid = CubeGrid(L=1.0, h=0.5, delta=0.05, d=2)
        sigma, bad = mp_to_permutation(rotation90, grid)
        assert bad == []
        # the core of the cube with corner (0.5, 0.0) has center
        # (0.725, 0.225); its rotation (-0.225, 0.725) lies in the cube
        # with corner (-0.5, 0.5)
        i = grid.flat([3, 2])
        assert sigma(i) == grid.flat([1, 3])

    def test_generic_map_all_bad(self):
        # a nonlinear volume-preserving shear tears every core stencil
        shear = lambda X: np.column_stack(
            [X[:, 0], X[:, 1] + 0.3 * np.sin(2.1 * X[:, 0])])
        sigma, bad = mp_to_permutation(shear, GRID2)
        assert len(bad) == GRID2.n_cubes
        assert sigma.is_identity()  # lex matching of bad sources to targets


class TestPermutationSchedule:
    @pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 5)])
    def test_every_core_lands_on_its_target(self, d, n, rng):
        grid = CubeGrid(L=n / 4, h=0.5, delta=0.1, d=d)
        assert grid.n == n
        cubes = grid.all_indices()
        for _ in range(20):
            sigma = Permutation(rng.permutation(grid.n_cubes))
            sched = permutation_schedule(sigma, grid)
            X = np.vstack([grid.sample_core(idx, rng, 4) for idx in cubes])
            shift = np.repeat((cubes[sigma.sigma] - cubes) * grid.h, 4, axis=0)
            for flow in (flow_points, flow_segments):
                out, ld = flow(X, sched)
                assert np.max(np.abs(out - (X + shift))) <= 1e-9
                assert np.all(ld == 0.0)

    def test_long_shear_runs_land_every_core(self, rng):
        # 32 x 32 cubes, 4,220 segments: the fused shear runs sum thousands
        # of ramps, so they must not cancel large products
        grid = CubeGrid(L=8.0, h=0.5, delta=0.1, d=2)
        assert grid.n == 32
        cubes = grid.all_indices()
        sigma = Permutation(rng.permutation(grid.n_cubes))
        sched = permutation_schedule(sigma, grid)
        X = np.vstack([grid.sample_core(idx, rng, 2) for idx in cubes])
        shift = np.repeat((cubes[sigma.sigma] - cubes) * grid.h, 2, axis=0)
        out, ld = flow_points(X, sched)
        assert np.max(np.abs(out - (X + shift))) <= 1e-9
        assert np.all(ld == 0.0)

    def test_identity_is_empty(self):
        sigma = Permutation(np.arange(GRID2.n_cubes))
        assert len(permutation_schedule(sigma, GRID2)) == 0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            permutation_schedule(Permutation(np.arange(9)), GRID2)


class TestSwapSchedule:
    @pytest.mark.parametrize("i,j", [
        ([1, 1], [2, 1]),   # axis-0 adjacency
        ([1, 1], [1, 2]),   # axis-1 adjacency
        ([0, 0], [1, 0]),   # corner pair
        ([3, 3], [3, 2]),   # reversed order
    ])
    def test_exact_exchange(self, i, j, rng):
        grid = GRID2
        sched = swap_schedule(i, j, grid)
        shift = (np.asarray(j) - np.asarray(i)) * grid.h
        Xi = grid.sample_core(i, rng, 50)
        Xj = grid.sample_core(j, rng, 50)
        out_i, ld_i = flow_points(Xi, sched)
        out_j, ld_j = flow_points(Xj, sched)
        assert np.max(np.abs(out_i - (Xi + shift))) <= 1e-9
        assert np.max(np.abs(out_j - (Xj - shift))) <= 1e-9
        assert np.all(ld_i == 0.0) and np.all(ld_j == 0.0)

    def test_all_other_cores_fixed(self, rng):
        grid = GRID2
        sched = swap_schedule([1, 2], [2, 2], grid)
        for idx in grid.all_indices():
            if tuple(idx) in ((1, 2), (2, 2)):
                continue
            X = grid.sample_core(idx, rng, 20)
            out, ld = flow_points(X, sched)
            assert np.max(np.abs(out - X)) <= 1e-9
            assert np.all(ld == 0.0)

    def test_every_adjacent_pair(self, rng):
        grid = GRID2
        for idx in grid.all_indices():
            for ax in range(2):
                j = idx.copy()
                j[ax] += 1
                if j[ax] >= grid.n:
                    continue
                sched = swap_schedule(idx, j, grid)
                Xi = grid.sample_core(idx, rng, 10)
                out, ld = flow_points(Xi, sched)
                shift = (j - idx) * grid.h
                assert np.max(np.abs(out - (Xi + shift))) <= 1e-9
                assert np.all(ld == 0.0)

    def test_three_dimensional_swap(self, rng):
        grid = CubeGrid(L=0.75, h=0.5, delta=0.1, d=3)
        i, j = np.array([1, 0, 2]), np.array([1, 1, 2])
        sched = swap_schedule(i, j, grid)
        shift = (j - i) * grid.h
        Xi = grid.sample_core(i, rng, 20)
        out, ld = flow_points(Xi, sched)
        assert np.max(np.abs(out - (Xi + shift))) <= 1e-9
        assert np.all(ld == 0.0)
        for idx in grid.all_indices():
            if tuple(idx) in (tuple(i), tuple(j)):
                continue
            X = grid.sample_core(idx, rng, 5)
            out, ld = flow_points(X, sched)
            assert np.max(np.abs(out - X)) <= 1e-9, tuple(idx)
            assert np.all(ld == 0.0)

    def test_non_adjacent_rejected(self):
        with pytest.raises(ValueError):
            swap_schedule([0, 0], [2, 0], GRID2)
        with pytest.raises(ValueError):
            swap_schedule([0, 0], [1, 1], GRID2)


class TestMpRealize:
    def test_identity(self):
        sched, report = mp_realize(lambda X: X, GRID2)
        assert len(sched) == 0
        assert report.residual <= 1e-12
        assert report.n_good == GRID2.n_cubes

    def test_periodic_translation_exact_on_cores(self):
        m = periodic_translation(GRID2)
        sched, report = mp_realize(m, GRID2, samples_per_core=10)
        assert report.n_bad == 0
        assert report.residual <= 1e-6

    def test_rotation_exact_on_cores(self, rng):
        grid = CubeGrid(L=1.0, h=0.5, delta=0.05, d=2)
        sched, report = mp_realize(rotation90, grid, samples_per_core=5)
        assert report.n_bad == 0
        # the rotated core sits in the matching cube but offset from its
        # core, so the residual is bounded by the core diameter, not zero
        assert report.residual > 0
        sigma, _ = mp_to_permutation(rotation90, grid)
        # flow carries each core into the target cube of sigma
        for idx in grid.all_indices():
            X = grid.sample_core(idx, rng, 10, margin=grid.delta)
            out, _ = flow_points(X, sched)
            cube = np.floor((out + grid.L) / grid.h + 1e-9).astype(int)
            flat = np.ravel_multi_index(cube.T, (grid.n,) * grid.d)
            assert np.all(flat == sigma(grid.flat(idx)))


class TestActiveRegion:
    def test_matches_full_classification(self):
        # a map supported in the left half-plane, identity elsewhere: the
        # permutation from box-restricted classification matches the full one
        def m(X):
            X = np.atleast_2d(X).copy()
            left = X[:, 0] <= -0.55
            X[left, 1] = -X[left, 1] - GRID2.delta
            return X

        full, bad_full = mp_to_permutation(m, GRID2)
        boxes = [(np.array([-1.0, -1.0]), np.array([-0.5, 1.0]))]
        fast, bad_fast = mp_to_permutation(m, GRID2, active=boxes)
        np.testing.assert_array_equal(full.sigma, fast.sigma)
        assert bad_full == bad_fast

    def test_inactive_cubes_never_evaluated(self):
        calls = []

        def m(X):
            X = np.atleast_2d(X)
            calls.append(len(X))
            return X

        boxes = [(np.array([-1.0, -1.0]), np.array([-0.5, 0.0]))]
        sigma, bad = mp_to_permutation(m, GRID2, active=boxes)
        assert sigma.is_identity() and not bad
        # only the cubes touching the box get stencil evaluations
        assert sum(calls) < 9 * GRID2.n_cubes

    def test_escape_from_active_region_rejected(self):
        # a translation pushing cores out of the active box must conflict
        # with the cubes held fixed outside it
        def m(X):
            X = np.atleast_2d(X).copy()
            X[:, 0] += GRID2.h
            return X

        boxes = [(np.array([-1.0, -1.0]), np.array([-0.5, 1.0]))]
        with pytest.raises(Exception):
            mp_to_permutation(m, GRID2, active=boxes)

    def test_residual_normalised_over_sampled_cores(self):
        # an empty schedule against a small shift on [-2, -1]^2: the active
        # box only restricts the sampled cores, not the residual's scale
        grid = CubeGrid(L=2.0, h=0.5, delta=0.1, d=2)

        def m(X):
            X = np.atleast_2d(X).copy()
            box = np.all(X <= -1.0, axis=1)
            X[box, 1] += 0.01
            return X

        boxes = [(np.array([-2.0, -2.0]), np.array([-1.0, -1.0]))]
        sched, full = mp_realize(m, grid)
        sched_box, boxed = mp_realize(m, grid, active=boxes)
        assert len(sched) == len(sched_box) == 0
        assert full.residual == pytest.approx(0.008, rel=1e-9)
        assert boxed.residual == pytest.approx(full.residual, abs=1e-12)

    def test_counts_only_classified_cubes(self):
        # the [-2, -1]^2 box touches 3 x 3 of the 8 x 8 cubes: only those
        # are classified, so only those can be reported good
        grid = CubeGrid(L=2.0, h=0.5, delta=0.1, d=2)
        boxes = [(np.array([-2.0, -2.0]), np.array([-1.0, -1.0]))]
        _, report = mp_realize(lambda X: X, grid, active=boxes)
        assert report.n_good == 9 and report.n_bad == 0

    def test_realize_with_active_region(self, rng):
        m = periodic_translation(GRID2)
        boxes = [(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))]
        sched, report = mp_realize(m, GRID2, samples_per_core=10, active=boxes)
        assert report.n_bad == 0
        assert report.residual <= 1e-6
