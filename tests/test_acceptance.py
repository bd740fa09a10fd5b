"""Acceptance gates: one pass/fail per release criterion.

Each test pins the documented tolerance; none of them may be loosened.
A failing test here is a faithful measurement, not a broken test.
"""

import itertools
import time

import numpy as np
import pytest

from reluflow.compressible import (
    profile_logdet,
    profile_schedule,
    slope_profile,
)
from reluflow.factorize import polar_factorize
from reluflow.gadgets import shear_for_region
from reluflow.incompressible import CubeGrid, swap_schedule
from reluflow.kr import GridDensity, KRMap
from reluflow.maurey import (
    builtin_mixture,
    eval_mixture,
    rate_fit,
    reference_flow,
    run_errors,
    sample_schedule,
)
from reluflow.mesh import kuhn_triangulate, lagrange_interpolate
from reluflow.numerics import neuron_field, rk4
from reluflow.metrics import (
    contraction_check,
    oscillation_counterexample,
    pushforward_density,
    tv_distance,
)
from reluflow.pipeline import realize_target
from reluflow.schedule import flow_points
from reluflow.targets import CATALOG, get_target
from tests.conftest import schedule_of


def _random_schedule(rng, d, n_segments=3):
    rows = []
    for _ in range(n_segments):
        w, a = rng.normal(size=d), rng.normal(size=d)
        rows.append((w, a, float(rng.uniform(-1, 1)),
                     float(rng.uniform(0.1, 0.4))))
    return schedule_of(*rows)


def test_criterion_1_closed_form_flow_matches_rk4():
    # 1020 random (schedule, point) pairs across d in {1,2,3}; closed-form
    # flow within 1e-5 of an RK4 oracle at step 1e-4, positions and logdet.
    # The oracle integrates the 17 schedules of one dimension at once: in
    # segment j, the 20 rows of schedule i see its neuron and duration j.
    rng = np.random.default_rng(101)
    worst_x, worst_q = 0.0, 0.0
    for d in (1, 2, 3):
        cases = []
        for _ in range(17):
            sched = _random_schedule(rng, d)
            cases.append((sched, rng.uniform(-1, 1, size=(20, d))))
        exact = [flow_points(X, sched) for sched, X in cases]
        exact_x = np.vstack([x for x, _ in exact])
        exact_q = np.concatenate([q for _, q in exact])
        ref_x = np.vstack([X for _, X in cases])
        ref_q = np.zeros(len(ref_x))
        for j in range(len(cases[0][0])):
            w, a, b, duration = (
                np.repeat(np.array([getattr(sched, name)[j]
                                    for sched, _ in cases]), 20, axis=0)
                for name in ("w", "a", "b", "duration"))
            ref_x, ref_q = rk4(lambda Y: neuron_field(Y, w, a, b), ref_x,
                               ref_q, duration, 1e-4)
        worst_x = max(worst_x, float(np.abs(exact_x - ref_x).max()))
        worst_q = max(worst_q, float(np.abs(exact_q - ref_q).max()))
    assert worst_x <= 1e-5, f"position error {worst_x}"
    assert worst_q <= 1e-5, f"logdet error {worst_q}"


def test_criterion_2_profile_schedules_are_exact():
    # 100 random monotone profiles (up to 20 pieces): realized flow within
    # 1e-9 of the profile, tracked logdet within 1e-9 of log slope
    rng = np.random.default_rng(202)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        start = float(rng.uniform(-1.0, 0.0))
        widths = rng.uniform(0.05, 1.0, size=n)
        breaks = start + np.concatenate([[0.0], np.cumsum(widths)])
        slopes = rng.uniform(1.0 / 8.0, 8.0, size=n)
        beta0 = float(rng.uniform(-0.5, 0.5))
        p = slope_profile(breaks, slopes, beta0)
        sched = profile_schedule(p)
        x = rng.uniform(breaks[0], breaks[-1], size=10_000)
        # keep logdet comparisons away from the (measure-zero) breakpoints
        x = x[np.min(np.abs(x[:, None] - breaks[None, :]), axis=1) > 1e-6]
        out, q = flow_points(x[:, None], sched)
        assert np.abs(out[:, 0] - p(x)).max() <= 1e-9
        assert np.abs(q - profile_logdet(p, x)).max() <= 1e-9


def test_criterion_3_swap_flows_exchange_cores():
    # 4x4 grid on [-1,1]^2: every adjacent pair swaps its cores (samples
    # land with margin delta/4), fixes every other core setwise, and the
    # tracked logdet is exactly zero
    grid = CubeGrid(L=1.0, h=0.5, delta=0.125, d=2)
    rng = np.random.default_rng(303)
    margin = grid.delta / 4.0
    pairs = [(i, j) for i, j in
             itertools.combinations(map(tuple, grid.all_indices()), 2)
             if sorted(abs(a - b) for a, b in zip(i, j)) == [0, 1]]
    assert len(pairs) == 24
    for i, j in pairs:
        sched = swap_schedule(np.array(i), np.array(j), grid)
        for src, dst in ((i, j), (j, i)):
            X = grid.sample_core(src, rng, 50, margin=margin)
            out, q = flow_points(X, sched)
            assert grid.core_contains(dst, out, margin=margin).all()
            assert np.all(q == 0.0)
        for other in map(tuple, grid.all_indices()):
            if other in (i, j):
                continue
            X = grid.sample_core(other, rng, 10)
            out, q = flow_points(X, sched)
            assert grid.core_contains(other, out).all()
            assert np.all(q == 0.0)


def test_criterion_4_factorization_reproduces_interpolant():
    # compose the two cell maps around the profile: equals the interpolant
    # at vertices and barycenters within 1e-8; every cell-map determinant
    # has modulus 1 within 1e-10
    for name in CATALOG:
        target = get_target(name)
        if target.domain.d != 2 or name == "profile1d":
            continue
        tri = kuhn_triangulate(target.domain, 0.125)
        pa = lagrange_interpolate(target.fn, tri)
        fact = polar_factorize(pa)
        for A in (fact.m1.A, fact.m2.A):
            dets = np.abs(np.linalg.det(A))
            assert np.abs(dets - 1.0).max() <= 1e-10, name
        pts = [tri.vertices]
        pts.append(tri.vertices[tri.simplices].mean(axis=1))
        X = np.vstack(pts)
        err = np.abs(fact.eval_points(X) - pa.eval_points(X)).max()
        assert err <= 1e-8, f"{name}: factorization error {err}"


def test_criterion_5_end_to_end_realization_at_desk_scale():
    # sine shear composed with the radial compression, uniform density,
    # p = 2: L^2 error <= 0.1 and TV error <= 0.2 at mesh = cube = 1/16,
    # both errors decrease under one refinement step, and the whole run
    # stays under a 15-minute budget.  Gates are checked in order so a
    # coarse-level failure reports without paying for the refinement.
    budget = 900.0
    t0 = time.time()
    target = get_target("sine-radial")
    coarse = realize_target(target, epsilon=0.1, mesh_h=1.0 / 16,
                            cube_h=1.0 / 16, p=2.0, resolution=128)
    report = f"coarse: L2={coarse.lp_error:.4f} TV={coarse.tv_error:.4f}"
    assert coarse.lp_error <= 0.1, report
    assert coarse.tv_error <= 0.2, report
    fine = realize_target(target, epsilon=0.1, mesh_h=1.0 / 32,
                          cube_h=1.0 / 32, p=2.0, resolution=128)
    report += f"; fine: L2={fine.lp_error:.4f} TV={fine.tv_error:.4f}"
    assert fine.lp_error < coarse.lp_error, report
    assert fine.tv_error < coarse.tv_error, report
    assert time.time() - t0 <= budget, report


def test_criterion_6_maurey_rate_exponents():
    # built-in 3-atom time-varying mixture, N in {16..512}, 20 seeds:
    # log-log slope of mean e_N in [-0.65, -0.35]; mean delta_N decreasing
    # with slope in [-0.7, -0.3]
    m = builtin_mixture()
    rng = np.random.default_rng(606)
    pts = rng.uniform(-m.R / 2 / np.sqrt(m.d), m.R / 2 / np.sqrt(m.d),
                      size=(64, m.d))
    reference = reference_flow(m, pts, step=1e-3)
    Ns = (16, 32, 64, 128, 256, 512)
    means_e, means_d = [], []
    for N in Ns:
        es, ds = [], []
        for seed in range(20):
            run = sample_schedule(m, N, seed=seed)
            e, dq = run_errors(run, m, pts, reference=reference)
            es.append(e)
            ds.append(dq)
        means_e.append((N, float(np.mean(es))))
        means_d.append((N, float(np.mean(ds))))
    slope_e = rate_fit(means_e)
    slope_d = rate_fit(means_d)
    assert -0.65 <= slope_e <= -0.35, f"e_N slope {slope_e}"
    assert -0.7 <= slope_d <= -0.3, f"delta_N slope {slope_d}"
    assert means_d[-1][1] < means_d[0][1]


def test_criterion_7_sampling_is_unbiased():
    # Monte-Carlo mean of r_k g_theta(z) over 1e4 draws within 3 standard
    # errors of the interval field integral at 10 test points
    m = builtin_mixture()
    rng = np.random.default_rng(707)
    Z = rng.uniform(-1.0, 1.0, size=(10, m.d))
    N, k = 4, 1
    lo, hi = k / N, (k + 1) / N
    exact = np.zeros((10, m.d))
    for i in range(m.n_cells):
        overlap = min(hi, m.time_grid[i + 1]) - max(lo, m.time_grid[i])
        if overlap > 0:
            f, _ = eval_mixture(m, (m.time_grid[i] + m.time_grid[i + 1]) / 2,
                                Z)
            exact += overlap * f
    draws = np.empty((10_000, 10, m.d))
    for s in range(10_000):
        run = sample_schedule(m, N, seed=s)
        j = run.atom[k]
        act = np.maximum(Z @ m.a[j] + m.b[j], 0.0)
        draws[s] = run.r[k] * (m.w[j] / m.costs[j]) * act[:, None]
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(mean - exact) <= 3 * se + 1e-12)


def test_criterion_8_small_displacement_large_tv():
    # alpha = 0.1, h = 1/64: pushforward TV within 2% of 0.4 while the sup
    # displacement stays below 1.6e-3
    sup, tv = oscillation_counterexample(0.1, 1.0 / 64)
    assert sup <= 1.6e-3
    assert tv == pytest.approx(0.4, rel=0.02)


def test_criterion_9_triangular_transport():
    # 1D uniform -> 2x equals sqrt within 1e-5 at grid 512; 2D product
    # density pushes a ~1e5-point cloud to TV <= 0.05 at 32^2 bins;
    # uniform -> uniform is the identity within 1e-6
    dens_2x = GridDensity.from_function(
        lambda X: np.maximum(2 * X[:, 0], 1e-9), (512,))
    phi = KRMap(GridDensity.uniform((512,)), dens_2x)
    x = np.linspace(0.02, 0.98, 49)[:, None]
    assert np.abs(phi(x)[:, 0] - np.sqrt(x[:, 0])).max() <= 1e-5

    rho1 = GridDensity.from_function(
        lambda X: (1 + X[:, 0]) * (0.5 + X[:, 1]), (64, 64))
    phi2 = KRMap(GridDensity.uniform((64, 64)), rho1)
    rng = np.random.default_rng(909)
    n_strata = 316      # 316^2 = 99856 stratified samples, ~1e5 points
    base = np.arange(n_strata) / n_strata
    gx, gy = np.meshgrid(base, base, indexing="ij")
    X = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    X += rng.uniform(0, 1.0 / n_strata, size=X.shape)
    Y = phi2(X)
    hist, _, _ = np.histogram2d(Y[:, 0], Y[:, 1], bins=32,
                                range=[[0, 1], [0, 1]])
    emp = hist / hist.sum() * 32 * 32
    nodes = (np.arange(32) + 0.5) / 32
    Xc = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
    tgt = (1 + Xc[..., 0]) * (0.5 + Xc[..., 1])
    tgt /= tgt.mean()
    assert np.mean(np.abs(emp - tgt)) <= 0.05

    rho = GridDensity.from_function(lambda X: 1 + 0.3 * X[:, 0], (128, 128))
    phi3 = KRMap(rho, rho)
    X = rng.uniform(0.05, 0.95, size=(50, 2))
    assert np.abs(phi3(X) - X).max() <= 1e-6


def test_criterion_10_pushforward_contracts_tv():
    # 20 random (schedule, density, density) triples: pushforward TV never
    # exceeds the input TV by more than 0.01 at resolution 256
    rng = np.random.default_rng(1010)

    def random_density(seed):
        r = np.random.default_rng(seed)
        a = r.uniform(0.1, 0.4)
        b = r.uniform(1, 3, size=2)
        c = r.uniform(0, 6)
        return GridDensity.from_function(
            lambda X: 1 + a * np.sin(b[0] * X[:, 0] + c) * np.cos(
                b[1] * X[:, 1]), (129, 129))

    for trial in range(20):
        move_axis = int(rng.integers(2))
        lo = float(rng.uniform(0.2, 0.5))
        sched = shear_for_region(move_axis, float(rng.uniform(-0.2, 0.2)),
                                 1 - move_axis, lo, lo + 0.2, 2)
        mu1 = random_density(2000 + trial)
        mu2 = random_density(4000 + trial)
        lhs, rhs = contraction_check(sched, mu1, mu2, resolution=256)
        assert lhs <= rhs + 0.01, f"trial {trial}: {lhs} > {rhs} + 0.01"
