import numpy as np
import pytest

from reluflow.maurey import (
    DegenerateMixtureError,
    TimeMixture,
    builtin_mixture,
    eval_mixture,
    fit_mixture,
    rate_fit,
    reference_flow,
    ridge_dictionary,
    run_errors,
    sample_schedule,
)
from reluflow.numerics import neuron_field, rk4
from reluflow.schedule import ControlSchedule, flow_points


def mixture_of_cells(time_grid, cells, R=2.0, d=2):
    """The mixture whose cells list their atoms as (w, a, b, mass)."""
    return TimeMixture.from_dict({
        "d": d, "R": R, "time_grid": list(time_grid),
        "cells": [[{"w": list(w), "a": list(a), "b": b, "mass": mass}
                   for w, a, b, mass in cell] for cell in cells]})


def single_atom_mixture(w, a, b, mass=1.0, R=2.0):
    return mixture_of_cells([0.0, 1.0], [[(w, a, b, mass)]], R, len(w))


class TestEvalMixture:
    def test_empty_mixture(self):
        m = mixture_of_cells([0.0, 1.0], [[]])
        field, div = eval_mixture(m, 0.5, np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(field, 0.0)
        np.testing.assert_array_equal(div, 0.0)

    def test_single_atom(self):
        m = single_atom_mixture([0.0, 1.0], [1.0, 0.0], 0.0)
        field, div = eval_mixture(m, 0.2, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(field, [[0.0, 1.0]])
        np.testing.assert_allclose(div, [0.0])

    def test_opposite_atoms_cancel(self, rng):
        m = mixture_of_cells([0.0, 1.0], [[([0.5, 0.2], [1.0, 1.0], 0.3, 1.0),
                                           ([-0.5, -0.2], [1.0, 1.0], 0.3,
                                            1.0)]])
        X = rng.uniform(-1, 1, size=(50, 2))
        field, div = eval_mixture(m, 0.5, X)
        np.testing.assert_allclose(field, 0.0, atol=1e-15)
        np.testing.assert_allclose(div, 0.0, atol=1e-15)

    def test_time_cells_switch(self):
        m = mixture_of_cells([0.0, 0.5, 1.0],
                             [[([1.0, 0.0], [0.0, 1.0], 1.0, 1.0)],
                              [([0.0, 1.0], [1.0, 0.0], 1.0, 1.0)]])
        f0, _ = eval_mixture(m, 0.25, np.zeros((1, 2)))
        f1, _ = eval_mixture(m, 0.75, np.zeros((1, 2)))
        np.testing.assert_allclose(f0, [[1.0, 0.0]])
        np.testing.assert_allclose(f1, [[0.0, 1.0]])


class TestSampleSchedule:
    def test_single_atom_deterministic_and_exact(self, rng):
        m = single_atom_mixture([0.0, 0.5], [1.0, 0.0], 0.4, mass=0.8)
        run = sample_schedule(m, 16, seed=3)
        assert len(run.schedule) == 16
        assert np.all(np.abs(run.schedule.duration - 1 / 16) < 1e-15)
        # w' = N r_k w / c reproduces mass * w exactly for a constant mixture
        np.testing.assert_allclose(
            run.schedule.w, np.tile(0.8 * np.array([0.0, 0.5]), (16, 1)),
            atol=1e-12)
        X = rng.uniform(-0.5, 0.5, size=(20, 2))
        e, delta = run_errors(run, m, X)
        assert e <= 1e-6 and delta <= 1e-6

    def test_weight_identity(self):
        m = builtin_mixture()
        run = sample_schedule(m, 32, seed=7)
        for k, (j, w_prime) in enumerate(zip(run.atom, run.schedule.w)):
            expected = 32 * run.r[k] * m.w[j] / m.costs[j]
            np.testing.assert_allclose(w_prime, expected, atol=1e-13)

    def test_seed_reproducible(self):
        m = builtin_mixture()
        r1 = sample_schedule(m, 64, seed=11)
        r2 = sample_schedule(m, 64, seed=11)
        assert r1.schedule.to_dict() == r2.schedule.to_dict()
        r3 = sample_schedule(m, 64, seed=12)
        assert r1.schedule.to_dict() != r3.schedule.to_dict()

    def test_matches_per_interval_choice(self):
        # one Generator.choice per interval over the atoms with positive
        # weight draws the same atoms as the batched search
        rng = np.random.default_rng(0)
        da, dw, db = ridge_dictionary(2, 24, 2.0, seed=1)
        atoms = [(dw[i], da[i], db[i],
                  rng.choice([0.0, rng.uniform(0.1, 2.0)])) for i in range(24)]
        cells = [[atoms[rng.integers(24)] for _ in range(count)]
                 for count in (3, 1, 8, 5, 2)]
        m = mixture_of_cells([0.0, 0.13, 0.4, 0.41, 0.8, 1.0], cells)
        # from_dict gives each listed atom its own row, in cell order
        cell_of = [i for i, cell in enumerate(cells) for _ in cell]
        costs = m.costs
        masses = m.mass[cell_of, np.arange(len(cell_of))]
        for N in (7, 37, 200):
            k = np.arange(N)
            overlap, r = m.overlaps(k / N, (k + 1) / N)
            P = masses * costs * overlap[:, cell_of]
            for seed in range(20):
                draw = np.random.default_rng(seed)
                a, w, b = np.zeros((N, 2)), np.zeros((N, 2)), np.zeros(N)
                drawn = np.full(N, -1)
                for k in np.flatnonzero(r != 0.0).tolist():
                    cand = np.flatnonzero(P[k] > 0)
                    p = P[k, cand]
                    j = cand[draw.choice(len(cand), p=p / sum(p.tolist()))]
                    a[k], b[k] = m.a[j], m.b[j]
                    w[k] = N * r[k] * m.w[j] / costs[j]
                    drawn[k] = j
                run = sample_schedule(m, N, seed)
                np.testing.assert_array_equal(run.schedule.a, a)
                np.testing.assert_array_equal(run.schedule.w, w)
                np.testing.assert_array_equal(run.schedule.b, b)
                np.testing.assert_array_equal(run.atom, drawn)

    def test_degenerate_mixture(self):
        m = mixture_of_cells([0.0, 1.0], [[]])
        with pytest.raises(DegenerateMixtureError):
            sample_schedule(m, 8, seed=0)

    def test_unbiasedness(self, rng):
        # mean of r_k g_theta(z) over draws matches the interval field integral
        m = builtin_mixture()
        z = np.array([[0.3, -0.2]])
        N = 4
        k = 1
        lo, hi = k / N, (k + 1) / N
        exact = np.zeros(2)
        for i in range(m.n_cells):
            overlap = (min(hi, m.time_grid[i + 1]) - max(lo, m.time_grid[i]))
            if overlap > 0:
                # cells are constant in t
                f, _ = eval_mixture(m, (m.time_grid[i] + m.time_grid[i + 1]) / 2, z)
                exact += overlap * f[0]
        draws = []
        for seed in range(2000):
            run = sample_schedule(m, N, seed=seed)
            j = run.atom[k]
            g = (m.w[j] / m.costs[j]
                 * max(float(z[0] @ m.a[j]) + m.b[j], 0.0))
            draws.append(run.r[k] * g)
        draws = np.array(draws)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(mean - exact) <= 3 * se + 1e-12)


class TestReferenceFlow:
    @staticmethod
    def cell_by_cell(m, X, step):
        """RK4 over eval_mixture at each cell's midpoint, cell by cell."""
        q = np.zeros(len(X))
        for i in range(m.n_cells):
            t0, t1 = m.time_grid[i], m.time_grid[i + 1]
            X, q = rk4(lambda Y, t=0.5 * (t0 + t1): eval_mixture(m, t, Y),
                       X, q, t1 - t0, step)
        return X, q

    def test_equals_rk4_over_eval_mixture(self, rng):
        a = rng.normal(size=(5, 2))
        a /= np.linalg.norm(a, axis=1)[:, None]
        mass = rng.uniform(0, 1, size=(3, 5)) * (rng.uniform(size=(3, 5)) > 0.3)
        mixtures = (builtin_mixture(),
                    TimeMixture([0.0, 0.2, 0.65, 1.0], a,
                                rng.normal(size=(5, 2)),
                                rng.uniform(-1, 1, size=5), mass, 2.0))
        X = rng.uniform(-1.5, 1.5, size=(64, 2))
        for m in mixtures:
            for step in (1e-3, 0.07):
                X_ref, q_ref = self.cell_by_cell(m, X, step)
                Y, q = reference_flow(m, X, step=step)
                assert np.array_equal(Y, X_ref) and np.array_equal(q, q_ref)


class TestRunErrors:
    def test_zero_field(self, rng):
        # atom inactive on the whole working region: field is zero there
        m = single_atom_mixture([1.0, 0.0], [1.0, 0.0], -10.0, mass=1.0)
        run = sample_schedule(m, 8, seed=0)
        X = rng.uniform(-1, 1, size=(10, 2))
        e, delta = run_errors(run, m, X)
        assert e == 0.0 and delta == 0.0

    def test_divergence_constant_along_segment(self, rng):
        # within a segment the divergence along the flowed trajectory is
        # constant, so the tracked logdet has no integration error
        m = builtin_mixture()
        run = sample_schedule(m, 16, seed=5)
        x = np.array([[0.2, 0.1]])
        sched = run.schedule
        for k in range(4):
            a, b = sched.a[k], sched.b[k]
            z0 = float(x[0] @ a + b)
            if z0 <= 0:
                continue
            for frac in np.linspace(0.05, 0.95, 10):
                part = ControlSchedule.from_arrays(
                    sched.a[k:k + 1], sched.w[k:k + 1], sched.b[k:k + 1],
                    sched.duration[k:k + 1] * frac)
                sub = flow_points(x, part)[0]
                znow = float(sub[0] @ a + b)
                assert (znow > 0) == (z0 > 0)

    def test_error_shrinks_with_N(self, rng):
        m = builtin_mixture()
        X = rng.uniform(-0.7, 0.7, size=(40, 2))
        ref = reference_flow(m, X)
        means = []
        for N in (16, 256):
            es = [run_errors(sample_schedule(m, N, seed=s), m, X, reference=ref)[0]
                  for s in range(10)]
            means.append(np.mean(es))
        assert means[1] < means[0] / 2.0

    def test_confinement(self, rng):
        # |u| <= r(t) on the R-ball, so points with |x| <= R - 1 - int r
        # cannot leave the ball when int r <= 1
        m = single_atom_mixture([0.0, 0.3], [1.0, 0.0], 0.2, mass=1.0, R=2.0)
        total = m.rate_integral(0.0, 1.0)
        assert total <= 1.0
        radius = m.R - 1.0 - total
        X = rng.uniform(-radius / 2, radius / 2, size=(30, 2))
        run = sample_schedule(m, 64, seed=1)
        out, _ = flow_points(X, run.schedule)
        assert np.all(np.linalg.norm(out, axis=1) <= m.R)
        # and the built-in rate-study mixture stays confined too
        mb = builtin_mixture()
        outb, _ = flow_points(rng.uniform(-0.7, 0.7, size=(30, 2)),
                              sample_schedule(mb, 64, seed=2).schedule)
        assert np.all(np.linalg.norm(outb, axis=1) <= mb.R)


class TestRateFit:
    def test_exact_half(self):
        Ns = [16, 32, 64, 128]
        assert rate_fit([(n, 3.0 / np.sqrt(n)) for n in Ns]) == pytest.approx(-0.5)

    def test_exact_one(self):
        Ns = [16, 32, 64, 128]
        assert rate_fit([(n, 3.0 / n) for n in Ns]) == pytest.approx(-1.0)

    def test_too_few(self):
        with pytest.raises(ValueError):
            rate_fit([(16, 1.0), (32, 0.7), (64, 0.5)])


class TestFitMixture:
    def test_recover_single_dictionary_atom(self):
        R = 2.0
        dictionary = ridge_dictionary(2, 20, R, seed=4)
        a, w, b = dictionary
        points = np.random.default_rng(0).uniform(-1, 1, size=(60, 2))
        times = np.array([0.25, 0.75])
        g = np.maximum(points @ a[7] + b[7], 0.0)
        U = np.stack([np.outer(g, w[7]) * 0.9] * 2)
        m, resid = fit_mixture(times, points, U, R, 20, seed=4,
                               dictionary=dictionary)
        assert resid <= 1e-8
        f, _ = eval_mixture(m, 0.3, points)
        np.testing.assert_allclose(f, U[0], atol=1e-8)

    def test_recover_three_atoms(self):
        R = 2.0
        dictionary = ridge_dictionary(2, 25, R, seed=9)
        rng = np.random.default_rng(1)
        points = rng.uniform(-1, 1, size=(80, 2))
        masses = {3: 0.5, 11: 1.2, 20: 0.25}
        U0 = np.zeros((len(points), 2))
        a, w, b = dictionary
        for k, mk in masses.items():
            U0 += mk * np.outer(np.maximum(points @ a[k] + b[k], 0.0), w[k])
        m, resid = fit_mixture(np.array([0.5]), points, U0[None], R, 25,
                               seed=9, dictionary=dictionary)
        assert resid <= 1e-8

    def test_residual_decreases_with_size(self):
        rng = np.random.default_rng(2)
        points = rng.uniform(-1, 1, size=(60, 2))
        U = np.stack([np.column_stack([-points[:, 1], points[:, 0]]) * s
                      for s in (0.5, 1.0)])
        times = np.array([0.25, 0.75])
        resids = []
        for size in (5, 20, 80):
            _, r = fit_mixture(times, points, U, 2.0, size, seed=3)
            resids.append(r)
        assert resids[2] < resids[1] < resids[0]


def random_mixture_dict(rng, counts, R=2.0, d=2):
    """A from_dict mixture with the given atom counts per cell (0 allowed),
    unit-direction atoms and about a third of the masses zero."""
    t = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, len(counts) - 1)),
                        [1.0]])
    cells = []
    for count in counts:
        a, w, b = ridge_dictionary(d, count, R, seed=int(rng.integers(1000)))
        mass = np.where(rng.random(count) < 0.3, 0.0,
                        rng.uniform(0.1, 2.0, count))
        cells.append([{"w": w[i].tolist(), "a": a[i].tolist(),
                       "b": float(b[i]), "mass": float(mass[i])}
                      for i in range(count)])
    return {"d": d, "R": R, "time_grid": t.tolist(), "cells": cells}


class TestTimeMixture:
    def test_from_dict_rows_and_block_diagonal_mass(self):
        data = random_mixture_dict(np.random.default_rng(3), (2, 0, 3))
        m = TimeMixture.from_dict(data)
        assert m.d == 2 and m.n_cells == 3 and m.mass.shape == (3, 5)
        atoms = [atom for cell in data["cells"] for atom in cell]
        np.testing.assert_array_equal(m.a, [atom["a"] for atom in atoms])
        np.testing.assert_array_equal(m.w, [atom["w"] for atom in atoms])
        np.testing.assert_array_equal(m.b, [atom["b"] for atom in atoms])
        expected = np.zeros((3, 5))
        expected[0, :2] = [atom["mass"] for atom in atoms[:2]]
        expected[2, 2:] = [atom["mass"] for atom in atoms[2:]]
        np.testing.assert_array_equal(m.mass, expected)
        # the cost |w| (R |a| + |b|) and the rate sum_j mass_j c_j per cell
        costs = [np.linalg.norm(atom["w"])
                 * (m.R * np.linalg.norm(atom["a"]) + abs(atom["b"]))
                 for atom in atoms]
        np.testing.assert_allclose(m.costs, costs, rtol=1e-15)
        np.testing.assert_allclose(m.rates, expected @ costs, rtol=1e-15)

    def test_arrays_read_only(self):
        m = builtin_mixture()
        for v in (m.time_grid, m.a, m.w, m.b, m.mass, m.costs, m.rates):
            with pytest.raises(ValueError):
                v[0] = 0.0

    def test_shape_errors(self):
        data = random_mixture_dict(np.random.default_rng(6), (2, 1))
        data["d"] = 3
        with pytest.raises(ValueError, match="declares d = 3"):
            TimeMixture.from_dict(data)
        data = random_mixture_dict(np.random.default_rng(6), (2, 1))
        data["cells"].append([])
        with pytest.raises(ValueError, match="one mass row"):
            TimeMixture.from_dict(data)


class TestEvalMixtureAgainstAtoms:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_atom_neuron_field(self, seed):
        # empty cells and zero masses included
        rng = np.random.default_rng(seed)
        data = random_mixture_dict(rng, rng.integers(0, 7, size=5))
        m = TimeMixture.from_dict(data)
        X = rng.uniform(-1.5, 1.5, size=(40, 2))
        for i, cell in enumerate(data["cells"]):
            V, div = np.zeros_like(X), np.zeros(len(X))
            for atom in cell:
                f, g = neuron_field(X, np.array(atom["w"]),
                                    np.array(atom["a"]), atom["b"])
                V += atom["mass"] * f
                div += atom["mass"] * g
            t = 0.5 * (m.time_grid[i] + m.time_grid[i + 1])
            field, field_div = eval_mixture(m, t, X)
            # within 1e-15 of the largest entry (and of 1)
            for got, want in ((field, V), (field_div, div)):
                scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-15 * scale)
