import numpy as np
import pytest

from reluflow.maurey import (
    BarronAtom,
    DegenerateMixtureError,
    TimeMixture,
    atom_cost,
    builtin_mixture,
    eval_mixture,
    fit_mixture,
    rate_fit,
    reference_flow,
    ridge_dictionary,
    run_errors,
    sample_schedule,
)
from reluflow.schedule import Neuron, flow_points


def single_atom_mixture(w, a, b, mass=1.0, R=2.0):
    atom = BarronAtom(Neuron(np.asarray(w, float), np.asarray(a, float), b),
                      mass)
    return TimeMixture(np.array([0.0, 1.0]), ((atom,),), R, len(w))


class TestEvalMixture:
    def test_empty_mixture(self):
        m = TimeMixture(np.array([0.0, 1.0]), ((),), 2.0, 2)
        field, div = eval_mixture(m, 0.5, np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(field, 0.0)
        np.testing.assert_array_equal(div, 0.0)

    def test_single_atom(self):
        m = single_atom_mixture([0.0, 1.0], [1.0, 0.0], 0.0)
        field, div = eval_mixture(m, 0.2, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(field, [[0.0, 1.0]])
        np.testing.assert_allclose(div, [0.0])

    def test_opposite_atoms_cancel(self, rng):
        n = Neuron(np.array([0.5, 0.2]), np.array([1.0, 1.0]), 0.3)
        m = TimeMixture(np.array([0.0, 1.0]),
                        ((BarronAtom(n, 1.0),
                          BarronAtom(Neuron(-n.w, n.a, n.b), 1.0)),),
                        2.0, 2)
        X = rng.uniform(-1, 1, size=(50, 2))
        field, div = eval_mixture(m, 0.5, X)
        np.testing.assert_allclose(field, 0.0, atol=1e-15)
        np.testing.assert_allclose(div, 0.0, atol=1e-15)

    def test_time_cells_switch(self):
        n1 = Neuron(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0)
        n2 = Neuron(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0)
        m = TimeMixture(np.array([0.0, 0.5, 1.0]),
                        ((BarronAtom(n1, 1.0),), (BarronAtom(n2, 1.0),)),
                        2.0, 2)
        f0, _ = eval_mixture(m, 0.25, np.zeros((1, 2)))
        f1, _ = eval_mixture(m, 0.75, np.zeros((1, 2)))
        np.testing.assert_allclose(f0, [[1.0, 0.0]])
        np.testing.assert_allclose(f1, [[0.0, 1.0]])


class TestSampleSchedule:
    def test_single_atom_deterministic_and_exact(self, rng):
        m = single_atom_mixture([0.0, 0.5], [1.0, 0.0], 0.4, mass=0.8)
        run = sample_schedule(m, 16, seed=3)
        assert len(run.schedule) == 16
        assert all(abs(s.duration - 1 / 16) < 1e-15
                   for s in run.schedule.segments)
        # w' = N r_k w / c reproduces mass * w exactly for a constant mixture
        np.testing.assert_allclose(
            run.weights, np.tile(0.8 * np.array([0.0, 0.5]), (16, 1)),
            atol=1e-12)
        X = rng.uniform(-0.5, 0.5, size=(20, 2))
        e, delta = run_errors(run, m, X)
        assert e <= 1e-6 and delta <= 1e-6

    def test_weight_identity(self):
        m = builtin_mixture()
        run = sample_schedule(m, 32, seed=7)
        for k, (theta, w_prime) in enumerate(zip(run.neurons, run.weights)):
            expected = 32 * run.r[k] * theta.w / atom_cost(theta, m.R)
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
        atoms = [BarronAtom(n, rng.choice([0.0, rng.uniform(0.1, 2.0)]))
                 for n in ridge_dictionary(2, 24, 2.0, seed=1)]
        cells = tuple(tuple(atoms[rng.integers(24)] for _ in range(count))
                      for count in (3, 1, 8, 5, 2))
        m = TimeMixture(np.array([0.0, 0.13, 0.4, 0.41, 0.8, 1.0]), cells,
                        2.0, 2)
        flat = [atom for cell in m.cells for atom in cell]
        cell_of = [i for i, cell in enumerate(m.cells) for _ in cell]
        costs = np.array([atom.cost(m.R) for atom in flat])
        masses = np.array([atom.mass for atom in flat])
        for N in (7, 37, 200):
            k = np.arange(N)
            overlap, r = m.overlaps(k / N, (k + 1) / N)
            P = masses * costs * overlap[:, cell_of]
            for seed in range(20):
                draw = np.random.default_rng(seed)
                a, w, b = np.zeros((N, 2)), np.zeros((N, 2)), np.zeros(N)
                for k in np.flatnonzero(r != 0.0).tolist():
                    cand = np.flatnonzero(P[k] > 0)
                    p = P[k, cand]
                    j = cand[draw.choice(len(cand), p=p / sum(p.tolist()))]
                    n = flat[j].neuron
                    a[k], b[k] = n.a, n.b
                    w[k] = N * r[k] * n.w / costs[j]
                run = sample_schedule(m, N, seed)
                np.testing.assert_array_equal(run.schedule.a, a)
                np.testing.assert_array_equal(run.schedule.w, w)
                np.testing.assert_array_equal(run.schedule.b, b)
                np.testing.assert_array_equal(run.weights, w)

    def test_degenerate_mixture(self):
        m = TimeMixture(np.array([0.0, 1.0]), ((),), 2.0, 2)
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
            theta = run.neurons[k]
            g = (theta.w / atom_cost(theta, m.R)
                 * max(float(z[0] @ theta.a) + theta.b, 0.0))
            draws.append(run.r[k] * g)
        draws = np.array(draws)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(mean - exact) <= 3 * se + 1e-12)


class TestRunErrors:
    def test_zero_field(self, rng):
        # atom inactive on the whole working region: field is zero there
        m = TimeMixture(np.array([0.0, 1.0]),
                        ((BarronAtom(Neuron([1.0, 0.0], [1.0, 0.0], -10.0), 1.0),),),
                        2.0, 2)
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
        for k, seg in enumerate(run.schedule.segments[:4]):
            n = seg.neuron
            z0 = float(x[0] @ n.a + n.b)
            if z0 <= 0:
                continue
            for frac in np.linspace(0.05, 0.95, 10):
                sub = flow_points(x, type(run.schedule)((type(seg)(n, seg.duration * frac),)))[0]
                znow = float(sub[0] @ n.a + n.b)
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
        target = dictionary[7]
        points = np.random.default_rng(0).uniform(-1, 1, size=(60, 2))
        times = np.array([0.25, 0.75])
        g = np.maximum(points @ target.a + target.b, 0.0)
        U = np.stack([np.outer(g, target.w) * 0.9] * 2)
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
        for k, mk in masses.items():
            n = dictionary[k]
            U0 += mk * np.outer(np.maximum(points @ n.a + n.b, 0.0), n.w)
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
