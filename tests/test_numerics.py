import numpy as np
import pytest

from reluflow.numerics import bisect_increasing, neuron_field, rk4


class TestBisectIncreasing:
    def test_targets_outside_range_give_nearer_endpoint(self):
        # f(x) = x^3 maps [-1, 2] onto [-1, 8]
        target = np.array([-5.0, 20.0, 1.0])
        x = bisect_increasing(lambda t: t ** 3, target, -1.0, 2.0, 60)
        np.testing.assert_allclose(x, [-1.0, 2.0, 1.0], rtol=0, atol=1e-12)


class TestRK4:
    @pytest.mark.parametrize("duration,step", [(1.0, 1e-2), (0.37, 6e-3)])
    def test_linear_field_gives_exponential(self, duration, step):
        # v(x) = x with div v = 1: x(t) = x0 e^t and q(t) = t
        X0 = np.array([[1.0, -2.0], [0.5, 3.0]])
        X, q = rk4(lambda X: (X, np.ones(X.shape[0])), X0, np.zeros(2),
                   duration, step)
        np.testing.assert_allclose(X, X0 * np.exp(duration), rtol=1e-9)
        np.testing.assert_allclose(q, duration, rtol=0, atol=1e-12)

    def test_per_row_durations(self):
        # each row integrates v(x) = x for its own duration
        X0 = np.array([[1.0, -2.0], [0.5, 3.0], [2.0, 1.0]])
        duration = np.array([0.37, 1.0, 0.0])
        X, q = rk4(lambda X: (X, np.ones(X.shape[0])), X0, np.zeros(3),
                   duration, 6e-3)
        np.testing.assert_allclose(X, X0 * np.exp(duration)[:, None],
                                   rtol=1e-9)
        np.testing.assert_allclose(q, duration, rtol=0, atol=1e-12)
        one, _ = rk4(lambda X: (X, np.ones(X.shape[0])), X0[:1], np.zeros(1),
                     0.37, 6e-3)
        np.testing.assert_array_equal(X[0], one[0])


class TestNeuronField:
    def test_per_row_neurons(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 3))
        w, a, b = rng.normal(size=(6, 3)), rng.normal(size=(6, 3)), \
            rng.normal(size=6)
        V, div = neuron_field(X, w, a, b)
        for i in range(6):
            Vi, di = neuron_field(X[i:i + 1], w[i], a[i], b[i])
            np.testing.assert_allclose(V[i], Vi[0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(div[i], di[0], rtol=1e-12, atol=0)
