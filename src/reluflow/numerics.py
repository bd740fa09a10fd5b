"""Numerical primitives shared by both routes.

Monotone inversion by bisection, the RK4 reference integrator with its
divergence, the single-neuron field, and tensor grids on [0, 1]^d with
trapezoid quadrature.  Each is written once here so that every caller
performs the same floating-point operations in the same order.
"""

from __future__ import annotations

import numpy as np


def bisect_increasing(f, target, lo, hi, iters: int) -> np.ndarray:
    """Solve f(x) = target per entry for f increasing on [lo, hi].

    ``lo`` and ``hi`` are scalars or arrays shaped like ``target``; after
    ``iters`` halvings the midpoint of the bracket is returned.  Targets
    outside f's range converge to the nearer endpoint.
    """
    a = np.full(np.shape(target), lo, dtype=float)
    b = np.full(np.shape(target), hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        below = f(mid) < target
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return 0.5 * (a + b)


def neuron_field(X: np.ndarray, w, a, b):
    """Field w relu(a.x + b) at the rows of X and its divergence.

    The divergence is a.w where a.x + b > 0 and 0 elsewhere.  One neuron
    has w, a of shape (d,) and a scalar b; with w, a of shape (N, d) and b
    of shape (N,), row i of X sees neuron i.
    """
    if np.ndim(a) == 1:
        z, s = X @ a, a @ w
    else:
        z, s = np.einsum("ij,ij->i", X, a), np.einsum("ij,ij->i", a, w)
    z = z + b
    V = np.maximum(z, 0.0)[:, None] * w
    div = np.where(z > 0.0, s, 0.0)
    return V, div


def rk4(field, X: np.ndarray, q: np.ndarray, duration, step: float):
    """Classical RK4 for dx/dt = v(x) and dq/dt = div v(x) over ``duration``.

    ``field(X)`` returns (v, div v) at the rows of X.  ``duration`` is a
    scalar or one entry per row of X.  Each row's interval is cut into
    ceil(duration / step) equal steps, at least one; a row whose steps are
    spent stands still while the others go on.  Returns (X, q).
    """
    n = np.maximum(np.ceil(np.divide(duration, step)).astype(int), 1)
    for i in range(int(np.max(n))):
        h = np.where(i < n, duration / n, 0.0)
        hx = h[..., None]
        k1, q1 = field(X)
        k2, q2 = field(X + 0.5 * hx * k1)
        k3, q3 = field(X + 0.5 * hx * k2)
        k4, q4 = field(X + hx * k3)
        X = X + (hx / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        q = q + (h / 6.0) * (q1 + 2 * q2 + 2 * q3 + q4)
    return X, q


def grid_points(axes) -> np.ndarray:
    """The tensor grid of the 1-d ``axes`` as an (N, d) array, last axis
    varying fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def trapezoid_all(v: np.ndarray, axes=None):
    """Trapezoid integral of grid values over [0, 1] along ``axes``.

    The default integrates every axis.  Axes are integrated from the last
    one down, each on its inclusive uniform grid.
    """
    v = np.asarray(v)
    for axis in sorted(range(v.ndim) if axes is None else axes, reverse=True):
        v = np.trapezoid(v, np.linspace(0, 1, v.shape[axis]), axis=axis)
    return v
