"""Knothe-Rosenblatt triangular transport between gridded densities.

Densities live on inclusive tensor grids over [0, 1]^d with trapezoid
quadrature.  The transport is built coordinate by coordinate: the k-th
component solves

    F1_k(phi_k | phi_{1:k-1}(x)) = F0_k(x_k | x_{1:k-1})

by monotone bisection, where F_k is the conditional CDF of the k-th
coordinate given the leading ones.  Conditional CDFs are exact integrals of
the piecewise-linear interpolated density (piecewise quadratic in t), with
multilinear interpolation in the conditioning point; each conditional slice
is renormalized, which kills quadrature drift across slices.

Evaluation is vectorized: one batched bisection per coordinate, with the
conditional-density slices and their cumulative integrals computed once per
batch of at most ``_CHUNK_ROWS`` points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from reluflow.numerics import bisect_increasing, grid_points, trapezoid_all

BISECT_TOL = 1e-10
# halvings of [0, 1] that bring the bracket below BISECT_TOL
_BISECT_ITERS = int(np.ceil(np.log2(1.0 / BISECT_TOL))) + 1
# each point holds conditional-density rows (about 4 KB at 65 nodes)
_CHUNK_ROWS = 2048


class DensityDegeneracyError(ValueError):
    """CDF inversion lost monotone bracketing (density not positive)."""


@dataclass(frozen=True)
class GridDensity:
    """Strictly positive values on an inclusive tensor grid over [0,1]^d."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim < 1:
            raise ValueError("values must be a tensor")
        if np.any(v <= 0):
            raise ValueError("density values must be strictly positive")
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.ndim

    @property
    def nodes(self) -> tuple:
        return tuple(np.linspace(0.0, 1.0, n) for n in self.values.shape)

    def integral(self) -> float:
        return float(trapezoid_all(self.values))

    def check_normalized(self, tol: float = 1e-8) -> None:
        if abs(self.integral() - 1.0) > tol:
            raise ValueError(f"density integral {self.integral():.3e} != 1")

    @classmethod
    def from_function(cls, f, shape) -> "GridDensity":
        """Sample f on the grid and normalize by the trapezoid integral."""
        X = grid_points([np.linspace(0.0, 1.0, n) for n in shape])
        vals = np.asarray(f(X), dtype=float).reshape(shape)
        dens = cls(vals)
        return cls(vals / dens.integral())

    @classmethod
    def uniform(cls, shape) -> "GridDensity":
        return cls(np.ones(shape))


def marginal(rho: GridDensity, k: int) -> GridDensity:
    """Marginal density of the first k coordinates (trapezoid over the rest)."""
    if not 1 <= k <= rho.d:
        raise ValueError("k out of range")
    return GridDensity(trapezoid_all(rho.values, axes=range(k, rho.d)))


class _ConditionalCDF:
    """Batched normalized CDFs of piecewise-linear densities on shared nodes.

    ``dens`` has one density slice per row; the CDF of a linear piece is
    exact (trapezoid of the endpoint values, partial piece up to t via the
    interpolated density at t), so F is piecewise quadratic in t.
    """

    def __init__(self, nodes: np.ndarray, dens: np.ndarray):
        dens = np.atleast_2d(dens)
        self.nodes = nodes
        self.dens = dens
        widths = np.diff(nodes)
        pieces = widths * (dens[:, :-1] + dens[:, 1:]) / 2.0
        cum = np.concatenate([np.zeros((dens.shape[0], 1)),
                              np.cumsum(pieces, axis=1)], axis=1)
        total = cum[:, -1]
        if np.any(total <= 0):
            raise DensityDegeneracyError("conditional slice has zero mass")
        self.cum = cum
        self.total = total
        self.widths = widths

    def eval(self, t: np.ndarray) -> np.ndarray:
        t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        i = np.clip(np.searchsorted(self.nodes, t, side="right") - 1,
                    0, len(self.nodes) - 2)
        rows = np.arange(self.dens.shape[0])
        frac = t - self.nodes[i]
        d0 = self.dens[rows, i]
        d1 = self.dens[rows, i + 1]
        dens_t = d0 + (d1 - d0) * frac / self.widths[i]
        partial = self.cum[rows, i] + frac * (d0 + dens_t) / 2.0
        return partial / self.total

    def invert(self, targets: np.ndarray) -> np.ndarray:
        targets = np.asarray(targets, dtype=float)
        if np.any(targets < -1e-12) or np.any(targets > 1 + 1e-12):
            raise DensityDegeneracyError("CDF target outside [0, 1]")
        return bisect_increasing(self.eval, targets, 0.0, 1.0, _BISECT_ITERS)


def _conditional_slices(marg_k: GridDensity, prefix: np.ndarray,
                        interp=None) -> np.ndarray:
    """Density rows over the k-th axis at the (interpolated) prefix points."""
    v = marg_k.values
    prefix = np.atleast_2d(np.asarray(prefix, dtype=float))
    n_pts = prefix.shape[0]
    if v.ndim == 1:
        return np.tile(v, (n_pts, 1))
    nodes = marg_k.nodes
    if interp is None:
        interp = RegularGridInterpolator(nodes, v, method="linear",
                                         bounds_error=False, fill_value=None)
    xk = nodes[-1]
    pts = np.concatenate([np.repeat(prefix, len(xk), axis=0),
                          np.tile(xk, n_pts)[:, None]], axis=1)
    return interp(pts).reshape(n_pts, len(xk))


def conditional_cdf(rho: GridDensity, k: int, t: float, x_prefix=()) -> float:
    """F^k(t | x_{1:k-1}) of the grid density; strictly increasing in t."""
    marg_k = marginal(rho, k)
    dens = _conditional_slices(marg_k, np.asarray(x_prefix, float)[None, :]
                               if k > 1 else np.empty((1, 0)))
    return float(_ConditionalCDF(marg_k.nodes[-1], dens).eval(
        np.array([t]))[0])


@dataclass(frozen=True)
class KRMap:
    """Evaluable triangular map between two grid densities."""

    rho0: GridDensity
    rho1: GridDensity

    def __post_init__(self):
        if self.rho0.d != self.rho1.d:
            raise ValueError("densities must share a dimension")
        self.rho0.check_normalized()
        self.rho1.check_normalized()
        # read-only conditional-density tables and interpolators
        m0 = tuple(marginal(self.rho0, k) for k in range(1, self.rho0.d + 1))
        m1 = tuple(marginal(self.rho1, k) for k in range(1, self.rho1.d + 1))
        object.__setattr__(self, "_marg0", m0)
        object.__setattr__(self, "_marg1", m1)
        object.__setattr__(self, "_interp0", tuple(
            RegularGridInterpolator(m.nodes, m.values, method="linear",
                                    bounds_error=False, fill_value=None)
            if m.d > 1 else None for m in m0))
        object.__setattr__(self, "_interp1", tuple(
            RegularGridInterpolator(m.nodes, m.values, method="linear",
                                    bounds_error=False, fill_value=None)
            if m.d > 1 else None for m in m1))

    @property
    def d(self) -> int:
        return self.rho0.d

    def _component_cdfs(self, k: int, x_prefix: np.ndarray,
                        phi_prefix: np.ndarray) -> tuple:
        """Source and target conditional CDFs of coordinate k, one row per
        point, given the leading coordinates and their images."""
        m0, m1 = self._marg0[k - 1], self._marg1[k - 1]
        d0 = _conditional_slices(m0, x_prefix, self._interp0[k - 1])
        d1 = _conditional_slices(m1, phi_prefix, self._interp1[k - 1])
        return (_ConditionalCDF(m0.nodes[-1], d0),
                _ConditionalCDF(m1.nodes[-1], d1))

    def _component_batch(self, k: int, x_k: np.ndarray, x_prefix: np.ndarray,
                         phi_prefix: np.ndarray) -> np.ndarray:
        F0, F1 = self._component_cdfs(k, x_prefix, phi_prefix)
        return F1.invert(F0.eval(x_k))

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        phi = np.empty_like(X)
        for start in range(0, X.shape[0], _CHUNK_ROWS):
            x, out = X[start:start + _CHUNK_ROWS], phi[start:start + _CHUNK_ROWS]
            for k in range(1, self.d + 1):
                out[:, k - 1] = self._component_batch(
                    k, x[:, k - 1], x[:, :k - 1], out[:, :k - 1])
        return phi

    def eval_point(self, x) -> np.ndarray:
        return self(np.asarray(x, dtype=float)[None, :])[0]


def kr_map(rho0: GridDensity, rho1: GridDensity) -> KRMap:
    return KRMap(rho0, rho1)


def _isotopy_inverse(phi: KRMap, t: float, X: np.ndarray) -> np.ndarray:
    """Solve (1-t) y + t phi(y) = x coordinate by coordinate (triangular).

    phi_t(y)_k = (1-t) y_k + t phi_k(y_{1:k}) is increasing in y_k, so each
    coordinate is recovered by batched bisection given the previous ones.
    The conditional CDFs of coordinate k depend only on those, so they are
    built once per coordinate and every bisection step only evaluates them.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.empty_like(X)
    Phi_prefix = np.empty_like(X)
    for k in range(1, phi.d + 1):
        F0, F1 = phi._component_cdfs(k, Y[:, :k - 1], Phi_prefix[:, :k - 1])

        def phi_t(y):
            return (1.0 - t) * y + t * F1.invert(F0.eval(y))
        Y[:, k - 1] = bisect_increasing(phi_t, X[:, k - 1], 0.0, 1.0,
                                        _BISECT_ITERS)
        Phi_prefix[:, k - 1] = F1.invert(F0.eval(Y[:, k - 1]))
    return Y


def displacement_field(phi: KRMap, t: float, x) -> np.ndarray:
    """u(t, x) = (phi - id)(phi_t^{-1}(x)) for phi_t = (1-t) id + t phi."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    Y = _isotopy_inverse(phi, t, np.atleast_2d(x))
    U = phi(Y) - Y
    return U[0] if single else U
