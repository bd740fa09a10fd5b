"""Knothe-Rosenblatt triangular transport between gridded densities.

Densities live on inclusive tensor grids over [0, 1]^d with trapezoid
quadrature.  The transport is built coordinate by coordinate: the k-th
component solves

    F1_k(phi_k | phi_{1:k-1}(x)) = F0_k(x_k | x_{1:k-1})

in closed form, where F_k is the conditional CDF of the k-th coordinate
given the leading ones.  The density is multilinear on the grid, so the
conditional slice at a prefix is the blend of the 2^(k-1) grid rows at the
corners of the prefix's cell, and its cumulative integral is the same blend
of the rows' cumulative piece integrals, which are tabulated once per
marginal.  F_k is the exact integral of the piecewise-linear slice, so it
is piecewise quadratic in t with its knots in that table: it is inverted by
finding each point's piece, a bisection over its blended cumulative row
that blends one entry per step, and taking the stable root of the
quadratic.  Each conditional slice is renormalized, which kills quadrature
drift across slices.

Evaluation is vectorized over points, in batches of at most
``_CHUNK_ROWS``.

A GridDensity is also the density resolver of the package: calling it
evaluates its multilinear interpolant, zero outside [0, 1]^d.  It and the
conditional slices share one corner walk (``_corners``) and one blend
(``_blend``), and every uniform cell comes from ``numerics.uniform_cell``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from reluflow.numerics import (
    grid_points,
    solve_increasing,
    trapezoid_all,
    uniform_cell,
)

# width of the bracket in which the isotopy inverse is solved
ISOTOPY_TOL = 1e-10
# KRMap evaluates points in batches of this many: the kr target's map and
# inverse on 16,384 points, in eight fresh processes per size, took a
# median 18.4 ms in batches of 4,096 or 2,048 points, 19.0 ms in batches of
# 8,192 and 22.0 ms in one batch (shared 2-core VM, numpy 2.4.6)
_CHUNK_ROWS = 4096


class DensityDegeneracyError(ValueError):
    """A conditional slice has no positive mass, or a CDF target lies
    outside [0, 1]."""


def _read_only(v: np.ndarray) -> np.ndarray:
    v.flags.writeable = False
    return v


def _cell(nodes: np.ndarray, x: np.ndarray) -> tuple:
    """Each x's cell i on the uniform ``nodes`` of [0, 1], clamped to the
    end cells, and its fraction (x - nodes[i]) / width, outside [0, 1] where
    x is.  At a node the fraction is exactly 0 or 1.  A NaN x gets the last
    cell and a NaN fraction."""
    last = len(nodes) - 2
    i = uniform_cell(x, 0.0, last + 1, last)
    left = nodes[i]
    return i, (x - left) / (nodes[i + 1] - left)


def _corners(axes: tuple, X: np.ndarray) -> tuple:
    """The cells of the rows of X (n, j) on the tensor grid of the node
    arrays ``axes``: the C-order flat index of each row's first corner, the
    flat offsets of a cell's 2^j corners from it, and per axis the blend
    weights (1 - f, f) of the row's fraction f (``_cell``)."""
    index, offsets, weights = np.zeros(len(X), dtype=np.intp), [0], []
    for nodes, x in zip(axes, X.T):
        i, f = _cell(nodes, x)
        index = index * len(nodes) + i
        offsets = [o * len(nodes) + c for o in offsets for c in (0, 1)]
        weights.append((1.0 - f, f))
    return index, offsets, weights


def _blend(values: np.ndarray, index: np.ndarray, offsets: list,
           weights: list) -> np.ndarray:
    """Each point's multilinear blend of the corner entries values.flat[index
    + o], o in ``offsets``, one axis at a time, the last axis first."""
    flat = values.reshape(-1)
    corners = [flat[o:].take(index) for o in offsets]
    for w0, w1 in reversed(weights):
        corners = [lo * w0 + hi * w1
                   for lo, hi in zip(corners[::2], corners[1::2])]
    return corners[0]


@dataclass(frozen=True)
class GridDensity:
    """Strictly positive values on an inclusive tensor grid over [0,1]^d;
    calling it evaluates the multilinear interpolant."""

    values: np.ndarray
    nodes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim < 1:
            raise ValueError("values must be a tensor")
        if np.any(v <= 0):
            raise ValueError("density values must be strictly positive")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "nodes", tuple(
            _read_only(np.linspace(0.0, 1.0, n)) for n in v.shape))

    @property
    def d(self) -> int:
        return self.values.ndim

    def __call__(self, X) -> np.ndarray:
        """The multilinear interpolant at the rows of X (n, d).

        Zero outside [0, 1]^d and NaN on a row holding NaN: the 2^d corner
        values of each row's cell (``_corners``) are blended (``_blend``).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"points must have shape (n, {self.d}); got "
                             f"{X.shape}")
        Xc = np.clip(X, 0.0, 1.0)
        inside = np.all(Xc == X, axis=1)       # False on NaN as well
        # exactly 0 outside; NaN * 0 keeps a NaN row NaN
        return _blend(self.values, *_corners(self.nodes, Xc)) * inside

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


class _SliceTable:
    """A marginal's density rows along its last axis, with their cumulative
    piece integrals; both read-only.

    Row r of ``dens`` is the marginal at the r-th node of the leading axes
    (C order).  Row r of ``cum`` is 0 followed by the cumsum of the pieces
    widths * (dens[r, :-1] + dens[r, 1:]) / 2.  Both are linear in the
    density, so the blend of rows that gives a conditional slice gives its
    cumulative integrals too.
    """

    def __init__(self, marg: GridDensity):
        self.lead = marg.nodes[:-1]
        self.nodes = marg.nodes[-1]
        self.widths = np.diff(self.nodes)
        self.dens = _read_only(marg.values.reshape(-1, len(self.nodes)))
        pieces = self.widths * (self.dens[:, :-1] + self.dens[:, 1:]) / 2.0
        self.cum = _read_only(np.concatenate(
            [np.zeros((len(pieces), 1)), np.cumsum(pieces, axis=1)], axis=1))

    def at(self, prefix: np.ndarray) -> "_ConditionalCDF":
        """The conditional CDFs at the rows of ``prefix`` (n, k-1).

        Each slice blends the rows at the corners of the prefix's grid cell
        with multilinear weights; a prefix outside [0, 1] extrapolates the
        boundary cell linearly.
        """
        return _ConditionalCDF(self, *_corners(self.lead, prefix))


class _ConditionalCDF:
    """Batched normalized CDFs of piecewise-linear densities on shared nodes.

    Point p's density slice blends (``_blend``) the ``table.dens`` rows at
    the corners of its prefix's cell (``_corners``).  Its CDF is exact
    (trapezoid of the endpoint values, partial piece up to t via the
    interpolated density at t), so F is piecewise quadratic in t, with its
    knots in the same blend of ``table.cum``.  Piece i spans
    [nodes[i], nodes[i + 1]]; the last node starts an empty piece, so that
    t = 1 and F = 1 meet on a knot exactly.
    """

    def __init__(self, table: _SliceTable, index: np.ndarray, offsets: list,
                 weights: list):
        m = len(table.nodes)
        self.table, self._weights = table, weights
        # flat starts of each point's first corner row, and of the others
        self._start, self._offsets = index * m, [o * m for o in offsets]
        self.total = self.entry(table.cum, m - 1)
        if np.any(self.total <= 0):
            raise DensityDegeneracyError("conditional slice has zero mass")

    def entry(self, values: np.ndarray, col) -> np.ndarray:
        """Entry ``col`` (one per point, or shared) of each point's slice of
        the table ``values`` (``table.dens`` or ``table.cum``)."""
        return _blend(values, self._start + col, self._offsets,
                      self._weights)

    def _piece(self, i: np.ndarray) -> tuple:
        """Left density and density slope of piece i, per point."""
        last = len(self.table.nodes) - 1
        d0 = self.entry(self.table.dens, i)
        d1 = self.entry(self.table.dens, np.minimum(i + 1, last))
        return d0, (d1 - d0) / self.table.widths[np.minimum(i, last - 1)]

    def eval(self, t: np.ndarray) -> np.ndarray:
        t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        nodes = self.table.nodes
        # floor(t (m - 1)), so t = 1 opens the empty last piece
        i = uniform_cell(t, 0.0, len(nodes) - 1, len(nodes) - 1)
        d0, slope = self._piece(i)
        frac = t - nodes[i]
        dens_t = d0 + slope * frac
        partial = self.entry(self.table.cum, i) + frac * (d0 + dens_t) / 2.0
        return partial / self.total

    def invert(self, targets: np.ndarray) -> np.ndarray:
        """F^{-1}(targets): the piece holding each target mass r, then the
        root f of d0 f + slope f^2 / 2 = r, clipped to the piece.

        The piece comes from a bisection over the point's blended
        cumulative row, which increases for a prefix in [0, 1].  A prefix
        outside extrapolates, and its row may fall somewhere; the bisection
        then still returns a piece i whose entry i is <= the mass (or
        i = 0), not necessarily the one holding it.
        """
        targets = np.asarray(targets, dtype=float)
        if np.any(targets < -1e-12) or np.any(targets > 1 + 1e-12):
            raise DensityDegeneracyError("CDF target outside [0, 1]")
        nodes, cum = self.table.nodes, self.table.cum
        last = len(nodes) - 1
        mass = targets * self.total
        # i = how many of the blended cumulative entries 1 ... last are <=
        # mass, by bisection over the increasing row: the first probe leaves
        # 2^p - 1 candidates above i, and halving steps never pass ``last``
        span = (1 << (last.bit_length() - 1)) - 1
        i = np.where(self.entry(cum, last - span) <= mass, last - span, 0)
        step = (span + 1) >> 1
        while step:
            np.add(i, step, out=i, where=self.entry(cum, i + step) <= mass)
            step >>= 1
        d0, slope = self._piece(i)
        r = mass - self.entry(cum, i)
        # the stable root: no cancellation for either sign of the slope
        f = 2.0 * r / (d0 + np.sqrt(np.maximum(d0 * d0 + 2.0 * slope * r,
                                                0.0)))
        right = nodes[np.minimum(i + 1, last)]
        return nodes[i] + np.clip(f, 0.0, right - nodes[i])


def conditional_cdf(rho: GridDensity, k: int, t: float, x_prefix=()) -> float:
    """F^k(t | x_{1:k-1}) of the grid density; strictly increasing in t."""
    prefix = np.asarray(x_prefix, dtype=float).reshape(1, k - 1)
    F = _SliceTable(marginal(rho, k)).at(prefix)
    return float(F.eval(np.array([t]))[0])


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
        # read-only slice tables of every marginal: (source, target) pairs
        object.__setattr__(self, "_tables", tuple(
            (_SliceTable(marginal(self.rho0, k)),
             _SliceTable(marginal(self.rho1, k)))
            for k in range(1, self.d + 1)))

    @property
    def d(self) -> int:
        return self.rho0.d

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"points must have shape (n, {self.d}); got "
                             f"{X.shape}")
        phi = np.empty_like(X)
        for start in range(0, X.shape[0], _CHUNK_ROWS):
            x, out = X[start:start + _CHUNK_ROWS], phi[start:start + _CHUNK_ROWS]
            # source CDFs at the leading coordinates, target at their images
            for k, (T0, T1) in enumerate(self._tables):
                F0, F1 = T0.at(x[:, :k]), T1.at(out[:, :k])
                out[:, k] = F1.invert(F0.eval(x[:, k]))
        return phi


def _isotopy_inverse(phi: KRMap, t: float, X: np.ndarray) -> np.ndarray:
    """Solve (1-t) y + t phi(y) = x coordinate by coordinate (triangular).

    phi_t(y)_k = (1-t) y_k + t phi_k(y_{1:k}) is increasing in y_k, so each
    coordinate is recovered by one batched ``solve_increasing`` on [0, 1],
    to ``ISOTOPY_TOL``, given the previous ones; every step evaluates phi_k
    in closed form.  The conditional CDFs of coordinate k depend only on
    the previous coordinates, so they are built once per coordinate.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.empty_like(X)
    Phi_prefix = np.empty_like(X)
    for k, (T0, T1) in enumerate(phi._tables):
        F0, F1 = T0.at(Y[:, :k]), T1.at(Phi_prefix[:, :k])

        def phi_t(y):
            return (1.0 - t) * y + t * F1.invert(F0.eval(y))
        Y[:, k] = solve_increasing(phi_t, X[:, k], 0.0, 1.0, ISOTOPY_TOL)
        Phi_prefix[:, k] = F1.invert(F0.eval(Y[:, k]))
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
