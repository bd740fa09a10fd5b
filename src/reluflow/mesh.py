"""Rectangular domains, uniform Kuhn triangulations, Lagrange interpolation.

A box is cut into a uniform grid of cells and each cell into d! Kuhn
(Freudenthal) simplices: the simplex of a permutation pi consists of the
points whose local cell coordinates satisfy t_{pi(0)} >= ... >= t_{pi(d-1)}.
This triangulation is face-compatible across cells, and point location is a
closed-form operation (cell index + argsort of local coordinates).

A vertex-sampled map is interpolated by the unique affine map per simplex
through the d+1 vertex values, giving a piecewise-affine approximation of a
smooth diffeomorphism with O(h^2) sup error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from reluflow.numerics import grid_points


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned box { lower <= x <= upper }."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower/upper must be 1-d vectors of equal length")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower must be strictly below upper componentwise")

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    @property
    def sides(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains(self, X: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.all((X >= self.lower - tol) & (X <= self.upper + tol), axis=1)

    def sample(self, rng, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.d))


@dataclass(frozen=True)
class Simplex:
    """A nondegenerate d-simplex given by its d+1 vertices (rows)."""

    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        if abs(self.signed_volume) <= 0.0:
            raise ValueError("degenerate simplex")

    @property
    def d(self) -> int:
        return self.vertices.shape[1]

    @property
    def edges(self) -> np.ndarray:
        """Columns v_i - v_0, i = 1..d."""
        return (self.vertices[1:] - self.vertices[0]).T

    @property
    def signed_volume(self) -> float:
        return float(np.linalg.det(self.edges)) / math.factorial(self.d)

    @property
    def volume(self) -> float:
        return abs(self.signed_volume)

    def barycentric(self, X: np.ndarray) -> np.ndarray:
        """Barycentric coordinates (N, d+1) of points (N, d)."""
        X = np.atleast_2d(X)
        lam = np.linalg.solve(self.edges, (X - self.vertices[0]).T).T
        return np.column_stack([1.0 - lam.sum(axis=1), lam])

    def contains(self, X: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        return np.all(self.barycentric(X) >= -tol, axis=1)


@dataclass(frozen=True)
class Triangulation:
    """Kuhn triangulation of a box: shared vertex table + index tuples."""

    domain: RectDomain
    vertices: np.ndarray          # (V, d)
    simplices: np.ndarray         # (M, d+1) int indices into vertices
    cells: np.ndarray             # per-axis cell counts, shape (d,)
    h: np.ndarray                 # per-axis cell pitch, shape (d,)
    _perm_rank: dict = field(repr=False, default_factory=dict)

    @property
    def d(self) -> int:
        return self.domain.d

    @property
    def n_simplices(self) -> int:
        return self.simplices.shape[0]

    def simplex(self, j: int) -> Simplex:
        return Simplex(self.vertices[self.simplices[j]])

    def locate(self, X: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Containing simplex index per point; raises if any point is outside."""
        X = np.atleast_2d(X)
        if not np.all(self.domain.contains(X, tol)):
            bad = np.where(~self.domain.contains(X, tol))[0]
            raise ValueError(f"points outside domain at rows {bad[:5].tolist()}")
        d = self.d
        rel = (X - self.domain.lower) / self.h
        cell = np.clip(np.floor(rel).astype(int), 0, self.cells - 1)
        t = rel - cell
        # descending order of local coordinates identifies the Kuhn simplex
        order = np.argsort(-t, axis=1, kind="stable")
        fact = math.factorial(d)
        cell_flat = np.ravel_multi_index(cell.T, self.cells)
        local = np.array([self._perm_rank[tuple(o)] for o in order])
        return cell_flat * fact + local


def kuhn_triangulate(domain: RectDomain, h: float) -> Triangulation:
    """Uniform Kuhn triangulation with target pitch h.

    If h does not divide a side length within 1e-9 it is shrunk (per axis)
    to the nearest exact divisor, so the mesh always tiles the box exactly.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    d = domain.d
    sides = domain.sides
    cells = np.maximum(np.ceil(sides / h - 1e-9).astype(int), 1)
    pitch = sides / cells
    # vertex lattice
    vertices = grid_points([domain.lower[k] + pitch[k] * np.arange(cells[k] + 1)
                            for k in range(d)])
    vshape = tuple(cells + 1)

    perms = list(itertools.permutations(range(d)))
    perm_rank = {p: i for i, p in enumerate(perms)}

    # per cell, per permutation: walk the cube corners along the permutation
    simplices = []
    for cidx in itertools.product(*[range(n) for n in cells]):
        base = np.array(cidx)
        for p in perms:
            corner = base.copy()
            idx = [np.ravel_multi_index(tuple(corner), vshape)]
            for axis in p:
                corner = corner.copy()
                corner[axis] += 1
                idx.append(np.ravel_multi_index(tuple(corner), vshape))
            simplices.append(idx)
    return Triangulation(domain, vertices, np.asarray(simplices, dtype=int),
                         cells, pitch, perm_rank)


@dataclass(frozen=True)
class PiecewiseAffineMap:
    """Per-simplex affine maps x -> A_j x + b_j over a triangulation."""

    triangulation: Triangulation
    A: np.ndarray   # (M, d, d)
    b: np.ndarray   # (M, d)

    @property
    def d(self) -> int:
        return self.triangulation.d

    def eval_points(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        j = self.triangulation.locate(X)
        return np.einsum("nij,nj->ni", self.A[j], X) + self.b[j]

    def dets(self) -> np.ndarray:
        return np.linalg.det(self.A)


def lagrange_interpolate(f, tri: Triangulation) -> PiecewiseAffineMap:
    """Affine interpolant through the vertex values of f on each simplex.

    ``f`` is either a callable taking an (N, d) array or a precomputed
    (V, d) array of vertex values.
    """
    if callable(f):
        values = np.asarray(f(tri.vertices), dtype=float)
    else:
        values = np.asarray(f, dtype=float)
    if values.shape != tri.vertices.shape:
        raise ValueError("vertex values must have shape (n_vertices, d)")
    if not np.all(np.isfinite(values)):
        raise ValueError("vertex values must be finite")
    M = tri.n_simplices
    d = tri.d
    A = np.empty((M, d, d))
    b = np.empty((M, d))
    for j in range(M):
        idx = tri.simplices[j]
        V = tri.vertices[idx]
        F = values[idx]
        E = (V[1:] - V[0]).T
        G = (F[1:] - F[0]).T
        try:
            A[j] = G @ np.linalg.inv(E)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"degenerate simplex {j}") from exc
        b[j] = F[0] - A[j] @ V[0]
    return PiecewiseAffineMap(tri, A, b)


def eval_pa_map(pa_map: PiecewiseAffineMap, x) -> np.ndarray:
    """Evaluate at a single point (point location + affine evaluation)."""
    return pa_map.eval_points(np.asarray(x, dtype=float)[None, :])[0]


@dataclass(frozen=True)
class HomeomorphismReport:
    dets: np.ndarray
    n_positive: int
    n_negative: int
    n_near_zero: int
    min_abs_det: float
    mixed_signs: bool
    orientation_reversing: bool

    @property
    def ok(self) -> bool:
        """Uniformly positively oriented with no near-singular piece."""
        return (not self.mixed_signs and not self.orientation_reversing
                and self.n_near_zero == 0)


def validate_homeomorphism(pa_map: PiecewiseAffineMap,
                           near_zero: float = 1e-10) -> HomeomorphismReport:
    """Sign pattern and conditioning of the per-simplex Jacobians."""
    dets = pa_map.dets()
    n_pos = int(np.sum(dets > near_zero))
    n_neg = int(np.sum(dets < -near_zero))
    n_zero = int(np.sum(np.abs(dets) <= near_zero))
    return HomeomorphismReport(
        dets=dets,
        n_positive=n_pos,
        n_negative=n_neg,
        n_near_zero=n_zero,
        min_abs_det=float(np.min(np.abs(dets))) if dets.size else 0.0,
        mixed_signs=(n_pos > 0 and n_neg > 0),
        orientation_reversing=(n_neg > 0 and n_pos == 0),
    )
