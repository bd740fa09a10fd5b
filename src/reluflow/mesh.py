"""Uniform Kuhn triangulations and Lagrange interpolation.

A box (``numerics.RectDomain``) is cut into a uniform grid of cells and
each cell into d! Kuhn (Freudenthal) simplices: the simplex of a
permutation pi consists of the points whose local cell coordinates satisfy
t_{pi(0)} >= ... >= t_{pi(d-1)}.
This triangulation is face-compatible across cells, and point location is a
closed-form operation (cell index + the rank of the argsort of the local
coordinates).

Everything is stored as arrays: a triangulation is a vertex table (V, d)
and index rows (M, d+1); a stack of simplices is an (M, d+1, d) array of
vertex rows, from which ``simplex_edges``, ``simplex_volumes`` and
``affine_through`` work in one batch.  A vertex-sampled map is interpolated
by the unique affine map per simplex through the d+1 vertex values, giving
a piecewise-affine approximation of a smooth diffeomorphism with O(h^2) sup
error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from reluflow.numerics import RectDomain, grid_points


def simplex_edges(V: np.ndarray) -> np.ndarray:
    """Edge matrices (..., d, d) of simplices V (..., d+1, d): columns v_i - v_0."""
    return np.swapaxes(V[..., 1:, :] - V[..., :1, :], -1, -2)


def simplex_volumes(V: np.ndarray) -> np.ndarray:
    """Volumes (M,) of the simplices V (M, d+1, d)."""
    return np.abs(np.linalg.det(simplex_edges(V))) / math.factorial(V.shape[-1])


def in_simplex(X: np.ndarray, V: np.ndarray, E_inv: np.ndarray,
               tol: float) -> np.ndarray:
    """Mask of the points X (N, d) in the simplex V (d+1, d) within tol in
    barycentric coordinates; E_inv is the inverse of its edge matrix."""
    lam = (X - V[0]) @ E_inv.T
    return np.all(lam >= -tol, axis=1) & (1.0 - lam.sum(axis=1) >= -tol)


def affine_through(P: np.ndarray, Q: np.ndarray):
    """Per simplex m, the affine map x -> A_m x + b_m with P_mi -> Q_mi.

    P and Q are (M, d+1, d) stacks of affinely independent points; returns
    A (M, d, d) and b (M, d).
    """
    A = simplex_edges(Q) @ np.linalg.inv(simplex_edges(P))
    return A, Q[:, 0] - (A @ P[:, 0, :, None])[..., 0]


@dataclass(frozen=True)
class Triangulation:
    """Kuhn triangulation of a box: shared vertex table + index rows.

    Simplex j = c d! + r is the r-th permutation, in lexicographic order, of
    cell c (C order): its vertices walk the cell's corners along that
    permutation of the axes.
    """

    domain: RectDomain
    vertices: np.ndarray          # (V, d)
    simplices: np.ndarray         # (M, d+1) int indices into vertices
    cells: np.ndarray             # per-axis cell counts, shape (d,)
    h: np.ndarray                 # per-axis cell pitch, shape (d,)

    @property
    def d(self) -> int:
        return self.domain.d

    @property
    def n_simplices(self) -> int:
        return self.simplices.shape[0]

    def locate(self, X: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Containing simplex index per point; raises if any point is outside."""
        X = np.atleast_2d(X)
        inside = self.domain.contains(X, tol)
        if not np.all(inside):
            bad = np.where(~inside)[0]
            raise ValueError(f"points outside domain at rows {bad[:5].tolist()}")
        d = self.d
        rel = (X - self.domain.lower) / self.h
        cell = np.clip(np.floor(rel).astype(int), 0, self.cells - 1)
        t = rel - cell
        # descending order of local coordinates identifies the Kuhn simplex;
        # its lexicographic rank is the Lehmer code read in factorial base
        order = np.argsort(-t, axis=1, kind="stable")
        rank = np.zeros(len(X), dtype=int)
        for i in range(d - 1):
            smaller = np.sum(order[:, i + 1:] < order[:, i:i + 1], axis=1)
            rank += smaller * math.factorial(d - 1 - i)
        return np.ravel_multi_index(cell.T, self.cells) * math.factorial(d) + rank


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
    vertices = grid_points([domain.lower[k] + pitch[k] * np.arange(cells[k] + 1)
                            for k in range(d)])
    # corner offsets (d!, d+1, d): walk from 0 along each permutation's axes
    perms = np.array(list(itertools.permutations(range(d))), dtype=int)
    steps = np.cumsum(np.eye(d, dtype=int)[perms], axis=1)
    offsets = np.concatenate([np.zeros((len(perms), 1, d), dtype=int), steps],
                             axis=1)
    base = grid_points([np.arange(n) for n in cells])
    corners = base[:, None, None, :] + offsets[None]
    simplices = np.ravel_multi_index(np.moveaxis(corners, -1, 0), cells + 1)
    return Triangulation(domain, vertices, simplices.reshape(-1, d + 1),
                         cells, pitch)


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
    A, b = affine_through(tri.vertices[tri.simplices], values[tri.simplices])
    return PiecewiseAffineMap(tri, A, b)


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
