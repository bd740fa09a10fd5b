"""Factorization of a piecewise-affine homeomorphism into m2 ∘ g ∘ m1.

Given a positively-oriented piecewise-affine homeomorphism phi on a
triangulated box, build:

* a *tower*: a stack of disjoint scaled copies of a unit-volume reference
  simplex placed along +e1, beyond both the domain and its image;
* m1: a measure-preserving cell map sending each domain simplex T_j onto its
  tower copy T'_j by a volume-preserving affine map B_j with det = +1
  (identity elsewhere);
* g: the compressible factor (psi'(x1), x2, ..., xd), where psi' is a
  monotone profile with slope lambda_j = |phi(T_j)| / |T_j| on the tower
  interval I_j and slope 1 elsewhere (identity below the tower);
* m2: a measure-preserving cell map sending g(T'_j) onto phi(T_j) with
  det = +1 matching the vertex images.

On each simplex both affine maps agree with phi at d+1 affinely independent
points, hence m2 ∘ g ∘ m1 = phi exactly (up to roundoff) on the whole
domain.

The construction is array code over all M cells at once: the tower, both
cell maps and the profile are built from (M, d+1, d) vertex stacks with one
``affine_through`` batch per cell map.  Only ``CellMap.eval_points`` loops
over cells, because the swap rule lets the first containing cell win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from reluflow.compressible import slope_profile
from reluflow.mesh import (PiecewiseAffineMap, affine_through, in_simplex,
                           simplex_edges, simplex_volumes,
                           validate_homeomorphism)
from reluflow.pipeline import FactorizationError
from reluflow.schedule import PiecewiseLinear


@dataclass(frozen=True)
class CellMap:
    """Swap-rule map: B_j on source cell j, B_j^{-1} on target cell j, id elsewhere.

    Every affine part is volume preserving (|det| = 1), so the map is a
    measure-preserving bijection away from the (null) cell boundaries.
    """

    sources: np.ndarray     # (M, d+1, d) vertices per cell
    targets: np.ndarray     # (M, d+1, d) vertices of the images of sources
    A: np.ndarray           # (M, d, d)
    b: np.ndarray           # (M, d)

    def __post_init__(self):
        object.__setattr__(self, "_A_inv", np.linalg.inv(self.A))
        object.__setattr__(self, "_src_inv",
                           np.linalg.inv(simplex_edges(self.sources)))
        object.__setattr__(self, "_tgt_inv",
                           np.linalg.inv(simplex_edges(self.targets)))

    @property
    def n_cells(self) -> int:
        return len(self.sources)

    def eval_points(self, X: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Cell by cell, source before target: the first containing cell wins."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = X.copy()
        todo = np.arange(len(X))
        for j in range(self.n_cells):
            if not len(todo):
                break
            hit = in_simplex(X[todo], self.sources[j], self._src_inv[j], tol)
            rows = todo[hit]
            out[rows] = X[rows] @ self.A[j].T + self.b[j]
            todo = todo[~hit]
            hit = in_simplex(X[todo], self.targets[j], self._tgt_inv[j], tol)
            rows = todo[hit]
            out[rows] = (X[rows] - self.b[j]) @ self._A_inv[j].T
            todo = todo[~hit]
        return out


@dataclass(frozen=True)
class TowerLayout:
    """Geometry of the tower: offset L, reference simplex, intervals I_j."""

    L: float
    ref_vertices: np.ndarray      # (d+1, d) unit-volume reference simplex
    s: np.ndarray                 # side scales V_j^{1/d}
    H: np.ndarray                 # prefix sums: interval starts are L + H_j

    @property
    def intervals(self) -> np.ndarray:
        """I_j = [L + H_j, L + H_j + s_j), stacked as (M, 2)."""
        starts = self.L + self.H
        return np.column_stack([starts, starts + self.s])


@dataclass(frozen=True)
class Factorization:
    m1: CellMap
    profile: PiecewiseLinear
    m2: CellMap
    layout: TowerLayout
    lam: np.ndarray        # per-simplex Jacobian factors

    def eval_g(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = X.copy()
        out[:, 0] = self.profile(X[:, 0])
        return out

    def eval_points(self, X: np.ndarray) -> np.ndarray:
        # loose membership tolerance: vertices sit exactly on cell boundaries
        Y = self.m1.eval_points(X, tol=1e-9)
        return self.m2.eval_points(self.eval_g(Y), tol=1e-9)


def _reference_simplex(d: int) -> np.ndarray:
    """Unit-volume simplex with x1-projection [0, 1].

    Start from the first-orthant Kuhn simplex (vertices 0, e1, e1+e2, ...)
    and scale coordinates 2..d by (d!)^{1/(d-1)} to normalize the volume.
    """
    V = np.tril(np.ones((d + 1, d)), -1)
    if d > 1:
        V[:, 1:] *= math.factorial(d) ** (1.0 / (d - 1))
    return V


def _first_failure(bad: np.ndarray, what: str, value: np.ndarray):
    if bad.any():
        j = int(np.argmax(bad))
        raise FactorizationError(f"cell {j}: {what} = {value[j]:.6g} != 1")


def polar_factorize(pa_map: PiecewiseAffineMap) -> Factorization:
    """Build the tower factorization of a positively-oriented interpolant."""
    report = validate_homeomorphism(pa_map)
    if report.mixed_signs or report.orientation_reversing or report.n_near_zero:
        raise FactorizationError(
            "input must be uniformly positively oriented "
            f"(+{report.n_positive}/-{report.n_negative}/0:{report.n_near_zero})")
    tri = pa_map.triangulation
    d = tri.d
    src = tri.vertices[tri.simplices]                    # (M, d+1, d)

    lam = report.dets
    s = simplex_volumes(src) ** (1.0 / d)
    H = np.concatenate([[0.0], np.cumsum(s)[:-1]])

    # tower offset: beyond the x1 extent of the domain and the image
    image_vertices = pa_map.eval_points(tri.vertices)
    x1_max = max(tri.domain.upper[0], float(image_vertices[:, 0].max()))
    L = x1_max + max(2.0, float(np.max(tri.domain.sides)))
    starts = L + H

    ref = _reference_simplex(d)
    e1 = np.eye(d)[0]
    tower = s[:, None, None] * ref + starts[:, None, None] * e1

    # volume-preserving B_j with det +1: swap the last two tower labels of
    # the cells where the plain vertex pairing reverses orientation
    order = np.tile(np.arange(d + 1), (len(src), 1))
    flip = np.linalg.det(affine_through(src, tower)[0]) < 0
    order[flip, d - 1:] = [d, d - 1]
    P = np.take_along_axis(tower, order[:, :, None], axis=1)
    A1, b1 = affine_through(src, P)
    det1 = np.abs(np.linalg.det(A1))
    _first_failure(np.abs(det1 - 1.0) > 1e-8, "|det B|", det1)

    # C_j: g(B_j v_i) -> phi(v_i), forced by the vertex pairing; g is affine
    # with slope lambda_j on the closed interval I_j, which starts at g_start
    g_start = np.cumsum(np.concatenate([[L], lam * s]))[:-1]
    Pg = P.copy()
    Pg[..., 0] = lam[:, None] * (P[..., 0] - starts[:, None]) + g_start[:, None]
    Q = src @ np.swapaxes(pa_map.A, 1, 2) + pa_map.b[:, None]
    A2, b2 = affine_through(Pg, Q)
    det2 = np.linalg.det(A2)
    _first_failure(np.abs(det2 - 1.0) > 1e-6, "det C", det2)

    # profile: identity below the tower, slope lambda_j on I_j, identity
    # above; beta0 = 0 with slope 1 on the first piece makes psi'(x) = x
    # below L
    ends = starts + s
    breaks = np.concatenate([[L - 1.0, L], ends, [ends[-1] + 1.0]])
    slopes = np.concatenate([[1.0], lam, [1.0]])
    profile = slope_profile(breaks, slopes, beta0=0.0)

    layout = TowerLayout(L, ref, s, H)
    return Factorization(CellMap(src, tower, A1, b1), profile,
                         CellMap(Pg, Q, A2, b2), layout, lam)


def check_factorization(pa_map: PiecewiseAffineMap, f: Factorization,
                        n_samples: int, seed: int = 0) -> float:
    """Max |m2(g(m1(x))) - phi(x)| over random interior samples."""
    rng = np.random.default_rng(seed)
    tri = pa_map.triangulation
    per = max(n_samples // tri.n_simplices, 1)
    weights = rng.dirichlet(np.ones(tri.d + 1), size=(tri.n_simplices, per))
    X = (weights @ tri.vertices[tri.simplices]).reshape(-1, tri.d)
    return float(np.abs(f.eval_points(X) - pa_map.eval_points(X)).max())
