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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from reluflow.compressible import MonotoneProfile, eval_profile
from reluflow.mesh import PiecewiseAffineMap, Simplex, validate_homeomorphism


class FactorizationError(ValueError):
    """Input map cannot be factorized (orientation or geometry failure)."""


@dataclass(frozen=True)
class CellMap:
    """Swap-rule map: B_j on source cell j, B_j^{-1} on target cell j, id elsewhere.

    Every affine part is volume preserving (|det| = 1), so the map is a
    measure-preserving bijection away from the (null) cell boundaries.
    """

    sources: tuple      # Simplex per cell
    targets: tuple      # Simplex per cell (images of sources)
    A: np.ndarray       # (M, d, d)
    b: np.ndarray       # (M, d)

    def __post_init__(self):
        A_inv = np.linalg.inv(self.A) if len(self.sources) else np.empty_like(self.A)
        object.__setattr__(self, "_A_inv", A_inv)

    @property
    def n_cells(self) -> int:
        return len(self.sources)

    def eval_points(self, X: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = X.copy()
        done = np.zeros(X.shape[0], dtype=bool)
        for j in range(self.n_cells):
            todo = ~done
            if not todo.any():
                break
            hit = np.zeros_like(done)
            hit[todo] = self.sources[j].contains(X[todo], tol)
            if hit.any():
                out[hit] = X[hit] @ self.A[j].T + self.b[j]
                done |= hit
            todo = ~done
            if not todo.any():
                break
            hit = np.zeros_like(done)
            hit[todo] = self.targets[j].contains(X[todo], tol)
            if hit.any():
                out[hit] = (X[hit] - self.b[j]) @ self._A_inv[j].T
                done |= hit
        return out


def eval_cell_map(m: CellMap, x) -> np.ndarray:
    return m.eval_points(np.asarray(x, dtype=float)[None, :])[0]


@dataclass(frozen=True)
class TowerLayout:
    """Geometry of the tower: offset L, reference simplex, intervals I_j."""

    L: float
    ref_vertices: np.ndarray      # (d+1, d) unit-volume reference simplex
    s: np.ndarray                 # side scales V_j^{1/d}
    H: np.ndarray                 # prefix sums: interval starts are L + H_j
    tower_simplices: tuple        # Simplex per cell

    @property
    def intervals(self) -> np.ndarray:
        """I_j = [L + H_j, L + H_j + s_j), stacked as (M, 2)."""
        starts = self.L + self.H
        return np.column_stack([starts, starts + self.s])


@dataclass(frozen=True)
class Factorization:
    m1: CellMap
    profile: MonotoneProfile
    m2: CellMap
    layout: TowerLayout
    lam: np.ndarray        # per-simplex Jacobian factors

    def eval_g(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = X.copy()
        out[:, 0] = eval_profile(self.profile, X[:, 0])
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
    V = np.zeros((d + 1, d))
    for i in range(1, d + 1):
        V[i] = V[i - 1]
        V[i, i - 1] += 1.0
    if d > 1:
        V[:, 1:] *= math.factorial(d) ** (1.0 / (d - 1))
    return V


def _affine_through(P: np.ndarray, Q: np.ndarray):
    """The unique affine map with P_i -> Q_i for d+1 independent points."""
    E = (P[1:] - P[0]).T
    F = (Q[1:] - Q[0]).T
    A = F @ np.linalg.inv(E)
    return A, Q[0] - A @ P[0]


def polar_factorize(pa_map: PiecewiseAffineMap) -> Factorization:
    """Build the tower factorization of a positively-oriented interpolant."""
    report = validate_homeomorphism(pa_map)
    if report.mixed_signs or report.orientation_reversing or report.n_near_zero:
        raise FactorizationError(
            "input must be uniformly positively oriented "
            f"(+{report.n_positive}/-{report.n_negative}/0:{report.n_near_zero})")
    tri = pa_map.triangulation
    d = tri.d
    M = tri.n_simplices

    volumes = np.array([tri.simplex(j).volume for j in range(M)])
    lam = pa_map.dets()
    s = volumes ** (1.0 / d)
    H = np.concatenate([[0.0], np.cumsum(s)[:-1]])

    # tower offset: beyond the x1 extent of the domain and the image
    image_vertices = pa_map.eval_points(tri.vertices)
    x1_max = max(tri.domain.upper[0], float(image_vertices[:, 0].max()))
    extent = float(np.max(tri.domain.sides))
    L = x1_max + max(2.0, extent)

    ref = _reference_simplex(d)
    e1 = np.zeros(d)
    e1[0] = 1.0

    sourcesA, targetsA, As1, bs1 = [], [], [], []
    sources2, targets2, As2, bs2 = [], [], [], []
    tower = []
    # profile: identity below the tower, slope lambda_j on I_j, identity above
    breaks = [L - 1.0, L]
    slopes = [1.0]
    g_start = L     # psi'(L + H_j), updated as intervals accumulate

    for j in range(M):
        src = tri.simplex(j)
        Vt = s[j] * ref + (L + H[j]) * e1
        tower.append(Simplex(Vt))
        # volume-preserving B_j with det +1 (swap two target labels if needed)
        A1, b1 = _affine_through(src.vertices, Vt)
        order = np.arange(d + 1)
        if np.linalg.det(A1) < 0:
            order[[d - 1, d]] = order[[d, d - 1]]
            A1, b1 = _affine_through(src.vertices, Vt[order])
        det1 = np.linalg.det(A1)
        if abs(abs(det1) - 1.0) > 1e-8:
            raise FactorizationError(f"cell {j}: |det B| = {abs(det1):.3g} != 1")
        sourcesA.append(src)
        targetsA.append(tower[-1])
        As1.append(A1)
        bs1.append(b1)

        slopes.append(lam[j])
        breaks.append(L + H[j] + s[j])

        # C_j: g(B_j v_i) -> phi(v_i), forced by the vertex pairing
        P = Vt[order].copy()
        Q = pa_map.A[j] @ src.vertices.T
        Q = Q.T + pa_map.b[j]
        # apply g to the tower vertices (affine on the closed interval I_j)
        Pg = P.copy()
        Pg[:, 0] = lam[j] * (P[:, 0] - (L + H[j])) + g_start
        g_start += lam[j] * s[j]
        A2, b2 = _affine_through(Pg, Q)
        det2 = np.linalg.det(A2)
        if abs(det2 - 1.0) > 1e-6:
            raise FactorizationError(f"cell {j}: det C = {det2:.6g} != +1")
        sources2.append(Simplex(Pg))
        targets2.append(Simplex(Q))
        As2.append(A2)
        bs2.append(b2)

    breaks.append(breaks[-1] + 1.0)
    slopes.append(1.0)
    # beta0 = 0 with slope 1 on the first piece makes psi'(x) = x below L
    profile = MonotoneProfile(np.asarray(breaks), np.asarray(slopes), beta0=0.0)

    layout = TowerLayout(L, ref, s, H, tuple(tower))
    m1 = CellMap(tuple(sourcesA), tuple(targetsA), np.array(As1), np.array(bs1))
    m2 = CellMap(tuple(sources2), tuple(targets2), np.array(As2), np.array(bs2))
    return Factorization(m1, profile, m2, layout, lam)


def check_factorization(pa_map: PiecewiseAffineMap, f: Factorization,
                        n_samples: int, seed: int = 0) -> float:
    """Max |m2(g(m1(x))) - phi(x)| over random interior samples."""
    rng = np.random.default_rng(seed)
    tri = pa_map.triangulation
    M = tri.n_simplices
    per = max(n_samples // M, 1)
    worst = 0.0
    for j in range(M):
        simplex = tri.simplex(j)
        lam = rng.dirichlet(np.ones(tri.d + 1), size=per)
        X = lam @ simplex.vertices
        err = np.abs(f.eval_points(X) - pa_map.eval_points(X)).max()
        worst = max(worst, float(err))
    return worst
