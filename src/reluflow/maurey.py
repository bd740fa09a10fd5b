"""Single-neuron sampling of time-dependent ReLU mixtures.

A field u(t, x) = sum_j mass_j w_j relu(a_j . x + b_j), piecewise constant
in t on a grid, is approximated by a schedule with one neuron per time
interval I_k = [k/N, (k+1)/N]: the neuron is drawn from the cost-weighted
atom distribution on I_k and its outer weight is rescaled so that the
expected field over I_k is reproduced.  The flow error then decays like
N^{-1/2}, which is what the rate study measures.

The atom cost is c(theta) = |w| (R |a| + |b|) on a working ball of radius
R; per-interval masses r_k = int_{I_k} r(t) dt are exact sums because the
mixture is piecewise constant in t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from reluflow.numerics import neuron_field, rk4
from reluflow.schedule import ControlSchedule, Neuron, flow_points


class DegenerateMixtureError(ValueError):
    """Sampling requested from a mixture with zero total cost mass."""


def atom_cost(neuron: Neuron, R: float) -> float:
    """c(theta) = |w| (R |a| + |b|)."""
    return float(np.linalg.norm(neuron.w)
                 * (R * np.linalg.norm(neuron.a) + abs(neuron.b)))


@dataclass(frozen=True)
class BarronAtom:
    neuron: Neuron
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "mass", float(self.mass))
        if self.mass < 0:
            raise ValueError("atom mass must be >= 0")

    def cost(self, R: float) -> float:
        return atom_cost(self.neuron, R)


@dataclass(frozen=True)
class TimeMixture:
    """Piecewise-constant-in-time atom mixture on [0, 1], ball radius R."""

    time_grid: np.ndarray     # 0 = t_0 < ... < t_m = 1
    cells: tuple              # per cell: tuple of BarronAtom
    R: float
    d: int

    def __post_init__(self):
        t = np.asarray(self.time_grid, dtype=float)
        object.__setattr__(self, "time_grid", t)
        object.__setattr__(self, "cells", tuple(tuple(c) for c in self.cells))
        if len(t) < 2 or abs(t[0]) > 1e-12 or abs(t[-1] - 1.0) > 1e-12:
            raise ValueError("time grid must span [0, 1]")
        if not np.all(np.diff(t) > 0):
            raise ValueError("time grid must be increasing")
        if len(self.cells) != len(t) - 1:
            raise ValueError("need one atom list per time cell")
        for cell in self.cells:
            for atom in cell:
                if atom.neuron.d != self.d:
                    raise ValueError("atom dimension mismatch")

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_index(self, t: float) -> int:
        i = int(np.searchsorted(self.time_grid, t, side="right") - 1)
        return min(max(i, 0), self.n_cells - 1)

    def cell_rate(self, i: int) -> float:
        """r(t) = sum mass c(theta) on cell i."""
        return float(sum(a.mass * a.cost(self.R) for a in self.cells[i]))

    def overlaps(self, lo, hi) -> tuple:
        """(overlap, r) for intervals [lo, hi] (scalars or arrays).

        overlap[..., i] = |[lo, hi] ∩ cell i| (<= 0 if disjoint), and
        r = int_lo^hi r(t) dt, summed over the overlapping cells in order.
        """
        t = self.time_grid
        overlap = (np.minimum(np.asarray(hi)[..., None], t[1:])
                   - np.maximum(np.asarray(lo)[..., None], t[:-1]))
        r = np.zeros(np.shape(lo))
        for i in range(self.n_cells):
            r += np.where(overlap[..., i] > 0,
                          overlap[..., i] * self.cell_rate(i), 0.0)
        return overlap, r

    def rate_integral(self, lo: float, hi: float) -> float:
        """int_lo^hi r(t) dt, exact for the piecewise-constant mixture."""
        return float(self.overlaps(lo, hi)[1])

    def to_dict(self) -> dict:
        return {
            "d": self.d, "R": self.R, "time_grid": self.time_grid.tolist(),
            "cells": [[{"w": a.neuron.w.tolist(), "a": a.neuron.a.tolist(),
                        "b": a.neuron.b, "mass": a.mass} for a in cell]
                      for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimeMixture":
        cells = [tuple(BarronAtom(Neuron(a["w"], a["a"], a["b"]), a["mass"])
                       for a in cell) for cell in data["cells"]]
        return cls(data["time_grid"], tuple(cells), data["R"], data["d"])


def eval_mixture(m: TimeMixture, t: float, X):
    """Field and divergence of the mixture at time t; vectorized in X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    field = np.zeros_like(X)
    div = np.zeros(X.shape[0])
    for atom in m.cells[m.cell_index(t)]:
        n = atom.neuron
        V, atom_div = neuron_field(X, n.w, n.a, n.b)
        field += atom.mass * V
        div += atom.mass * atom_div
    return field, div


@dataclass(frozen=True)
class SampleRun:
    N: int
    seed: int
    neurons: tuple          # theta_k per interval (None where r_k = 0)
    weights: np.ndarray     # scaled outer weights w'_k = N r_k w_k / c
    r: np.ndarray           # per-interval rate integrals r_k
    schedule: ControlSchedule


def sample_schedule(m: TimeMixture, N: int, seed: int) -> SampleRun:
    """Draw one cost-weighted atom per interval, rescale, emit the schedule."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if all(m.cell_rate(i) == 0.0 for i in range(m.n_cells)):
        raise DegenerateMixtureError("mixture has zero total cost mass")
    atoms = [atom for cell in m.cells for atom in cell]
    cell_of = [i for i, cell in enumerate(m.cells) for _ in cell]
    costs = np.array([atom.cost(m.R) for atom in atoms])
    k = np.arange(N)
    overlap, r = m.overlaps(k / N, (k + 1) / N)
    # row k: the cost-weighted distribution over the atoms active in I_k
    P = np.array([atom.mass for atom in atoms]) * costs * overlap[:, cell_of]
    live = np.flatnonzero(r != 0.0)
    # Generator.choice(p=...) per interval, with one uniform per interval:
    # normalise, accumulate, normalise again, count the cumulative weights
    # <= u (searchsorted side="right"); disjoint atoms get zero weight
    p = np.where(P[live] > 0, P[live], 0.0)
    p /= np.cumsum(p, axis=1)[:, -1:]
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    u = np.random.default_rng(seed).random(len(live))
    j = np.sum(cdf <= u[:, None], axis=1)
    # slice k: the drawn neuron with outer weight w'_k = N r_k w_k / c_k
    # (a zero field where r_k = 0), for a duration of 1/N
    neurons = [None] * N
    for k, jk in zip(live.tolist(), j.tolist()):
        neurons[k] = atoms[jk].neuron
    a, weights, b = np.zeros((N, m.d)), np.zeros((N, m.d)), np.zeros(N)
    a[live] = np.array([atom.neuron.a for atom in atoms])[j]
    b[live] = np.array([atom.neuron.b for atom in atoms])[j]
    weights[live] = ((N * r[live])[:, None]
                     * np.array([atom.neuron.w for atom in atoms])[j]
                     / costs[j][:, None])
    schedule = ControlSchedule.from_arrays(a, weights, b, np.full(N, 1.0 / N))
    return SampleRun(N=N, seed=seed, neurons=tuple(neurons), weights=weights,
                     r=r, schedule=schedule)


def reference_flow(m: TimeMixture, X, step: float = 1e-3):
    """RK4 flow of the mixture field from t=0 to 1 with its log-Jacobian.

    Integrates cell by cell (the field is constant in t within a cell), so
    the time discontinuities cost no accuracy.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float)).copy()
    q = np.zeros(X.shape[0])
    for i in range(m.n_cells):
        t0, t1 = m.time_grid[i], m.time_grid[i + 1]
        tm = 0.5 * (t0 + t1)   # any time inside the cell: field is constant
        X, q = rk4(lambda Y: eval_mixture(m, tm, Y), X, q, t1 - t0, step)
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


def ridge_dictionary(d: int, size: int, R: float, seed: int) -> list:
    """Random unit-direction ReLU dictionary on the R-ball."""
    rng = np.random.default_rng(seed)
    neurons = []
    for _ in range(size):
        a = rng.normal(size=d)
        a /= np.linalg.norm(a)
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        b = rng.uniform(-R, R)
        neurons.append(Neuron(w, a, b))
    return neurons


def fit_mixture(times, points, U, R: float, dictionary_size: int, seed: int,
                dictionary=None):
    """Nonnegative least-squares fit of field samples on a ridge dictionary.

    ``U[j, i]`` is the field at time ``times[j]`` and point ``points[i]``.
    Each sample time becomes one mixture cell (boundaries at midpoints).
    Returns (TimeMixture, max per-cell RMS residual).
    """
    times = np.asarray(times, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    U = np.asarray(U, dtype=float)
    d = points.shape[1]
    if dictionary is None:
        dictionary = ridge_dictionary(d, dictionary_size, R, seed)

    # design matrix: column k stacks w_k relu(a_k . x_i + b_k) over points
    cols = []
    for n in dictionary:
        cols.append(neuron_field(points, n.w, n.a, n.b)[0].ravel())
    G = np.column_stack(cols)

    mids = (times[:-1] + times[1:]) / 2.0
    grid = np.concatenate([[0.0], mids, [1.0]])
    cells, worst = [], 0.0
    for j in range(len(times)):
        target = U[j].ravel()
        mass, rnorm = scipy.optimize.nnls(G, target)
        worst = max(worst, rnorm / np.sqrt(len(target)))
        cells.append(tuple(BarronAtom(n, float(mk))
                           for n, mk in zip(dictionary, mass) if mk > 0))
    mixture = TimeMixture(grid, tuple(cells), R, d)
    return mixture, worst


def builtin_mixture(d: int = 2, R: float = 3.0) -> TimeMixture:
    """Three-atom time-varying mixture on the unit ball used by rate studies."""
    a1 = Neuron(np.array([0.0, 0.8]), np.array([1.0, 0.0]), 0.3)
    a2 = Neuron(np.array([0.7, 0.0]), np.array([0.0, 1.0]), 0.4)
    s = 1.0 / np.sqrt(2.0)
    a3 = Neuron(np.array([-0.4, -0.4]), np.array([s, s]), 0.2)
    if d != 2:
        raise ValueError("builtin mixture is two-dimensional")
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    cells = (
        (BarronAtom(a1, 0.5), BarronAtom(a2, 0.2), BarronAtom(a3, 0.3)),
        (BarronAtom(a1, 0.2), BarronAtom(a2, 0.5), BarronAtom(a3, 0.2)),
        (BarronAtom(a1, 0.3), BarronAtom(a2, 0.2), BarronAtom(a3, 0.5)),
        (BarronAtom(a1, 0.4), BarronAtom(a2, 0.4), BarronAtom(a3, 0.2)),
    )
    return TimeMixture(grid, cells, R, 2)
