"""Map-space and measure-space error metrics, plus two counterexamples
showing why small displacement does not control pushforward TV outside the
measure-preserving class.

TV between grid densities is the L^1 distance of densities (valid for
absolutely continuous measures); atomic pushforwards are compared through
histograms with a documented aliasing caveat.

A grid density is evaluated off its grid by calling it: ``GridDensity``
(in ``reluflow.kr``) holds the multilinear interpolant, zero outside
[0, 1]^d.
"""

from __future__ import annotations

import numpy as np

from reluflow.kr import GridDensity
from reluflow.numerics import grid_points, trapezoid_all
from reluflow.schedule import ControlSchedule, flow_points, invert_schedule

# strictly positive floor applied to pushforward values so they remain
# valid grid densities; far below every quadrature tolerance used here
_DENSITY_FLOOR = 1e-15


def _cell_centers(domain: RectDomain, resolution: int) -> tuple:
    X = grid_points([lo + (np.arange(resolution) + 0.5) * (hi - lo) / resolution
                     for lo, hi in zip(domain.lower, domain.upper)])
    cell_volume = domain.volume / resolution ** domain.d
    return X, cell_volume


def lp_map_error(f, g, domain: RectDomain, p: float, resolution: int) -> float:
    """(int_Omega |f - g|^p)^{1/p} by midpoint quadrature on cell centers."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1; got {resolution}")
    X, vol = _cell_centers(domain, resolution)
    diff = np.atleast_2d(np.asarray(f(X), float)) - np.atleast_2d(
        np.asarray(g(X), float))
    norms = np.linalg.norm(diff, axis=1)
    return float((np.sum(norms ** p) * vol) ** (1.0 / p))


def pushforward_values(schedule: ControlSchedule, rho_fn, Y) -> np.ndarray:
    """Pushforward density of a schedule's flow psi at points Y.

    The preimage x = psi^{-1}(y) and the inverse log-Jacobian are exact
    (time-reversed flow); log det grad psi(x) = -logdet_inv(y), so the
    density rho(x) / |det grad psi(x)| is rho(x) * exp(logdet_inv).
    """
    X, logdet_inv = flow_points(Y, invert_schedule(schedule))
    return np.asarray(rho_fn(X), float) * np.exp(logdet_inv)


def pushforward_density(schedule, rho: GridDensity, shape) -> GridDensity:
    """Pushforward of a grid density, evaluated on a [0,1]^d grid.

    rho is extended by zero outside the unit cube; output values are floored
    at a tiny positive constant to remain a valid GridDensity.
    """
    Y = grid_points([np.linspace(0.0, 1.0, n) for n in shape])
    vals = pushforward_values(schedule, rho, Y).reshape(shape)
    return GridDensity(np.maximum(vals, _DENSITY_FLOOR))


def tv_distance(rho1: GridDensity, rho2: GridDensity) -> float:
    """Trapezoid integral of |rho1 - rho2| on their common grid."""
    if rho1.values.shape != rho2.values.shape:
        raise ValueError("densities live on different grids")
    return float(trapezoid_all(np.abs(rho1.values - rho2.values)))


def lipschitz_norm(rho: GridDensity) -> float:
    """||rho||_{C^{0,1}} estimate: max value plus max grid gradient norm."""
    grads = np.gradient(rho.values, *rho.nodes)
    if rho.d == 1:
        grads = [grads]
    gnorm = np.sqrt(sum(g ** 2 for g in grads))
    return float(rho.values.max() + gnorm.max())


def tv_stability_bound(displacements, logdets, rho: GridDensity,
                       volume: float = 1.0) -> float:
    """Diagnostic upper bound for pushforward TV from samples of eta.

    bound = e^M ( ||rho||_{C^{0,1}} ||eta - id||_{L^1}
                  + ||rho||_inf ||e^{logdet} - 1||_{L^1} ),
    with M = sup |logdet| over the samples; the second term vanishes for
    measure-preserving eta, leaving the Lipschitz displacement term.
    """
    displacements = np.atleast_2d(np.asarray(displacements, float))
    logdets = np.asarray(logdets, dtype=float)
    M = float(np.max(np.abs(logdets))) if logdets.size else 0.0
    l1_disp = float(np.mean(np.linalg.norm(displacements, axis=1))) * volume
    l1_jac = float(np.mean(np.abs(np.expm1(logdets)))) * volume
    return float(np.exp(M) * (lipschitz_norm(rho) * l1_disp
                              + rho.values.max() * l1_jac))


def contraction_check(schedule, mu1: GridDensity, mu2: GridDensity,
                      resolution: int = 256) -> tuple:
    """(TV of pushforwards, TV of inputs); the former never exceeds the
    latter beyond quadrature error, since restriction to a window only
    discards mass."""
    shape = (resolution + 1,) * mu1.d
    p1 = pushforward_density(schedule, mu1, shape)
    p2 = pushforward_density(schedule, mu2, shape)
    X = grid_points([np.linspace(0.0, 1.0, n) for n in shape])
    r1 = GridDensity(np.maximum(mu1(X).reshape(shape), _DENSITY_FLOOR))
    r2 = GridDensity(np.maximum(mu2(X).reshape(shape), _DENSITY_FLOOR))
    return tv_distance(p1, p2), tv_distance(r1, r2)


def oscillation_counterexample(alpha: float, h: float,
                               resolution: int = 200_001) -> tuple:
    """Sup displacement and pushforward TV of x -> x + alpha h sin(2 pi x/h).

    On the circle with uniform base measure the TV equals
    int_0^1 |psi_h'(x) - 1| dx = 2 pi alpha int_0^1 |cos(2 pi x / h)| dx,
    which tends to 4 alpha as h -> 0 while the displacement alpha h vanishes.
    """
    if not 0 < alpha < 1.0 / (2.0 * np.pi):
        raise ValueError("need 0 < alpha < 1/(2 pi) for injectivity")
    if not 0 < h < 1:
        raise ValueError("need 0 < h < 1")
    if resolution < 2:
        raise ValueError(f"need resolution >= 2; got {resolution}")
    x = np.linspace(0.0, 1.0, resolution)
    integrand = 2.0 * np.pi * alpha * np.abs(np.cos(2.0 * np.pi * x / h))
    tv = float(np.trapezoid(integrand, x))
    return alpha * h, tv


def rounding_counterexample(h: float, refine: int = 8) -> float:
    """Histogram TV between the uniform density and its rounding pushforward.

    Q_h sends x to the center of its h-cell, so Q_h# mu is purely atomic and
    the true TV is 2; a histogram at bin width h/refine reports
    2 (1 - 1/refine), approaching 2 as the histogram refines.  At refine = 1
    the atoms alias back onto the cells and the estimate collapses to ~0
    (the aliasing caveat).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if refine < 1:
        raise ValueError(f"refine must be >= 1; got {refine}")
    n_cells = max(int(round(1.0 / h)), 1)
    n_bins = n_cells * refine
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    mass_uniform = np.diff(edges)
    centers = (np.arange(n_cells) + 0.5) * h
    mass_atomic = np.zeros(n_bins)
    idx = np.clip((centers * n_bins).astype(int), 0, n_bins - 1)
    np.add.at(mass_atomic, idx, h)
    return float(np.sum(np.abs(mass_atomic - mass_uniform)))
