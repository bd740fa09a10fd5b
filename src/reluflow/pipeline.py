"""End-to-end realization of a target diffeomorphism as a neuron schedule.

The geometric route realizes a target phi on a box in R^d as d *band-tower
passes*.  With H_k = (phi_0, ..., phi_k, x_{k+1}, ..., x_{d-1}) and H_{-1}
the identity, pass k realizes G_k = H_k ∘ H_{k-1}^{-1}, which moves
coordinate k only, so the passes compose to H_{d-1} = phi.

Pass k cuts the other d - 1 (selection) axes into ``cube_h``-wide lattice
bands, over the range of pass j's values on an axis j < k and the domain's
on j > k, and gives band l one increasing map of coordinate k: the
piecewise-linear interpolant, with knots at ``mesh_h``, of G_k along the
line through the band's centre.  H_{k-1}^{-1} at those knots is solved one
coordinate at a time by bracketed false position
(``numerics.solve_increasing``).  It then

1. staggers the bands: one divergence-free shear per interior band edge
   translates everything past that edge along axis k, one staircase per
   selection axis, so that band l (in C order) sits l S further on; S is
   derived from the range of the band maps so that the staggered bands and
   their images are disjoint and in order;
2. applies one exact profile schedule on axis k that carries, on band l's
   copy, band l's map (the compressible factor: the gradient of a convex
   function), interpolating monotonically across the gaps;
3. unstacks the bands with the inverse shears.

The shears only read selection coordinates, which neither they nor the
profile change, so unstacking undoes stacking exactly; each shear ramps over
a strip of width ``cube_h / 64`` centred on its band edge, and only points in
those strips see a mixture of neighbouring band maps.  Errors are then
measured in map space and for the pushforward against the exact target.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from reluflow.compressible import profile_schedule
from reluflow.gadgets import lift
from reluflow.mesh import RectDomain
from reluflow.metrics import _cell_centers, lp_map_error, pushforward_values
from reluflow.numerics import grid_points, solve_increasing
from reluflow.schedule import (ControlSchedule, PiecewiseLinear, flow_points,
                               invert_schedule)
from reluflow.targets import TargetMap

# Shear ramp width as a fraction of the band width.  The ramp strips are the
# only places where a point sees a mixture of two band maps, so the error
# they carry shrinks with their width, while shear durations grow as its
# inverse.  On sine-radial at band width 1/16 the L^2 error on random points
# is 0.028 at 1/4 and 0.012 at 1/64; 128^2 quadrature midpoints, which miss
# the 1/64 ramps, give 0.010.
_RAMP_FRACTION = 1.0 / 64.0

# Stagger spacing as a multiple of the widest band-map span, leaving gaps of
# a quarter span between consecutive staggered bands and images.
_STAGGER_FACTOR = 1.25


class FactorizationError(ValueError):
    """The target cannot be factorized: a band map is not strictly
    increasing, or (polar route) an orientation or geometry failure."""


@dataclass
class StageReport:
    """Per-stage accounting: schedule size, the wall time spent building
    the stage and realization diagnostics."""

    name: str
    n_segments: int
    switch_count: int
    wall_s: float
    detail: dict = field(default_factory=dict)


@dataclass
class RealizeResult:
    schedule: ControlSchedule
    lp_error: float
    tv_error: float
    p: float
    epsilon: float
    mesh_h: float
    cube_h: float
    stages: list

    @property
    def ok(self) -> bool:
        return self.lp_error <= self.epsilon and self.tv_error <= self.epsilon

    def to_report(self) -> dict:
        return {
            "lp_error": self.lp_error,
            "tv_error": self.tv_error,
            "p": self.p,
            "epsilon": self.epsilon,
            "mesh_h": self.mesh_h,
            "cube_h": self.cube_h,
            "ok": self.ok,
            "total_segments": len(self.schedule),
            "total_switches": self.schedule.switch_count,
            "total_duration": self.schedule.total_duration,
            "stages": [
                {"name": s.name, "n_segments": s.n_segments,
                 "switch_count": s.switch_count, "wall_s": s.wall_s,
                 **s.detail}
                for s in self.stages
            ],
        }


def uniform_density(domain: RectDomain):
    vol = domain.volume

    def rho(X):
        return domain.contains(np.atleast_2d(X)).astype(float) / vol

    return rho


def map_errors(target: TargetMap, schedule: ControlSchedule, p: float,
               resolution: int) -> tuple:
    """(L^p map error on the domain, TV error of the uniform pushforward).

    Both pushforwards are exact: the schedule's from its time reversal, the
    target's as rho(x) exp(-logdet(x)) at x = phi^{-1}(y), with y handed to
    ``logdet`` as phi(x).  The TV error is their midpoint-quadrature L^1
    distance, nan without inverse or logdet.
    """
    flow_fn = lambda X: flow_points(X, schedule)[0]
    lp = lp_map_error(target.fn, flow_fn, target.domain, p, resolution)
    if target.inverse is None or target.logdet is None:
        return lp, float("nan")
    rho = uniform_density(target.domain)
    Y, cell_vol = _cell_centers(target.domain, resolution)
    X = target.inverse(Y)
    exact = rho(X) * np.exp(-target.logdet(X, Y))
    realized = pushforward_values(schedule, rho, Y)
    tv = float(np.sum(np.abs(exact - realized)) * cell_vol)
    return lp, tv


def _knots(lo: float, hi: float, h: float) -> np.ndarray:
    """Uniform knots on [lo, hi], pitch shrunk to the nearest exact divisor."""
    n = max(int(np.ceil((hi - lo) / h - 1e-9)), 1)
    return np.linspace(lo, hi, n + 1)


def _lattice_edges(lo: float, hi: float, h: float) -> np.ndarray:
    """Edges of the h-lattice bands covering [lo, hi] (at least one band)."""
    k0 = np.floor(lo / h + 1e-9)
    k1 = max(np.ceil(hi / h - 1e-9), k0 + 1)
    return h * np.arange(k0, k1 + 1)


@dataclass(frozen=True)
class BandTower:
    """One pass: stack the bands, apply their maps, unstack."""

    stack: ControlSchedule
    profile: ControlSchedule
    unstack: ControlSchedule
    n_bands: int
    stagger: float

    @property
    def schedule(self) -> ControlSchedule:
        return self.stack + self.profile + self.unstack


def band_tower(values: np.ndarray, knots: np.ndarray, selection: list,
               move_axis: int, d: int) -> BandTower:
    """Apply band l's increasing map on band l via a staggered tower.

    ``values[l, j]`` is band l's map at ``knots[j]``; the map applied is its
    piecewise-linear interpolant (affine beyond the end knots) along
    ``move_axis``.  ``selection`` lists (axis, edges) for each selection
    axis; band l is the l-th lattice cell in C order, the outermost bands of
    each axis extending to infinity, with ramps of width ``_RAMP_FRACTION``
    times the band width centred on the interior edges.  Stacking moves band
    l by l S: ``gadgets.lift`` with unit S, one staircase per selection
    axis.
    """
    values = np.asarray(values, dtype=float)
    K = values.shape[0]
    if K != math.prod(len(edges) - 1 for _, edges in selection):
        raise ValueError("need one band map per band")
    span = max(knots[-1] - knots[0], values.max() - values.min())
    S = float(_STAGGER_FACTOR * span)
    shift = S * np.arange(K)[:, None]
    profile = profile_schedule(PiecewiseLinear.through(
        (knots[None, :] + shift).ravel(), (values + shift).ravel()),
        d=d, axis=move_axis)
    if not len(profile):    # every band map is the identity
        return BandTower(ControlSchedule(), ControlSchedule(),
                         ControlSchedule(), K, 0.0)
    stack = lift(move_axis, [(axis, edges[1:-1],
                              0.5 * _RAMP_FRACTION * (edges[1] - edges[0]))
                             for axis, edges in selection], S, d)
    return BandTower(stack, profile, invert_schedule(stack), K, S)


def _pass_maps(target: TargetMap, k: int, box: list, h: float,
               cube_h: float) -> tuple:
    """Pass k's band maps of coordinate k, sampled at knots of pitch h.

    ``box[j]`` is the (lo, hi) range of coordinate j before pass k: pass
    j's values for j < k, the domain's range otherwise.  The bands are the
    ``cube_h`` lattice cells of the box on the other axes, in C order, and
    band l maps y_k -> phi_k(H_{k-1}^{-1}(y)) along the line through its
    centre.  H_{k-1}^{-1} is solved one coordinate j < k at a time, for
    x_j in phi_j = y_j with the other coordinates at their current values
    (``solve_increasing``, to within an ulp of the domain's width): exact
    for d = 2 and for triangular targets, whose phi_j reads x_0 ... x_j
    only, and one Gauss-Seidel sweep otherwise.

    Returns (values, knots, selection) as ``band_tower`` takes them; raises
    if some band map is not strictly increasing.
    """
    lo, hi = target.domain.lower, target.domain.upper
    knots = _knots(*box[k], h)
    selection = [(j, _lattice_edges(*box[j], cube_h))
                 for j in range(len(box)) if j != k]
    centres = [0.5 * (edges[:-1] + edges[1:]) for _, edges in selection]
    # one row per (band, knot); columns reordered to (y_0, ..., y_{d-1})
    order = np.argsort([j for j, _ in selection] + [k])
    Y = grid_points(centres + [knots])[:, order]
    X = Y.copy()
    for j in range(k):
        def phi_j(t, j=j):
            Z = X.copy()
            Z[:, j] = t
            return target.fn(Z)[:, j]
        X[:, j] = solve_increasing(phi_j, Y[:, j], lo[j], hi[j],
                                   np.finfo(float).eps * (hi[j] - lo[j]))
    values = target.fn(X)[:, k].reshape(-1, len(knots))
    if not np.all(np.diff(values, axis=1) > 0):
        raise FactorizationError(f"a pass-{k + 1} band map is not strictly "
                                 f"increasing at knot pitch {h:g}")
    return values, knots, selection


def realize_target(target: TargetMap, epsilon: float = 0.1,
                   mesh_h: float = 0.125, cube_h: float = None,
                   p: float = 2.0, resolution: int = 128) -> RealizeResult:
    """Build a schedule realizing ``target`` and report its errors.

    A one-coordinate profile target is realized exactly by its
    slope-change schedule.  Otherwise pass k = 0 ... d-1 is a band tower on
    axis k, with band width ``cube_h`` (default ``mesh_h``) and knot pitch
    ``mesh_h``; the identity gets an empty schedule this way.  If some band
    map is not strictly increasing at its knots a
    :class:`FactorizationError` is raised: targets such as a quarter turn
    are outside this route.

    Stages: ``pass-1`` ... ``pass-d``, one per pass, each itemizing its
    wall time (``time.perf_counter`` seconds spent solving the band maps
    and building the tower; the error measurement is outside every stage),
    axis, bands, stagger, knots per band and stack, profile and unstack
    segments.
    """
    d = target.domain.d
    cube_h = cube_h if cube_h is not None else mesh_h
    if not all(np.isfinite(h) and h > 0 for h in (mesh_h, cube_h)):
        raise ValueError(f"mesh_h and cube_h must be finite and > 0; got "
                         f"mesh_h = {mesh_h}, cube_h = {cube_h}")

    if target.profile is not None:
        start = time.perf_counter()
        schedule = profile_schedule(target.profile, d=d, axis=0)
        stage = StageReport("profile", len(schedule), schedule.switch_count,
                            time.perf_counter() - start)
        lp, tv = map_errors(target, schedule, p, resolution)
        return RealizeResult(schedule, lp, tv, p, epsilon, mesh_h, cube_h,
                             [stage])

    box = list(zip(target.domain.lower, target.domain.upper))
    passes, stages = [], []
    for k in range(d):
        start = time.perf_counter()
        values, knots, selection = _pass_maps(target, k, box, mesh_h, cube_h)
        box[k] = (values.min(), values.max())
        tower = band_tower(values, knots, selection, k, d)
        passes.append(tower.schedule)
        stages.append(StageReport(
            f"pass-{k + 1}", len(passes[-1]), passes[-1].switch_count,
            time.perf_counter() - start,
            {"axis": k, "bands": tower.n_bands, "stagger": tower.stagger,
             "knots_per_band": len(knots),
             "stack_segments": len(tower.stack),
             "profile_segments": len(tower.profile),
             "unstack_segments": len(tower.unstack)}))
    schedule = ControlSchedule.concat(passes)
    lp, tv = map_errors(target, schedule, p, resolution)
    return RealizeResult(schedule, lp, tv, p, epsilon, mesh_h, cube_h, stages)
