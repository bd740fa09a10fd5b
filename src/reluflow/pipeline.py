"""End-to-end realization of a target diffeomorphism as a neuron schedule.

The geometric route realizes a planar target phi as the composite of two
*band-tower passes*, each an incompressible rearrangement (shear flows)
around one exact compressible profile:

* the row pass realizes H(x) = (phi_1(x), x_2);
* the column pass realizes G(y) = (y_1, phi_2(H^{-1}(y))), with H^{-1}
  found by bisection on phi_1, so that G ∘ H = phi.

A pass cuts the plane into ``cube_h``-wide lattice bands across its
selection axis (x_2 for rows, y_1 for columns) and gives band k one
increasing map of the other (moving) coordinate: the piecewise-linear
interpolant, with knots at ``mesh_h``, of the target's pass map along the
band's center line.  It then

1. staggers the bands: one divergence-free shear per interior band edge
   translates everything past that edge by the stagger spacing S along the
   moving axis, so band k sits k S further on; S is derived from the range
   of the band maps so that the staggered bands and their images are
   disjoint and in order;
2. applies one exact profile schedule on the moving axis that carries, on
   band k's copy, band k's map (the compressible factor: the gradient of a
   convex function), interpolating monotonically across the gaps;
3. unstacks the bands with the inverse shears.

The shears only read the selection coordinate, which neither they nor the
profile change, so unstacking undoes stacking exactly; each shear ramps over
a strip of width ``cube_h / 64`` centred on its band edge, and only points in
those strips see a mixture of two neighbouring band maps.  Errors are then
measured in map space and for the pushforward against the exact target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from reluflow.compressible import profile_schedule
from reluflow.factorize import FactorizationError
from reluflow.gadgets import staircase
from reluflow.mesh import RectDomain
from reluflow.metrics import _cell_centers, lp_map_error, pushforward_values
from reluflow.numerics import bisect_increasing, grid_points
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


@dataclass
class StageReport:
    """Per-stage accounting: schedule size and realization diagnostics."""

    name: str
    n_segments: int
    switch_count: int
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
                 "switch_count": s.switch_count, **s.detail}
                for s in self.stages
            ],
        }


def _is_identity_map(fn, domain: RectDomain, tol: float = 1e-12) -> bool:
    X, _ = _cell_centers(domain, 9)
    return float(np.max(np.abs(np.atleast_2d(fn(X)) - X))) <= tol


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


def band_tower(values: np.ndarray, knots: np.ndarray, edges: np.ndarray,
               sel_axis: int, move_axis: int, d: int = 2) -> BandTower:
    """Apply band k's increasing map on band k via a staggered tower.

    ``values[k, j]`` is band k's map at ``knots[j]``; the map applied is its
    piecewise-linear interpolant (affine beyond the end knots) along
    ``move_axis``.  Band k is edges[k] <= x_sel < edges[k + 1], the two
    outermost bands extending to infinity, with ramps of width
    ``_RAMP_FRACTION`` times the band width centred on the interior edges.
    """
    values = np.asarray(values, dtype=float)
    K = values.shape[0]
    if len(edges) != K + 1:
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
    half = 0.5 * _RAMP_FRACTION * (edges[1] - edges[0])
    stack = staircase(move_axis, sel_axis, edges[1:-1], S, half, d)
    return BandTower(stack, profile, invert_schedule(stack), K, S)


def _check_increasing(values: np.ndarray, name: str, h: float) -> None:
    if not np.all(np.diff(values, axis=1) > 0):
        raise FactorizationError(f"a {name} band map is not strictly "
                                 f"increasing at knot pitch {h:g}")


def _band_maps(target: TargetMap, h: float, cube_h: float) -> tuple:
    """Row and column band maps sampled at knots of pitch h.

    Row band k maps x_1 -> phi_1(x_1, r_k) along its center line x_2 = r_k;
    column band k maps x_2 -> phi_2(x_1, x_2) where phi_1(x_1, x_2) = c_k
    (x_1 clamped to the domain), its center line y_1 = c_k.  Returns (row_values, row_knots, row_edges,
    col_values, col_knots, col_edges); raises if some band map is not
    strictly increasing.
    """
    lo, hi = target.domain.lower, target.domain.upper
    fn = target.fn

    row_knots = _knots(lo[0], hi[0], h)
    row_edges = _lattice_edges(lo[1], hi[1], cube_h)
    rows = 0.5 * (row_edges[:-1] + row_edges[1:])
    # one row per band, knots along it; columns reordered to (x_1, x_2)
    X = grid_points([rows, row_knots])[:, [1, 0]]
    row_values = fn(X)[:, 0].reshape(len(rows), len(row_knots))
    _check_increasing(row_values, "row", h)

    col_knots = _knots(lo[1], hi[1], h)
    col_edges = _lattice_edges(row_values.min(), row_values.max(), cube_h)
    cols = 0.5 * (col_edges[:-1] + col_edges[1:])
    Y = grid_points([cols, col_knots])
    x2 = Y[:, 1]
    x1 = bisect_increasing(lambda t: fn(np.column_stack([t, x2]))[:, 0],
                           Y[:, 0], lo[0], hi[0], 60)
    col_values = fn(np.column_stack([x1, x2]))[:, 1].reshape(len(cols),
                                                             len(col_knots))
    _check_increasing(col_values, "column", h)
    return row_values, row_knots, row_edges, col_values, col_knots, col_edges


def realize_target(target: TargetMap, epsilon: float = 0.1,
                   mesh_h: float = 0.125, cube_h: float = None,
                   p: float = 2.0, resolution: int = 128) -> RealizeResult:
    """Build a schedule realizing ``target`` and report its errors.

    Special cases: the identity gets an empty schedule; a one-coordinate
    profile target is realized exactly by its slope-change schedule.
    Otherwise (planar targets only) the row and column band-tower passes
    are built with band width ``cube_h`` (default ``mesh_h``) and knot pitch
    ``mesh_h``.  If some band map is not strictly increasing at its knots a
    :class:`FactorizationError` is raised: targets whose row or column maps
    are not increasing (a quarter turn, say) are outside this route.

    Stages: ``cells-to-tower`` stacks the row bands, ``profile`` is the row
    profile, and ``tower-to-image`` unstacks the rows and runs the whole
    column pass, itemized in its detail.
    """
    d = target.domain.d
    cube_h = cube_h if cube_h is not None else mesh_h
    if not all(np.isfinite(h) and h > 0 for h in (mesh_h, cube_h)):
        raise ValueError(f"mesh_h and cube_h must be finite and > 0; got "
                         f"mesh_h = {mesh_h}, cube_h = {cube_h}")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1; got {resolution}")

    if _is_identity_map(target.fn, target.domain):
        schedule = ControlSchedule()
        lp, tv = map_errors(target, schedule, p, resolution)
        return RealizeResult(schedule, lp, tv, p, epsilon, mesh_h, cube_h,
                             [StageReport("identity", 0, 0)])

    if target.profile is not None:
        schedule = profile_schedule(target.profile, d=d, axis=0)
        lp, tv = map_errors(target, schedule, p, resolution)
        stage = StageReport("profile", len(schedule), schedule.switch_count)
        return RealizeResult(schedule, lp, tv, p, epsilon, mesh_h, cube_h,
                             [stage])

    if d != 2:
        raise ValueError(f"the band-tower route is planar; got d = {d}")
    row_values, row_knots, row_edges, col_values, col_knots, col_edges = \
        _band_maps(target, mesh_h, cube_h)
    rows = band_tower(row_values, row_knots, row_edges, sel_axis=1,
                      move_axis=0)
    cols = band_tower(col_values, col_knots, col_edges, sel_axis=0,
                      move_axis=1)
    tail = rows.unstack + cols.schedule
    stages = [
        StageReport("cells-to-tower", len(rows.stack),
                    rows.stack.switch_count,
                    {"bands": rows.n_bands, "stagger": rows.stagger,
                     "ramp_width": _RAMP_FRACTION * cube_h}),
        StageReport("profile", len(rows.profile), rows.profile.switch_count,
                    {"knots_per_band": len(row_knots)}),
        StageReport("tower-to-image", len(tail), tail.switch_count,
                    {"row_unstack_segments": len(rows.unstack),
                     "column_bands": cols.n_bands,
                     "column_stagger": cols.stagger,
                     "column_stack_segments": len(cols.stack),
                     "column_profile_segments": len(cols.profile),
                     "column_unstack_segments": len(cols.unstack)}),
    ]
    schedule = rows.schedule + cols.schedule
    lp, tv = map_errors(target, schedule, p, resolution)
    return RealizeResult(schedule, lp, tv, p, epsilon, mesh_h, cube_h, stages)
