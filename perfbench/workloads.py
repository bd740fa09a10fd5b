"""The benchmark's three workloads: inputs, timed rounds and output checks.

A workload builds its inputs once from the seed, then runs identical rounds.
Each round attempts the same operations in the same order; an operation that
raises, or whose output fails a check, counts as failed.  Checks compare
against computations made here, apart from the package (closed forms,
analytic maps), or against properties the method must have; none compares
against stored output.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from reluflow.maurey import (
    builtin_mixture,
    rate_fit,
    reference_flow,
    run_errors,
    sample_schedule,
)
from reluflow.pipeline import realize_target
from reluflow.schedule import flow_points, invert_schedule
from reluflow.targets import get_target

# Acceptance criterion 5: gates on the map and pushforward errors.
MAP_L2_GATE = 0.1
TV_GATE = 0.2
# Sampling use of a realized schedule: L^2 error of the pushed samples
# against the exact map, return trip of the inverse schedule, and the sum of
# forward and inverse log-determinants.
SAMPLE_L2_GATE = 0.1
ROUND_TRIP_GATE = 1e-8
LOGDET_SUM_GATE = 1e-12
# The package's "kr" target against its closed form.
KR_CLOSED_FORM_GATE = 1e-8
# Acceptance criterion 6: log-log slopes of the mean errors over N.
E_SLOPE_RANGE = (-0.65, -0.35)
DELTA_SLOPE_RANGE = (-0.7, -0.3)


@dataclass
class RoundResult:
    """Operations attempted in one round and the figures they produced."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0               # failed because a check rejected the output
    samples: int = 0             # samples pushed with their log-density
    push_s: float = 0.0          # time spent pushing them
    quality: dict = field(default_factory=dict)

    def attempt(self, name: str, op):
        """Run ``op() -> (value, problems)``; None if it raised or failed."""
        self.attempted += 1
        try:
            value, problems = op()
        except Exception:
            print(f"{name}: raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if problems:
            print(f"{name}: check failed: {'; '.join(problems)}",
                  file=sys.stderr)
            self.failed += 1
            self.wrong += 1
            return None
        return value


def _gate(problems: list, label: str, value: float, ok: bool) -> None:
    if not ok:
        problems.append(f"{label} = {value:.6g}")


def _realize(target, h: float, resolution: int, coarser=None):
    """Realize at mesh = cube = h; criterion-5 gates, and errors that fall
    under refinement when a coarser result is given."""
    def op():
        res = realize_target(target, epsilon=MAP_L2_GATE, mesh_h=h, cube_h=h,
                             p=2.0, resolution=resolution)
        problems = []
        _gate(problems, f"L2 at h={h:g}", res.lp_error,
              res.lp_error <= MAP_L2_GATE)
        _gate(problems, f"TV at h={h:g}", res.tv_error,
              res.tv_error <= TV_GATE)
        if coarser is not None:
            _gate(problems, "L2 not below the coarser level's", res.lp_error,
                  res.lp_error < coarser.lp_error)
            _gate(problems, "TV not below the coarser level's", res.tv_error,
                  res.tv_error < coarser.tv_error)
        return res, problems
    return op


def _push_and_return(rr: RoundResult, schedule, X: np.ndarray, exact_map):
    """Push uniform samples with their log-densities, then pull them back."""
    def forward():
        t0 = time.perf_counter()
        Y, logdet = flow_points(X, schedule)
        log_density = -logdet          # uniform source on the unit square
        rr.push_s += time.perf_counter() - t0
        rr.samples += X.shape[0]
        err = float(np.sqrt(np.mean(np.sum((Y - exact_map(X)) ** 2, axis=1))))
        problems = []
        _gate(problems, "sample L2", err, err <= SAMPLE_L2_GATE)
        _gate(problems, "non-finite log-density", 0.0,
              bool(np.all(np.isfinite(log_density))))
        return (Y, logdet), problems

    pushed = rr.attempt("push", forward)

    def back():
        Y, logdet = pushed
        Xb, logdet_back = flow_points(Y, invert_schedule(schedule))
        trip = float(np.max(np.abs(Xb - X)))
        ld_sum = float(np.max(np.abs(logdet + logdet_back)))
        problems = []
        _gate(problems, "return trip", trip, trip <= ROUND_TRIP_GATE)
        _gate(problems, "logdet sum", ld_sum, ld_sum <= LOGDET_SUM_GATE)
        return None, problems

    rr.attempt("pull back", back)


def _geometric_quality(res) -> dict:
    return {"segments": len(res.schedule),
            "total_duration": res.schedule.total_duration,
            "map_l2": res.lp_error, "density_error": res.tv_error}


class SineRadial:
    """Criterion 5: sine-radial at two levels, then the sampling use."""

    name = "realize-sine-radial"

    def __init__(self, seed: int, levels=(1 / 16, 1 / 32),
                 resolution: int = 128, batch: int = 16384):
        self.target = get_target("sine-radial")
        self.levels = levels
        self.resolution = resolution
        self.X = np.random.default_rng(seed).uniform(size=(batch, 2))

    def exact_map(self, X):
        # sine shear after the radial compression, written out here rather
        # than taken from the package's target
        v = X - 0.5
        r2 = np.sum(v * v, axis=1)
        R = 0.5 + v * (1.0 - 0.2 * np.exp(-4.0 * r2))[:, None]
        return np.column_stack([R[:, 0],
                                R[:, 1] + 0.25 * np.sin(np.pi * R[:, 0])])

    def round(self) -> RoundResult:
        rr = RoundResult()
        res = None
        for h in self.levels:
            res = rr.attempt(f"realize h={h:g}",
                             _realize(self.target, h, self.resolution, res))
        if res is not None:
            rr.quality = _geometric_quality(res)
            _push_and_return(rr, res.schedule, self.X, self.exact_map)
        else:
            rr.attempted += 2
            rr.failed += 2
        return rr


def kr_closed_form(X: np.ndarray) -> np.ndarray:
    """Knothe-Rosenblatt map from uniform to density prop. 1 + 0.4x + 0.2y.

    The normalizer is 1.3; the first marginal CDF (1.1 t + 0.2 t^2) / 1.3
    and the conditional CDF (A t + 0.1 t^2) / (A + 0.1), A = 1 + 0.4 phi_1,
    are quadratics, solved here in closed form.
    """
    phi1 = (-1.1 + np.sqrt(1.21 + 1.04 * X[:, 0])) / 0.4
    A = 1.0 + 0.4 * phi1
    phi2 = (-A + np.sqrt(A * A + 0.4 * (A + 0.1) * X[:, 1])) / 0.2
    return np.column_stack([phi1, phi2])


class KnotheRosenblatt:
    """The kr target (uniform -> tilted): evaluation, realization, sampling."""

    name = "realize-kr"

    def __init__(self, seed: int, h: float = 1 / 16, resolution: int = 128,
                 batch: int = 16384, check_points: int = 2048):
        self.target = get_target("kr")
        self.h = h
        self.resolution = resolution
        rng = np.random.default_rng(seed)
        self.X = rng.uniform(size=(batch, 2))
        self.C = rng.uniform(size=(check_points, 2))

    def round(self) -> RoundResult:
        rr = RoundResult()

        def closed_form():
            err = float(np.max(np.abs(self.target.fn(self.C)
                                      - kr_closed_form(self.C))))
            problems = []
            _gate(problems, "kr vs closed form", err,
                  err <= KR_CLOSED_FORM_GATE)
            return None, problems

        rr.attempt("kr closed form", closed_form)
        res = rr.attempt("realize kr",
                         _realize(self.target, self.h, self.resolution))
        if res is not None:
            rr.quality = _geometric_quality(res)
            _push_and_return(rr, res.schedule, self.X, kr_closed_form)
        else:
            rr.attempted += 2
            rr.failed += 2
        return rr


class MaureyRate:
    """Criterion 6: the rate study over N with seeded samplings."""

    name = "maurey-rate"

    def __init__(self, seed: int, Ns=(16, 32, 64, 128, 256, 512),
                 grid: int = 8):
        self.mixture = builtin_mixture()
        self.Ns = Ns
        # grid^2 evaluation points uniform on criterion 6's box, one in each
        # cell of a grid x grid lattice: independent uniform points make the
        # mean error at N = 512 spread by 8% (interquartile range over
        # median, 30 seeds), one point per cell by 2%.
        half = self.mixture.R / 2 / np.sqrt(self.mixture.d)
        cells = np.stack(np.meshgrid(np.arange(grid), np.arange(grid),
                                     indexing="ij"), axis=-1).reshape(-1, 2)
        jitter = np.random.default_rng(seed).uniform(size=cells.shape)
        self.points = -half + (cells + jitter) * (2 * half / grid)
        # The sampling seeds are criterion 6's, 0-19.  Drawn from the
        # benchmark seed instead, one study in ~1,500 lands outside a slope
        # range by chance (slope sd 0.04 and 0.06 over 30 seeds), and the
        # mean error at N = 512 spreads by 27%.
        self.sample_seeds = list(range(20))

    def round(self) -> RoundResult:
        rr = RoundResult()
        m, pts = self.mixture, self.points

        def reference():
            X, q = reference_flow(m, pts, step=1e-3)
            problems = []
            _gate(problems, "non-finite reference", 0.0,
                  bool(np.all(np.isfinite(X)) and np.all(np.isfinite(q))))
            return (X, q), problems

        ref = rr.attempt("reference", reference)
        means = {}
        for N in self.Ns:
            errs = []
            for s in self.sample_seeds:
                def sample(N=N, s=s):
                    if ref is None:
                        raise RuntimeError("no reference flow")
                    run = sample_schedule(m, N, s)
                    t0 = time.perf_counter()
                    e, delta = run_errors(run, m, pts, reference=ref)
                    rr.push_s += time.perf_counter() - t0
                    rr.samples += pts.shape[0]
                    durations = np.array([seg.duration
                                          for seg in run.schedule.segments])
                    problems = []
                    _gate(problems, f"N={N}: segment count", len(durations),
                          len(durations) == N)
                    _gate(problems, f"N={N}: durations off 1/N",
                          float(np.max(np.abs(durations - 1.0 / N))),
                          bool(np.all(durations == 1.0 / N)))
                    _gate(problems, f"N={N}: non-finite errors", e,
                          bool(np.isfinite(e) and np.isfinite(delta)))
                    return (e, delta, run.schedule), problems

                out = rr.attempt(f"sample N={N}", sample)
                if out is not None:
                    errs.append(out)
            if len(errs) == len(self.sample_seeds):
                means[N] = (float(np.mean([e for e, _, _ in errs])),
                            float(np.mean([d for _, d, _ in errs])))
                finest = errs[-1][2]

        def rates():
            if len(means) != len(self.Ns):
                raise RuntimeError("a sampled schedule failed")
            slope_e = rate_fit([(N, e) for N, (e, _) in means.items()])
            slope_d = rate_fit([(N, d) for N, (_, d) in means.items()])
            first, last = means[self.Ns[0]][1], means[self.Ns[-1]][1]
            problems = []
            _gate(problems, "slope of mean e_N", slope_e,
                  E_SLOPE_RANGE[0] <= slope_e <= E_SLOPE_RANGE[1])
            _gate(problems, "slope of mean delta_N", slope_d,
                  DELTA_SLOPE_RANGE[0] <= slope_d <= DELTA_SLOPE_RANGE[1])
            _gate(problems, "mean delta_N does not fall", last, last < first)
            return None, problems

        rr.attempt("rates", rates)
        if len(means) == len(self.Ns):
            e_last, d_last = means[self.Ns[-1]]
            rr.quality = {"segments": len(finest),
                          "total_duration": finest.total_duration,
                          "map_l2": e_last, "density_error": d_last}
        return rr


WORKLOADS = {w.name: w for w in (SineRadial, KnotheRosenblatt, MaureyRate)}
