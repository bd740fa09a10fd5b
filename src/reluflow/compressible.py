"""Exact schedules for monotone piecewise-affine 1D profiles.

A profile zeta is continuous, increasing, affine with slope alpha_i on
[y_i, y_{i+1}) (extended affinely beyond both ends).  It is realized exactly
by a schedule acting on one coordinate:

* an optional two-segment translation gadget shifting the working interval
  so that its left endpoint is fixed, followed by
* one slope-change stage per slope change, stage i holding the field
  gamma_i (x - c_i)_+ with gamma_i = log(alpha_i / alpha_{i-1}) / h_i for a
  time h_i, where c_i is the current position of the breakpoint y_i under
  the stages already emitted.  Those stages carry the translated breakpoint
  to c_i = zeta(y_i) (the translation fixes y_0 + tau = zeta(y_0), and each
  earlier stage j stretches the piece after c_j to slope alpha_j), so every
  c_i is known in closed form.  A piece with alpha_i = alpha_{i-1}
  (alpha_{-1} = 1) gets no stage: its field would be zero.

The tracked log-determinant is exactly log alpha_i on the i-th piece: the
translation gadget contributes zero and stage increments telescope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reluflow.gadgets import slope_change_stages, translation_gadget
from reluflow.schedule import ControlSchedule, invert_schedule


@dataclass(frozen=True)
class MonotoneProfile:
    """zeta(x) = alpha_i x + beta_i on [y_i, y_{i+1}); increasing, continuous.

    ``beta0`` fixes the intercept of the first piece; the remaining
    intercepts follow from continuity: beta_i = beta_{i-1} + (alpha_{i-1} -
    alpha_i) y_i.
    """

    breakpoints: np.ndarray   # y_0 < y_1 < ... < y_{n+1}
    slopes: np.ndarray        # alpha_0 ... alpha_n, all > 0
    beta0: float = 0.0

    def __post_init__(self):
        y = np.asarray(self.breakpoints, dtype=float)
        a = np.asarray(self.slopes, dtype=float)
        object.__setattr__(self, "breakpoints", y)
        object.__setattr__(self, "slopes", a)
        object.__setattr__(self, "beta0", float(self.beta0))
        if y.ndim != 1 or len(y) < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.diff(y) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if a.shape != (len(y) - 1,):
            raise ValueError("need one slope per piece")
        if not np.all(a > 0):
            raise ValueError("slopes must be positive (profile must increase)")

    @property
    def n(self) -> int:
        """Number of interior breakpoints."""
        return len(self.slopes) - 1

    @property
    def intercepts(self) -> np.ndarray:
        beta = np.empty_like(self.slopes)
        beta[0] = self.beta0
        for i in range(1, len(self.slopes)):
            beta[i] = beta[i - 1] + (self.slopes[i - 1] - self.slopes[i]) * self.breakpoints[i]
        return beta

    def is_identity(self) -> bool:
        return self.beta0 == 0.0 and np.all(self.slopes == 1.0)

    @classmethod
    def from_dict(cls, data: dict) -> "MonotoneProfile":
        return cls(data["breakpoints"], data["slopes"], data["beta0"])


def _piece_index(p: MonotoneProfile, x: np.ndarray) -> np.ndarray:
    """Containing piece, left-limit convention at breakpoints."""
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(p.breakpoints, x, side="left") - 1
    return np.clip(idx, 0, len(p.slopes) - 1)


def eval_profile(p: MonotoneProfile, x):
    """zeta(x); vectorized, affine extension beyond both endpoints."""
    x = np.asarray(x, dtype=float)
    idx = _piece_index(p, x)
    beta = p.intercepts
    return p.slopes[idx] * x + beta[idx]


def profile_logdet(p: MonotoneProfile, x):
    """log alpha_i of the piece containing x (left limit at breakpoints)."""
    return np.log(p.slopes[_piece_index(p, x)])


def profile_schedule(p: MonotoneProfile, d: int = 1, axis: int = 0) -> ControlSchedule:
    """Schedule whose flow equals zeta exactly on [y_0, y_{n+1}].

    All neurons act on the chosen coordinate only, so the lift to R^d fixes
    the other coordinates.  Segment count: one stage per piece whose slope
    differs from the previous piece's (the first piece's from 1), so at
    most n+1, plus 2 for the translation gadget when zeta(y_0) != y_0.
    """
    if p.is_identity():
        return ControlSchedule()
    y0 = p.breakpoints[0]
    v0 = float(eval_profile(p, y0))
    tau = v0 - y0

    sched = ControlSchedule()
    if tau > 0:
        sched = translation_gadget(y0 - 2.0, 1.0, tau, 1.0, d=d, axis=axis)
    elif tau < 0:
        # exact negative translation on {x >= y0 - 1}: invert a positive gadget
        sched = invert_schedule(translation_gadget(
            y0 - 2.0 - abs(tau), 1.0, abs(tau), 1.0, d=d, axis=axis))

    # slope-change stages in the translated frame: breakpoints shift by tau,
    # the left endpoint becomes a fixed point, and the stages before stage i
    # carry the translated y_i to zeta(y_i); a ratio of 1 needs no stage
    centers = eval_profile(p, p.breakpoints[:-1])
    ratios = p.slopes / np.concatenate([[1.0], p.slopes[:-1]])
    durations = np.diff(p.breakpoints + tau)
    keep = ratios != 1.0
    return sched + slope_change_stages(centers[keep], ratios[keep],
                                       durations[keep], d=d, axis=axis)
