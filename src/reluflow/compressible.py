"""Exact schedules for increasing piecewise-linear 1D profiles.

A profile zeta is a ``schedule.PiecewiseLinear`` that increases: values
zeta(y_i) at knots y_0 < ... < y_{n+1}, slope alpha_i on [y_i, y_{i+1})
and the end slopes alpha_0 and alpha_n beyond both ends.  It is realized
exactly on [y_0, y_{n+1}] by a schedule acting on one coordinate:

* an optional two-segment translation gadget shifting the working interval
  so that its left endpoint is fixed, followed by
* one slope-change stage per slope change, stage i holding the field
  gamma_i (x - c_i)_+ with gamma_i = log(alpha_i / alpha_{i-1}) / h_i for a
  time h_i, where c_i is the current position of the breakpoint y_i under
  the stages already emitted.  Those stages carry the translated breakpoint
  to c_i = zeta(y_i) (the translation fixes y_0 + tau = zeta(y_0), and each
  earlier stage j stretches the piece after c_j to slope alpha_j), so every
  c_i is a stored value.  A piece with alpha_i = alpha_{i-1}
  (alpha_{-1} = 1) up to rounding gets no stage: its field would be zero.

The tracked log-determinant is exactly log alpha_i on the i-th piece: the
translation gadget contributes zero and stage increments telescope.
"""

from __future__ import annotations

import numpy as np

from reluflow.gadgets import slope_change_stages, translation_gadget
from reluflow.schedule import ControlSchedule, PiecewiseLinear, invert_schedule


def slope_profile(breakpoints, slopes, beta0: float = 0.0) -> PiecewiseLinear:
    """The profile of the slope form: zeta(x) = alpha_i x + beta_i on
    [y_i, y_{i+1}), continuous, with beta_0 = ``beta0``.

    Raises ValueError unless the breakpoints strictly increase, there is one
    slope per piece and every slope is positive.
    """
    y = np.asarray(breakpoints, dtype=float)
    a = np.asarray(slopes, dtype=float)
    if y.ndim != 1 or len(y) < 2:
        raise ValueError("need at least two breakpoints")
    if not np.all(np.diff(y) > 0):
        raise ValueError("breakpoints must be strictly increasing")
    if a.shape != (len(y) - 1,):
        raise ValueError("need one slope per piece")
    if not np.all(a > 0):
        raise ValueError("slopes must be positive (profile must increase)")
    return PiecewiseLinear.from_slopes(y, np.concatenate([a[:1], a, a[-1:]]),
                                       a[0] * y[0] + float(beta0))


def profile_logdet(p: PiecewiseLinear, x):
    """log alpha_i of the piece containing x (left limit at breakpoints)."""
    return np.log(p.slopes[np.searchsorted(p.knots, x, side="left")])


def profile_schedule(p: PiecewiseLinear, d: int = 1,
                     axis: int = 0) -> ControlSchedule:
    """Schedule whose flow equals the profile exactly on [y_0, y_{n+1}].

    All neurons act on the chosen coordinate only, so the lift to R^d fixes
    the other coordinates.  Segment count: one stage per piece whose slope
    differs from the previous piece's (the first piece's from 1) by more
    than rounding, so at most n+1, plus 2 for the translation gadget when
    zeta(y_0) != y_0.  Raises ValueError unless p is finite and increasing.
    """
    if not p.well_formed(increasing=True):
        raise ValueError("profile must be finite and increasing")
    y, slopes = p.knots, p.slopes[1:-1]
    tau = float(p.values[0]) - y[0]
    sched = ControlSchedule()
    if tau > 0:
        sched = translation_gadget(y[0] - 2.0, 1.0, tau, 1.0, d=d, axis=axis)
    elif tau < 0:
        # exact negative translation on {x >= y0 - 1}: invert a positive gadget
        sched = invert_schedule(translation_gadget(
            y[0] - 2.0 - abs(tau), 1.0, abs(tau), 1.0, d=d, axis=axis))

    # slope-change stages in the translated frame: breakpoints shift by tau,
    # the left endpoint becomes a fixed point, and the stages before stage i
    # carry the translated y_i to zeta(y_i); a ratio of 1 up to rounding needs
    # no stage, and chords through knots and values of size <= M, spaced >= D
    # apart, are off by a few eps M / D
    ratios = slopes / np.concatenate([[1.0], slopes[:-1]])
    durations = np.diff(y + tau)
    M = max(np.abs(y).max(), np.abs(p.values).max())
    D = min(np.diff(y).min(), np.diff(p.values).min())
    keep = np.abs(ratios - 1.0) > 8 * np.finfo(float).eps * M / D
    return sched + slope_change_stages(p.values[:-1][keep], ratios[keep],
                                       durations[keep], d=d, axis=axis)
