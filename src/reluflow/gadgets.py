"""Elementary building-block schedules.

Five constructors, each with an exact closed-form flow:

* ``translation_gadget`` -- two segments (dilate, contract about a shifted
  center); the composite equals x + tau on {x >= c + h} and the identity on
  {x <= c}, interpolating monotonically on the ramp (c, c + h).
* ``shear_for_region`` -- two divergence-free segments per entry of tau, lo
  and hi; entry i translates the points past hi_i along x_sel by tau_i
  e_move, is the identity before lo_i and ramps linearly in between.
  Volume-preserving: logdet increment is exactly zero.
* ``staircase`` -- one ``shear_for_region`` call adding sum_e jump_e
  ramp(x_read - c_e) to x_write, each ramp rising from 0 to 1 over
  [c_e - half, c_e + half]; exact wherever the ramps are empty.
* ``lift`` -- one staircase per lattice, adding unit times the C-order
  index of a point's lattice cell to x_write.
* ``slope_change_stages`` -- one segment per stage, stage i realizing
  x -> c_i + ratio_i * (x - c_i) on {x >= c_i} over its own duration, the
  basic steps for monotone piecewise-affine profiles.

Gadgets accept an ambient dimension ``d`` and an ``axis`` so 1-d
constructions lift to R^d acting on a single coordinate.
"""

from __future__ import annotations

import numpy as np

from reluflow.schedule import ControlSchedule


def _aligned(d: int, w_axis: int, w, a_axis: int, a, b,
             duration) -> ControlSchedule:
    """Segments i with w = w[i] e_{w_axis} and a = a[i] e_{a_axis}, raveled."""
    for axis in (w_axis, a_axis):
        if not 0 <= axis < d:
            raise ValueError(f"axis {axis} out of range for dimension {d}")
    e = np.eye(d)
    a, w, b, duration = (np.ravel(v) for v in (a, w, b, duration))
    return ControlSchedule.from_arrays(np.multiply.outer(a, e[a_axis]),
                                       np.multiply.outer(w, e[w_axis]), b,
                                       duration)


def translation_gadget(c: float, h: float, tau: float, T: float,
                       d: int = 1, axis: int = 0) -> ControlSchedule:
    """Two-segment gadget: x + tau on {x >= c+h}, identity on {x <= c}.

    Stage 1 dilates about c with rate w = (2/T) log(1 + tau/h); stage 2
    contracts about c + h + tau with rate -w.  Each stage lasts T/2, so
    |w| <= (2/T) log(1 + tau/h) and biases are bounded by |c| + tau + h.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if T <= 0:
        raise ValueError("T must be positive")
    rate = (2.0 / T) * np.log1p(tau / h)
    eta = tau + h
    return _aligned(d, axis, [rate, -rate], axis, [1.0, 1.0],
                    [-c, -(c + eta)], [T / 2.0, T / 2.0])


def shear_for_region(move_axis: int, tau, sel_axis: int, lo, hi,
                     d: int) -> ControlSchedule:
    """Divergence-free segment pairs translating half-spaces sideways.

    ``tau``, ``lo`` and ``hi`` broadcast together; pair i adds tau_i to
    x_{move_axis} where x_{sel_axis} is at or past hi_i (x_sel >= hi when
    lo < hi, x_sel <= hi when lo > hi), is the identity where x_sel is at
    or before lo_i, and ramps linearly in between.  With sign =
    sgn(hi - lo), h = |hi - lo| and u = sgn(tau) e_move, its segments
    (w, a, b) are (-u, sign e_sel, -sign lo - h) and (u, sign e_sel,
    -sign lo), each for |tau|/h.  Both satisfy a.w = 0, so the tracked
    logdet increment is exactly zero and the flow is volume preserving.
    """
    if move_axis == sel_axis:
        raise ValueError("move_axis and sel_axis must be distinct (shear "
                         "needs u ⟂ n)")
    tau, lo, hi = np.broadcast_arrays(tau, lo, hi)
    width = np.abs(hi - lo)
    if np.any(width <= 0):
        raise ValueError("ramp must have positive width")
    sign = np.where(lo < hi, 1.0, -1.0)
    b = -sign * lo
    u = np.sign(tau)
    t = np.abs(tau) / width
    pair = lambda first, second: np.stack([first, second], axis=-1)
    return _aligned(d, move_axis, pair(-u, u), sel_axis, pair(sign, sign),
                    pair(b - width, b), pair(t, t))


def staircase(write_axis: int, read_axis: int, centres, jumps, half: float,
              d: int) -> ControlSchedule:
    """Shears adding sum_e jumps[e] * ramp(x_read - centres[e]) to x_write.

    ramp is 0 below -half, 1 above +half and linear in between; each
    nonzero jump costs one shear pair, in the order given.
    """
    centres, jumps = np.broadcast_arrays(centres, jumps)
    move = jumps != 0
    return shear_for_region(write_axis, jumps[move], read_axis,
                            centres[move] - half, centres[move] + half, d)


def lift(write_axis: int, lattices, unit: float, d: int) -> ControlSchedule:
    """Staircases adding unit * (C-order index of a point's cell) to x_write.

    ``lattices`` lists (read_axis, interior_edges, half) per lattice, whose
    cells are the bands between its edges (the outer two unbounded); the
    last lattice is the fastest digit.
    """
    counts = [len(edges) + 1 for _, edges, _ in lattices]
    strides = np.cumprod([1] + counts[:0:-1])[::-1]
    return ControlSchedule.concat(
        staircase(write_axis, axis, edges, unit * stride, half, d)
        for (axis, edges, half), stride in zip(lattices, strides))


def slope_change_stages(c, ratio, h, d: int = 1,
                        axis: int = 0) -> ControlSchedule:
    """One segment per stage; stage i's time-h_i flow fixes {x <= c_i} and
    maps x -> c_i + ratio_i (x - c_i).

    Stage i's rate gamma_i = log(ratio_i)/h_i integrates to its slope ratio
    over its own duration h_i.
    """
    c, ratio, h = (np.asarray(v, dtype=float) for v in (c, ratio, h))
    if np.any(ratio <= 0):
        raise ValueError("ratio must be positive (profile must increase)")
    if np.any(h <= 0):
        raise ValueError("h must be positive")
    return _aligned(d, axis, np.log(ratio) / h, axis, np.ones_like(c), -c, h)
