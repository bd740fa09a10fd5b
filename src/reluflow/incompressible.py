"""Cube-permutation realization of measure-preserving maps.

A measure-preserving map on a box is approximated in two steps:

1. classify each grid cube as *good* (a core stencil maps into a single
   target core) or *bad*, and extend the injective good assignment to a
   full permutation sigma of cube indices (``mp_to_permutation``);
2. realize sigma by four passes of staircase shears
   (``permutation_schedule``).  Write n for the cubes per axis, h for
   their pitch and "level l" for the lattice slab -L + l h <= x < -L +
   (l + 1) h of one coordinate, extended past the box:

   * lift: x_1 += code(k) n h, read from every axis m != 1, where code is
     the mixed-radix index of the source cube k without its axis-1 index;
     every source cube now has its own x_1 level code n + k_1;
   * move: every axis m != 1 goes to the target's index, read from x_1;
     axis 0 also gets a slot offset slot(t) n h, with slot the mixed-radix
     index of the target t without its axis-0 index, so that every target
     cube has its own x_0 level slot n + t_0;
   * drop: x_1 goes to the target's index, read from x_0;
   * unstagger: x_0 -= slot(t) n h, read from x_1 and the other axes.

Each pass reads only coordinates that it does not write, and every ramp
lies inside a delta-gap between two levels, so every core is carried onto
its target core exactly, up to rounding.  All segments are perpendicular
shears (a.w = 0): the flow is volume preserving with tracked logdet
identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reluflow.gadgets import lift, staircase
from reluflow.numerics import grid_points
from reluflow.schedule import ControlSchedule, flow_points


class PermutationConflictError(RuntimeError):
    """Two good cubes claim the same target core (grid too coarse)."""


@dataclass(frozen=True)
class CubeGrid:
    """Uniform cube grid on [-L, L]^d with cores shrunk by a gap delta.

    Cube multi-index k in {0..n-1}^d has corner -L + k h and core
    [corner, corner + h - delta] per axis.
    """

    L: float
    h: float
    delta: float
    d: int

    def __post_init__(self):
        if self.h <= 0 or not 0 < self.delta < self.h:
            raise ValueError("need 0 < delta < h")
        n = 2 * self.L / self.h
        if abs(n - round(n)) > 1e-9:
            raise ValueError("h must divide the box side 2L")
        object.__setattr__(self, "n", int(round(n)))

    @property
    def n_cubes(self) -> int:
        return self.n ** self.d

    def all_indices(self) -> np.ndarray:
        return grid_points([np.arange(self.n)] * self.d)

    def flat(self, idx) -> int:
        return int(np.ravel_multi_index(tuple(np.asarray(idx)), (self.n,) * self.d))

    def unflat(self, f: int) -> np.ndarray:
        return np.array(np.unravel_index(int(f), (self.n,) * self.d))

    def corner(self, idx) -> np.ndarray:
        return -self.L + np.asarray(idx, dtype=float) * self.h

    def core_contains(self, idx, X, margin: float = 0.0) -> np.ndarray:
        lo = self.corner(idx) + margin
        hi = self.corner(idx) + (self.h - self.delta) - margin
        X = np.atleast_2d(X)
        return np.all((X >= lo - 1e-12) & (X <= hi + 1e-12), axis=1)

    def sample_core(self, idx, rng, n: int, margin: float = 0.0) -> np.ndarray:
        lo = self.corner(idx) + margin
        hi = self.corner(idx) + (self.h - self.delta) - margin
        return rng.uniform(lo, hi, size=(n, self.d))

    def locate_core(self, X, tol: float = 1e-9):
        """Per point: flat cube index if inside that cube's core, else -1."""
        X = np.atleast_2d(X)
        rel = (X + self.L) / self.h
        cell = np.floor(rel + tol).astype(int)
        ok = np.all((cell >= 0) & (cell < self.n), axis=1)
        cell = np.clip(cell, 0, self.n - 1)
        local = X - (-self.L + cell * self.h)
        inside = np.all((local >= -tol) & (local <= self.h - self.delta + tol),
                        axis=1)
        flat = np.ravel_multi_index(cell.T, (self.n,) * self.d)
        return np.where(ok & inside, flat, -1)


@dataclass(frozen=True)
class Permutation:
    """Bijection on flat cube indices in array form: i -> sigma[i]."""

    sigma: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=int)
        object.__setattr__(self, "sigma", s)
        if not np.array_equal(np.sort(s), np.arange(len(s))):
            raise ValueError("not a bijection")

    def __call__(self, i: int) -> int:
        return int(self.sigma[i])

    def __len__(self) -> int:
        return len(self.sigma)

    def is_identity(self) -> bool:
        return bool(np.all(self.sigma == np.arange(len(self.sigma))))


def _active_cubes(grid: CubeGrid, active) -> np.ndarray:
    """Multi-indices of cubes whose closure intersects any (lower, upper) box.

    Enumerates the index ranges of each box directly, so huge grids never
    have to be materialized when the active region is small.
    """
    if active is None:
        return grid.all_indices()
    eps = 1e-12
    blocks = []
    for box_lo, box_hi in active:
        box_lo = np.asarray(box_lo, dtype=float)
        box_hi = np.asarray(box_hi, dtype=float)
        k_lo = np.ceil((box_lo + grid.L) / grid.h - 1.0 - eps).astype(int)
        k_hi = np.floor((box_hi + grid.L) / grid.h + eps).astype(int)
        k_lo = np.maximum(k_lo, 0)
        k_hi = np.minimum(k_hi, grid.n - 1)
        if np.any(k_lo > k_hi):
            continue
        blocks.append(grid_points([np.arange(lo, hi + 1)
                                   for lo, hi in zip(k_lo, k_hi)]))
    if not blocks:
        return np.empty((0, grid.d), dtype=int)
    return np.unique(np.vstack(blocks), axis=0)


def mp_to_permutation(m, grid: CubeGrid, active=None) -> tuple:
    """Classify cubes and extend the good assignment to a permutation.

    ``m`` maps an (N, d) array to an (N, d) array.  For each cube the core
    center plus a 3^d stencil (offsets +-(h - delta)/4 per axis) is pushed
    through m; if all images land in one target core the cube is good.
    ``active`` optionally lists (lower, upper) boxes outside which m is
    known to be the identity; cubes not touching them are fixed without
    evaluation.  Returns (Permutation, bad_flat_indices).
    """
    offsets = grid_points([np.array([-1.0, 0.0, 1.0])] * grid.d)
    offsets *= (grid.h - grid.delta) / 4.0
    sigma = np.arange(grid.n_cubes)
    act = _active_cubes(grid, active)
    if not len(act):
        return Permutation(sigma), []
    act_flat = np.ravel_multi_index(act.T, (grid.n,) * grid.d)
    centers = -grid.L + act * grid.h + (grid.h - grid.delta) / 2.0
    pts = (centers[:, None, :] + offsets[None, :, :]).reshape(-1, grid.d)
    img = np.atleast_2d(np.asarray(m(pts), dtype=float))
    cores = grid.locate_core(img).reshape(len(act), -1)

    good = (cores[:, 0] >= 0) & np.all(cores == cores[:, :1], axis=1)
    src, tgt = act_flat[good], cores[good, 0]
    # conflicts in row order: a core claimed twice, or a fixed core claimed
    _, first = np.unique(tgt, return_index=True)
    repeat = np.ones(len(tgt), dtype=bool)
    repeat[first] = False
    escape = ~np.isin(tgt, act_flat) & (tgt != src)
    if np.any(repeat | escape):
        r = int(np.argmax(repeat | escape))
        if repeat[r]:
            raise PermutationConflictError(
                f"cubes {src[np.argmax(tgt == tgt[r])]} and {src[r]} both map "
                f"into core {tgt[r]} (grid too coarse for this map)")
        raise PermutationConflictError(
            f"cube {src[r]} maps into core {tgt[r]}, which is fixed "
            "outside the active region")
    sigma[src] = tgt
    bad = act_flat[~good]
    sigma[bad] = np.setdiff1d(act_flat, tgt)
    return Permutation(sigma), bad.tolist()


def _mixed_radix(idx: np.ndarray, skip: int, n: int) -> np.ndarray:
    """Per row: the base-n number whose digits are idx without column skip."""
    rest = np.delete(idx, skip, axis=1)
    return rest @ n ** np.arange(rest.shape[1])


def permutation_schedule(sigma: Permutation,
                         grid: CubeGrid) -> ControlSchedule:
    """Divergence-free schedule carrying core i onto core sigma(i), for all i.

    Four passes of staircase shears (see the module docstring); ramps have
    half-width delta/4 and are centred in the delta-gaps.  The identity
    gives an empty schedule.
    """
    d, n, h, L = grid.d, grid.n, grid.h, grid.L
    if d < 2:
        raise ValueError("permutations need a transverse axis (d >= 2)")
    if len(sigma) != grid.n_cubes:
        raise ValueError(f"permutation of {len(sigma)} cubes on a grid of "
                         f"{grid.n_cubes}")
    if sigma.is_identity():
        return ControlSchedule()
    src = grid.all_indices()
    tgt = src[sigma.sigma]
    half = grid.delta / 4.0
    # ramp e is centred in the gap just below level e
    centres = -L + h * np.arange(grid.n_cubes) - grid.delta / 2.0

    def by_digits(write_axis, sign):
        """lift adding sign * _mixed_radix(k, write_axis) n h to x_write on
        cube k, whose fastest digit, the first other axis, is lift's last."""
        others = np.delete(np.arange(d), write_axis)[::-1]
        return lift(write_axis, [(m, centres[1:n], half) for m in others],
                    sign * n * h, d)

    def by_level(write_axis, read_axis, level, value):
        """Staircase adding value[i] to x_write on x_read's level level[i]."""
        steps = np.zeros(grid.n_cubes)
        steps[level] = value
        return staircase(write_axis, read_axis, centres,
                         np.diff(steps, prepend=0.0), half, d)

    lifted = by_digits(1, +1)
    level = _mixed_radix(src, 1, n) * n + src[:, 1]
    slot = _mixed_radix(tgt, 0, n)
    offset = tgt - src
    offset[:, 0] += slot * n    # the slot offset, removed by unstagger
    move = ControlSchedule.concat(by_level(m, 1, level, offset[:, m] * h)
                                  for m in range(d) if m != 1)
    drop = by_level(1, 0, slot * n + tgt[:, 0], (tgt[:, 1] - level) * h)
    unstagger = by_digits(0, -1)
    return ControlSchedule.concat((lifted, move, drop, unstagger))


def swap_schedule(i, j, grid: CubeGrid) -> ControlSchedule:
    """Divergence-free schedule exchanging cores i and j (adjacent cubes).

    The flow maps core i onto core j and vice versa and fixes every other
    core pointwise; the tracked logdet is identically zero.
    """
    if grid.d < 2:
        raise ValueError("swaps need a transverse axis (d >= 2)")
    diff = np.asarray(j, dtype=int) - np.asarray(i, dtype=int)
    if np.sum(np.abs(diff)) != 1:
        raise ValueError(f"cubes {np.asarray(i).tolist()} and "
                         f"{np.asarray(j).tolist()} are not adjacent")
    sigma = np.arange(grid.n_cubes)
    a, b = grid.flat(i), grid.flat(j)
    sigma[[a, b]] = b, a
    return permutation_schedule(Permutation(sigma), grid)


@dataclass(frozen=True)
class RealizeReport:
    residual: float
    p: float
    n_good: int
    n_bad: int
    n_segments: int
    switch_count: int


def mp_realize(m, grid: CubeGrid, p: float = 2.0,
               samples_per_core: int = 8, seed: int = 0, active=None):
    """Full pipeline: permutation -> its four-pass shear schedule.

    Returns (schedule, RealizeReport); the residual is the L^p distance
    between m and the schedule flow on an evaluation cloud in the sampled
    cores (the active and moved ones when ``active`` boxes are given),
    over the volume of those cores.
    """
    sigma, bad = mp_to_permutation(m, grid, active=active)
    sched = permutation_schedule(sigma, grid)

    rng = np.random.default_rng(seed)
    act = _active_cubes(grid, active)
    moved = np.flatnonzero(sigma.sigma != np.arange(grid.n_cubes))
    moved_idx = np.array(np.unravel_index(moved, (grid.n,) * grid.d)).T
    eval_idx = np.unique(np.vstack([act, moved_idx.reshape(-1, grid.d)]),
                         axis=0)
    lo = -grid.L + eval_idx[:, None, :] * grid.h
    pts = rng.uniform(lo, lo + (grid.h - grid.delta),
                      size=(len(eval_idx), samples_per_core, grid.d))
    pts = pts.reshape(-1, grid.d)
    target = np.atleast_2d(np.asarray(m(pts), dtype=float))
    flowed, _ = flow_points(pts, sched)
    core_vol = len(eval_idx) * (grid.h - grid.delta) ** grid.d
    residual = float((np.mean(np.sum(np.abs(flowed - target) ** p, axis=1))
                      * core_vol) ** (1.0 / p))
    # only the classified (active) cubes count as good or bad
    report = RealizeReport(residual=residual, p=p, n_good=len(act) - len(bad),
                           n_bad=len(bad), n_segments=len(sched),
                           switch_count=sched.switch_count)
    return sched, report
