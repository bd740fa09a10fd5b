"""Cube-permutation realization of measure-preserving maps.

A measure-preserving map on a box is approximated in three stages:

1. classify each grid cube as *good* (a core stencil maps into a single
   target core) or *bad*, extend the injective good assignment to a full
   permutation of cube indices;
2. decompose the permutation into adjacent transpositions (disjoint cycles,
   star factorization per cycle, grid-path conjugation for non-adjacent
   pairs);
3. realize each adjacent swap as a divergence-free schedule that conjugates
   a four-move block exchange by an isolation map pushing every other core
   far below the active band.

All emitted segments are perpendicular shears (a.w = 0), so the whole
schedule is volume preserving with tracked logdet identically zero.

The block-exchange choreography deviates from the textbook four-map picture
in two places, both forced by the constraint that every elementary move is
a *perpendicular* shear (a half-space can only be translated parallel to
its boundary):

* the "lift the far-right strip" move cannot also be gated on the vertical
  coordinate, so it lifts distant isolated cores too; a mirror shear at the
  end cancels this exactly (nothing in between changes the gating
  coordinate of those cores);
* the final "lower the elevated block" move cannot be gated on the vertical
  coordinate at all; it is replaced by a pair of opposing shears gated on
  the horizontal coordinate whose wrong moves cancel exactly outside the
  block's column, which the isolation has emptied beforehand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from reluflow.gadgets import shear_for_region
from reluflow.numerics import grid_points
from reluflow.schedule import ControlSchedule, flow_points, invert_schedule


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
        return np.array(list(itertools.product(range(self.n), repeat=self.d)),
                        dtype=int)

    def flat(self, idx) -> int:
        return int(np.ravel_multi_index(tuple(np.asarray(idx)), (self.n,) * self.d))

    def unflat(self, f: int) -> np.ndarray:
        return np.array(np.unravel_index(int(f), (self.n,) * self.d))

    def corner(self, idx) -> np.ndarray:
        return -self.L + np.asarray(idx, dtype=float) * self.h

    def core_center(self, idx) -> np.ndarray:
        return self.corner(idx) + (self.h - self.delta) / 2.0

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

    def cycles(self) -> list:
        """Nontrivial disjoint cycles, each starting at its smallest element."""
        moved = np.flatnonzero(self.sigma != np.arange(len(self.sigma)))
        seen = set()
        out = []
        for start in moved:
            start = int(start)
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = int(self.sigma[start])
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = int(self.sigma[nxt])
            out.append(cyc)
        return out


def apply_transpositions(pairs, n: int) -> Permutation:
    """Compose transpositions in application order (first pair acts first)."""
    sigma = np.arange(n)
    for a, b in pairs:
        # post-compose with the swap (a b): contents of a and b exchange
        ia, ib = np.flatnonzero(sigma == a)[0], np.flatnonzero(sigma == b)[0]
        sigma[[ia, ib]] = sigma[[ib, ia]]
    return Permutation(sigma)


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
    offsets = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=grid.d)))
    offsets *= (grid.h - grid.delta) / 4.0
    n = grid.n_cubes
    act = _active_cubes(grid, active)
    sigma = np.arange(n)
    bad = []
    if len(act):
        act_flat = np.ravel_multi_index(act.T, (grid.n,) * grid.d)
        centers = -grid.L + act * grid.h + (grid.h - grid.delta) / 2.0
        pts = (centers[:, None, :] + offsets[None, :, :]).reshape(-1, grid.d)
        img = np.atleast_2d(np.asarray(m(pts), dtype=float))
        cores = grid.locate_core(img).reshape(len(act), -1)

        act_set = set(int(i) for i in act_flat)
        good_src, good_tgt = [], []
        seen = {}
        for row in range(len(act)):
            i = int(act_flat[row])
            c = cores[row]
            if c[0] >= 0 and np.all(c == c[0]):
                j = int(c[0])
                if j in seen:
                    raise PermutationConflictError(
                        f"cubes {seen[j]} and {i} both map into core {j} "
                        "(grid too coarse for this map)")
                if j not in act_set and j != i:
                    raise PermutationConflictError(
                        f"cube {i} maps into core {j}, which is fixed "
                        "outside the active region")
                seen[j] = i
                good_src.append(i)
                good_tgt.append(j)
            else:
                bad.append(i)
        free_targets = sorted(act_set - set(good_tgt))
        if good_src:
            sigma[good_src] = good_tgt
        if bad:
            sigma[sorted(bad)] = free_targets
    return Permutation(sigma), bad


def _grid_path(a: np.ndarray, b: np.ndarray) -> list:
    """Lexicographic L-shaped lattice path from a to b (inclusive)."""
    path = [np.array(a)]
    cur = np.array(a)
    for axis in range(len(a)):
        step = 1 if b[axis] > cur[axis] else -1
        while cur[axis] != b[axis]:
            cur = cur.copy()
            cur[axis] += step
            path.append(cur)
    return path


def permutation_to_adjacent_transpositions(sigma: Permutation,
                                           grid: CubeGrid) -> list:
    """Adjacent index pairs whose ordered product equals sigma.

    A cycle (a1 a2 ... ak) factors into consecutive-element transpositions
    (a_{k-1} a_k), ..., (a2 a3), (a1 a2) in application order, so cycles
    that walk the lattice one step at a time cost one adjacent swap per
    element.  A non-adjacent transposition is conjugated along an
    axis-by-axis lattice path into adjacent swaps (walk out, swap at the
    far end, walk back).
    """
    out = []
    for cyc in sigma.cycles():
        for a, b in zip(cyc[-2::-1], cyc[:0:-1]):
            ia, ib = grid.unflat(a), grid.unflat(b)
            path = _grid_path(ia, ib)
            steps = [(grid.flat(p), grid.flat(q))
                     for p, q in zip(path, path[1:])]
            out.extend(steps[:-1] + [steps[-1]] + steps[-2::-1])
    return out


def swap_schedule(i, j, grid: CubeGrid) -> ControlSchedule:
    """Divergence-free schedule exchanging cores i and j (adjacent cubes).

    The flow maps core i onto core j and vice versa and fixes every other
    core pointwise; the tracked logdet is identically zero.
    """
    if grid.d < 2:
        raise ValueError("swaps need a transverse axis (d >= 2)")
    i = np.asarray(i, dtype=int)
    j = np.asarray(j, dtype=int)
    diff = j - i
    axes = np.nonzero(diff)[0]
    if len(axes) != 1 or abs(diff[axes[0]]) != 1:
        raise ValueError(f"cubes {i.tolist()} and {j.tolist()} are not adjacent")
    ax1 = int(axes[0])
    base = i if diff[ax1] > 0 else j
    ax2 = 0 if ax1 != 0 else 1

    d, h, delta = grid.d, grid.h, grid.delta
    c = grid.corner(base)
    c1, c2 = c[ax1], c[ax2]
    D = 4 * grid.L + 4 * h   # multiple of h: pushed cores stay lattice-aligned

    iso = ControlSchedule()
    # push cores differing in any passive axis out of the active band *and*
    # out of the pair's column window (selectors on the passive coordinate,
    # which neither move changes, so the displacements are exact)
    for m in range(d):
        if m in (ax1, ax2):
            continue
        cm = c[m]
        for move_axis in (ax2, ax1):
            iso = iso + shear_for_region(move_axis, -D, m, cm + h - delta,
                                         cm + h, d)
            iso = iso + shear_for_region(move_axis, -D, m, cm, cm - delta, d)
    # push the columns left and right of the pair down, then sweep the rows
    # above the pair sideways out of the pair's column window and down
    iso = iso + shear_for_region(ax2, -D, ax1, c1 + 2 * h - delta, c1 + 2 * h, d)
    iso = iso + shear_for_region(ax2, -D, ax1, c1, c1 - delta, d)
    iso = iso + shear_for_region(ax1, -D, ax2, c2 + h - delta, c2 + h, d)
    iso = iso + shear_for_region(ax2, -D, ax1, c1, c1 - delta, d)
    # finally sweep everything below the band (including cores under the
    # pair's own columns) out of the column window, so the lowering pair
    # below cancels exactly on every isolated core
    iso = iso + shear_for_region(ax1, -D, ax2, c2, c2 - delta, d)

    # block exchange: right, lift, left, lower (the lift and the lower leak
    # onto isolated cores; the mirror shears cancel the leaks exactly)
    swap = ControlSchedule()
    swap = swap + shear_for_region(ax1, +h, ax2, c2 - delta, c2, d)
    swap = swap + shear_for_region(ax2, +h, ax1, c1 + 2 * h - delta, c1 + 2 * h, d)
    swap = swap + shear_for_region(ax1, -2 * h, ax2, c2 + h - delta, c2 + h, d)
    swap = swap + shear_for_region(ax2, -h, ax1, c1 + h, c1 + h - delta, d)
    swap = swap + shear_for_region(ax2, +h, ax1, c1, c1 - delta, d)
    swap = swap + shear_for_region(ax2, -h, ax1, c1 + 2 * h - delta, c1 + 2 * h, d)

    return iso + swap + invert_schedule(iso)


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
    """Full pipeline: permutation -> transpositions -> concatenated swaps.

    Returns (schedule, RealizeReport); the residual is the L^p distance
    between m and the schedule flow on an evaluation cloud restricted to
    the cores (the active cores when ``active`` boxes are given).
    """
    sigma, bad = mp_to_permutation(m, grid, active=active)
    pairs = permutation_to_adjacent_transpositions(sigma, grid)
    sched = ControlSchedule.concat(
        swap_schedule(grid.unflat(a), grid.unflat(b), grid) for a, b in pairs)

    rng = np.random.default_rng(seed)
    act = _active_cubes(grid, active)
    moved = np.flatnonzero(sigma.sigma != np.arange(grid.n_cubes))
    moved_idx = np.array(np.unravel_index(moved, (grid.n,) * grid.d)).T
    eval_idx = np.unique(np.vstack([act, moved_idx.reshape(-1, grid.d)]),
                         axis=0)
    pts = np.vstack([grid.sample_core(idx, rng, samples_per_core)
                     for idx in eval_idx])
    target = np.atleast_2d(np.asarray(m(pts), dtype=float))
    flowed, _ = flow_points(pts, sched)
    core_vol = grid.n_cubes * (grid.h - grid.delta) ** grid.d
    residual = float((np.mean(np.sum(np.abs(flowed - target) ** p, axis=1))
                      * core_vol) ** (1.0 / p))
    report = RealizeReport(residual=residual, p=p, n_good=grid.n_cubes - len(bad),
                           n_bad=len(bad), n_segments=len(sched),
                           switch_count=sched.switch_count)
    return sched, report
