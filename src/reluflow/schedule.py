"""Control schedules and the exact closed-form flow of a single ReLU neuron.

A neuron theta = (w, a, b) drives the ODE  dx/dt = w * relu(a.x + b).  Write
z = a.x + b and s = a.w.  Along a trajectory z(t) = z(0) e^{s t} while
z > 0, so the activation sign never changes within a segment and the
time-tau flow is exact:

    z <= 0           : x unchanged,                      logdet += 0
    z > 0,  s != 0   : x += w z (e^{s tau} - 1) / s,     logdet += s tau
    z > 0,  s == 0   : x += w z tau,                     logdet += 0

The log-determinant increment is exact because div v = (w.a) 1_{z>0} is
constant along the trajectory within a segment.

A ControlSchedule stores the control as four read-only arrays, one row per
segment: a and w of shape (n, d), b and duration of shape (n,).  They are
checked once, at construction (``from_arrays``, or ``from_dict`` for the
JSON form), and are the only representation of a schedule; ``segments``
remains as a tuple of Segment rows for readers of durations.

``flow_segments`` applies the closed forms one segment at a time; it is
the reference kernel that the tests compare the compiled form with.
``flow_points`` runs a schedule's compiled form (``compile_schedule``,
cached on the schedule): a maximal run of axis-aligned segments (a = a_k
e_k, w = w_l e_l) acts on one coordinate at a time and is fused into one
exact piecewise-linear map.  A shear run (k != l, s = 0) adds f(x_k) to
x_l; a profile run (k = l) maps x_k monotonically, with a piecewise-constant
log-det.  Both hold their map as a ``PiecewiseLinear`` (knots, values and
one slope per piece), the package's one form of a 1-d piecewise-linear map,
which finds each point's piece in a bucket table built on first use.
Both runs are fused in difference form: their slopes (log-slopes for a
profile run) accumulate the jump at each kink and their values follow from
one anchor by a cumulative sum, so no large products cancel.  Other
segments, short runs and segments past the exp overflow guard stay on the
per-segment loop, in order.  There, consecutive segments with equal
(a, w, b), as a sampled schedule repeats them, are one autonomous field,
whose flow is a one-parameter group: they merge into one loop entry held
for their summed duration, unless that entry's exponent would pass the
guard.  Each entry's displacement scale * w is premultiplied once, so a
loop step is a handful of numpy calls on the whole batch.
``flow_segments`` runs the same loop with nothing fused or merged.  The
kernels agree up to rounding; at a kink, where the log-det is undefined,
they may take opposite one-sided values.

All flow operations are vectorized over arrays of points with shape (N, d);
a single point x is the batch x[None].
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from reluflow.numerics import neuron_field, rk4

# exp overflow guard: segments never need s*tau beyond this at working scale
_EXP_ARG_MAX = 700.0


class FlowOverflowError(OverflowError):
    """Raised when a segment would require evaluating exp beyond range."""


class Segment(NamedTuple):
    """One row of a schedule: the neuron (w, a, b) held for ``duration``."""

    a: np.ndarray
    w: np.ndarray
    b: float
    duration: float


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


# the JSON value kinds that ``json_key`` checks: (description, test)
_JSON_KINDS = {
    "integer": ("an integer",
                lambda v: isinstance(v, numbers.Integral) and _is_number(v)),
    "number": ("a number", _is_number),
    "vector": ("a 1-d list of numbers",
               lambda v: isinstance(v, (list, tuple))
               and all(map(_is_number, v))),
}


def json_key(data: dict, key: str, where: str, kind: str = None):
    """``data[key]``, checked to be present and, for ``kind`` "integer",
    "number" or "vector", to be an integer, a number or a 1-d list of
    numbers; the ValueError names ``where`` and the key."""
    if key not in data:
        raise ValueError(f"{where}: missing key {key!r}")
    if kind is not None:
        what, ok = _JSON_KINDS[kind]
        if not ok(data[key]):
            raise ValueError(f'{where}: "{key}" must be {what}')
    return data[key]


def json_rows(rows, where: str, kinds: dict = None) -> list:
    """``rows``, checked to be a JSON list; with ``kinds`` ({key: kind}), its
    entries must be objects holding each key with a value of that kind (see
    ``json_key``).  The ValueError for a wrong structure names ``where``."""
    if not isinstance(rows, list):
        raise ValueError(f'"{where}" must be a list')
    for i, row in enumerate(rows):
        if kinds and not isinstance(row, dict):
            raise ValueError(f"{where}[{i}] must be an object")
        for key, kind in (kinds or {}).items():
            json_key(row, key, f"{where}[{i}]", kind)
    return rows


def _stack_rows(rows) -> tuple:
    """The a, w, b and duration columns of per-segment rows (a, w, b, tau)
    whose a and w are 1-d."""
    a, w, b, duration = tuple(zip(*rows)) or ((),) * 4
    columns = []
    for col in (a, w):
        dims = sorted({len(v) for v in col})
        if len(dims) > 1:
            raise ValueError(f"segments have mixed dimensions {dims}")
        columns.append(np.reshape(col, (len(col), dims[0] if dims else 0)))
    return (*columns, b, duration)


class ControlSchedule:
    """An ordered list of segments; the control is constant on each.

    ``ControlSchedule()`` is the empty schedule; ``from_arrays`` builds any
    other.  The arrays a, w, b and duration are checked once and made
    read-only, so the compiled form cached on the schedule cannot go stale:
    ``from_arrays`` copies the arrays it is handed, ``concat`` keeps the
    ones it has just concatenated.
    """

    __slots__ = ("a", "w", "b", "duration", "_compiled", "__weakref__")

    def __init__(self):
        self._store(*_stack_rows(()))

    @classmethod
    def from_arrays(cls, a, w, b, duration) -> "ControlSchedule":
        """The schedule whose segment i is (w[i], a[i], b[i]) for duration[i]."""
        schedule = cls.__new__(cls)
        schedule._store(a, w, b, duration)
        return schedule

    def _store(self, a, w, b, duration, copy: bool = True) -> None:
        """Check and keep the arrays, copied unless ``copy`` is False (for
        float arrays that nothing else holds)."""
        a, w, b, duration = (np.array(v, dtype=float, copy=copy or None)
                             for v in (a, w, b, duration))
        if a.ndim != 2 or w.shape != a.shape:
            raise ValueError("w and a must have the same dimension")
        if b.shape != a.shape[:1] or duration.shape != b.shape:
            raise ValueError("need one b and one duration per segment")
        checks = {"w has non-finite entries": np.isfinite(w).all(axis=1),
                  "a has non-finite entries": np.isfinite(a).all(axis=1),
                  "b must be finite": np.isfinite(b),
                  "duration must be finite and >= 0":
                      np.isfinite(duration) & (duration >= 0)}
        for problem, ok in checks.items():
            if not ok.all():
                raise ValueError(f"segment {np.argmin(ok)}: {problem}")
        for v in (a, w, b, duration):
            v.flags.writeable = False
        self.a, self.w, self.b, self.duration = a, w, b, duration
        self._compiled = None

    @property
    def segments(self) -> tuple:
        """The rows as Segment tuples, built on each access; a and w are
        read-only views of the schedule's arrays."""
        return tuple(map(Segment, self.a, self.w, self.b.tolist(),
                         self.duration.tolist()))

    @property
    def d(self) -> int | None:
        return self.a.shape[1] if len(self) else None

    @property
    def total_duration(self) -> float:
        # summed in segment order
        return float(sum(self.duration.tolist()))

    @property
    def switch_count(self) -> int:
        return max(len(self) - 1, 0)

    def __len__(self) -> int:
        return self.b.shape[0]

    def __add__(self, other: "ControlSchedule") -> "ControlSchedule":
        return ControlSchedule.concat((self, other))

    @classmethod
    def concat(cls, schedules) -> "ControlSchedule":
        """The schedules one after another, as one schedule."""
        parts = [s for s in schedules if len(s)]
        if not parts:
            return cls()
        schedule = cls.__new__(cls)
        # the concatenated arrays are fresh: no second copy
        schedule._store(*(np.concatenate([getattr(s, name) for s in parts])
                          for name in ("a", "w", "b", "duration")), copy=False)
        return schedule

    # --- JSON persistence -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "d": self.d if self.d is not None else 0,
            "segments": [
                {"w": w, "a": a, "b": b, "duration": t}
                for w, a, b, t in zip(self.w.tolist(), self.a.tolist(),
                                      self.b.tolist(), self.duration.tolist())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ControlSchedule":
        """The schedule of {"d", "segments"}, where each segment is an
        object {"w", "a", "b", "duration"} ("d" is optional)."""
        if not isinstance(data, dict):
            raise ValueError("a schedule must be a JSON object")
        rows = json_rows(json_key(data, "segments", "schedule"), "segments",
                         {"a": "vector", "w": "vector", "b": "number",
                          "duration": "number"})
        schedule = cls.from_arrays(*_stack_rows(
            (row["a"], row["w"], row["b"], row["duration"]) for row in rows))
        d = schedule.d if schedule.d is not None else 0
        if "d" in data and data["d"] != d:
            raise ValueError(f"schedule declares d = {data['d']} but its "
                             f"segments have dimension {d}")
        return schedule

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "ControlSchedule":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# --------------------------------------------------------------------------
# compiled schedules: axis-aligned runs fused into exact 1-d maps

# Runs of fewer axis-aligned segments than this stay on the per-segment
# loop.  A schedule flowed once on a small batch pays for compiling its runs:
# on 64-point batches of distinct random segments, a fused shear run costs
# as much as its segments on the loop at 16 segments and less from there
# on, a fused profile run at about 32 (timings in CHANGES.md).  Shear runs
# are the ones sampled schedules have.
MIN_FUSED_RUN = 16
# flow_points moves a batch in blocks of this many rows.  A column of a
# block is 64 KiB, under glibc's default 128 KiB mmap threshold: whole
# 16,384-row columns made every temporary of the kernel map fresh pages
# (about 1,600 minor faults per push and pull of the sine-radial schedule
# against about 100 in blocks) in a process that had not yet raised the
# threshold by freeing a larger block, such as one that imports no SciPy.
_FLOW_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function of one variable.

    ``values`` at strictly increasing ``knots``, and one slope per piece:
    ``slopes[0]`` left of knots[0], ``slopes[i]`` between knots[i - 1] and
    knots[i], ``slopes[-1]`` right of knots[-1].  Build it ``through``
    points (chord slopes) or ``from_slopes`` (values by a cumulative sum);
    given slopes are stored as given.
    """

    knots: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        # per piece: anchor knot and value (piece i lies left of knots[i];
        # the last piece is right of every knot)
        object.__setattr__(self, "_x0", np.concatenate([self.knots[:1],
                                                        self.knots]))
        object.__setattr__(self, "_y0", np.concatenate([self.values[:1],
                                                        self.values]))

    @classmethod
    def through(cls, knots, values) -> "PiecewiseLinear":
        """The interpolant of ``values`` at ``knots``, extended by the end
        chords."""
        with np.errstate(all="ignore"):    # see well_formed
            chords = np.diff(values) / np.diff(knots)
        return cls(knots, values, np.concatenate([chords[:1], chords,
                                                  chords[-1:]]))

    @classmethod
    def from_slopes(cls, knots, slopes, value0: float) -> "PiecewiseLinear":
        """The function with these per-piece ``slopes`` (one more than
        knots) whose value at knots[0] is ``value0``."""
        values = np.empty_like(knots)
        values[0] = value0
        np.cumsum(slopes[1:-1] * np.diff(knots), out=values[1:])
        values[1:] += value0
        return cls(knots, values, slopes)

    def piece(self, x: np.ndarray) -> np.ndarray:
        """Index of the piece holding each x (a knot opens its right piece):
        ``np.searchsorted(knots, x, side="right")``, with NaN past every knot.

        The knots and x share one monotone map to uniform buckets over
        [knots[0], knots[-1]] (``_bucket``), so a knot in an earlier bucket
        than x's is <= x and one in a later bucket is > x.  x's piece is
        the number of knots before its bucket, read from a table built on
        first use, plus the knots <= x inside the bucket, counted by a
        bisection of as many steps as the fullest bucket needs.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return self.piece(x[None])[0]
        origin, scale, top, first, steps, padded = self._buckets
        i = first.take(_bucket(x, origin, scale, top))
        for step in steps:
            # padded[step - 1:][i] is knot i + step - 1, or +inf past the end
            np.add(i, step, out=i, where=~(padded[step - 1:].take(i) > x))
        # a NaN or +inf x also counts the padding
        return np.minimum(i, len(self.knots), out=i)

    @cached_property
    def _buckets(self) -> tuple:
        """The lookup table of ``piece``: the bucket map's origin, scale and
        last bucket (about four buckets per knot), each bucket's first knot
        index, the bisection steps (powers of two, largest first) and the
        knots padded with +inf for them."""
        knots = self.knots
        top = 4 * len(knots) - 1
        origin = knots[0]
        with np.errstate(divide="ignore", over="ignore"):
            scale = (top + 1) / (knots[-1] - origin)
        if not 0.0 < scale < np.inf:     # one knot, or an extreme span
            scale = 1.0
        counts = np.bincount(_bucket(knots, origin, scale, top),
                             minlength=top + 1)
        first = np.zeros(top + 1, dtype=np.intp)
        np.cumsum(counts[:-1], out=first[1:])
        steps = [1 << j for j in reversed(range(int(counts.max())
                                                .bit_length()))]
        padded = np.concatenate([knots, np.full(2 * steps[0] - 1, np.inf)])
        return origin, scale, top, first, steps, padded

    def __call__(self, x: np.ndarray, piece=None) -> np.ndarray:
        i = self.piece(x) if piece is None else piece
        return self._y0[i] + self.slopes[i] * (x - self._x0[i])

    def inverse(self) -> "PiecewiseLinear":
        """The inverse of an increasing function, affine beyond its image."""
        with np.errstate(all="ignore"):    # see well_formed
            return PiecewiseLinear(self.values, self.knots, 1.0 / self.slopes)

    def well_formed(self, increasing: bool) -> bool:
        parts = (self.knots, self.values, self.slopes)
        ok = all(np.all(np.isfinite(p)) for p in parts)
        ok = ok and bool(np.all(np.diff(self.knots) > 0))
        return ok and (not increasing or bool(np.all(self.slopes > 0)))


def _bucket(x: np.ndarray, origin: float, scale: float,
            top: int) -> np.ndarray:
    """floor((x - origin) * scale) clamped to [0, top], for x of at least
    one dimension: monotone in x, and NaN goes to ``top``."""
    v = x - origin
    v *= scale
    np.fmin(v, top, out=v)
    np.fmax(v, 0.0, out=v)
    return v.astype(np.intp)


def _kinked(kinks: np.ndarray, left: float, jumps: np.ndarray) -> tuple:
    """The distinct ``kinks`` as knots, each kink's knot index, and the
    per-piece slopes of a function with slope ``left`` left of every kink
    whose slope steps by ``jumps[i]`` across kinks[i]."""
    knots, kink = np.unique(kinks, return_inverse=True)
    steps = np.cumsum(np.bincount(kink, jumps, len(knots)))
    return knots, kink, left + np.concatenate([[0.0], steps])


@dataclass(frozen=True)
class ShearRun:
    """A run of shears reading x_read and writing x_write != x_read.

    Together they add f(x_read) to x_write, f piecewise linear with one kink
    per distinct segment kink -b/a_read; the log-det is unchanged.
    """

    read: int
    write: int
    f: PiecewiseLinear

    @classmethod
    def fuse(cls, read: int, write: int, alpha: np.ndarray, b: np.ndarray,
             gain: np.ndarray) -> "ShearRun":
        """Fuse the segments adding relu(alpha x_read + b) * gain to x_write
        (gain = duration * w_write; s = 0), in difference form.

        Left of every kink only the segments with alpha < 0 act; crossing a
        segment's kink raises the slope by |alpha| gain.  The values follow
        from f at the first knot by a cumulative sum over the pieces.
        """
        falling = alpha < 0
        knots, _, slopes = _kinked(-b / alpha,
                                   float(alpha[falling] @ gain[falling]),
                                   np.abs(alpha) * gain)
        value0 = float(np.maximum(knots[0] * alpha[falling] + b[falling], 0.0)
                       @ gain[falling])
        return cls(read, write,
                   PiecewiseLinear.from_slopes(knots, slopes, value0))

    def well_formed(self) -> bool:
        return self.f.well_formed(increasing=False)

    def apply(self, X: np.ndarray, logdet: np.ndarray) -> None:
        X[:, self.write] += self.f(X[:, self.read])

    def inverse(self) -> "ShearRun":
        f = self.f
        return ShearRun(self.read, self.write,
                        PiecewiseLinear(f.knots, -f.values, -f.slopes))


@dataclass(frozen=True)
class ProfileRun:
    """A run of segments reading and writing one coordinate.

    Together they map x_axis by an increasing piecewise-linear g and add
    ``logdets[i]`` (the log-slope of g) on g's piece i.
    """

    axis: int
    g: PiecewiseLinear
    logdets: np.ndarray

    @classmethod
    def fuse(cls, axis: int, alpha: np.ndarray, b: np.ndarray,
             arg: np.ndarray) -> "ProfileRun":
        """Compose the 1-d maps of the segments reading and writing x_axis
        with a_axis = alpha, bias b and exponent arg = s tau, left to right.

        Segment i scales its active side about its kink c_i by e^{arg_i}; its
        knot u_i is c_i pulled back through the segments before it, all in
        one backward sweep.  Crossing u_i changes the log-slope by
        sign(alpha_i) arg_i, and g(u_last) = c_last anchors the values.
        """
        c = -b / alpha
        u, moved = c.copy(), np.empty_like(c)
        # a segment raises what it moves iff it dilates above c_i or
        # contracts below it; its inverse then lowers them
        pulls = [np.minimum if lower else np.maximum
                 for lower in ((alpha > 0) == (arg > 0)).tolist()]
        # exp(arg) is within the overflow guard, but knots and slopes may
        # over- or underflow; well_formed rejects such a run
        with np.errstate(all="ignore"):
            for i, ci, ei, pull in zip(range(len(c) - 2, -1, -1),
                                       c[-2::-1].tolist(),
                                       np.exp(-arg[-2::-1]).tolist(),
                                       pulls[-2::-1]):
                # c + (y - c) e, not y e + c (1 - e): a kink on c stays on c
                later, out = u[i + 1:], moved[i + 1:]
                np.subtract(later, ci, out=out)
                out *= ei
                out += ci
                pull(later, out, out=later)
            knots, kink, logdets = _kinked(u, float(arg[alpha < 0].sum()),
                                           np.sign(alpha) * arg)
            slopes = np.exp(logdets)
            values = PiecewiseLinear.from_slopes(knots, slopes, 0.0).values
            g = PiecewiseLinear(knots, values + (c[-1] - values[kink[-1]]),
                                slopes)
        return cls(axis, g, logdets)

    def well_formed(self) -> bool:
        return (self.g.well_formed(increasing=True)
                and bool(np.all(np.isfinite(self.logdets))))

    def apply(self, X: np.ndarray, logdet: np.ndarray) -> None:
        x = X[:, self.axis]
        i = self.g.piece(x)
        logdet += self.logdets[i]
        X[:, self.axis] = self.g(x, i)

    def inverse(self) -> "ProfileRun":
        return ProfileRun(self.axis, self.g.inverse(), -self.logdets)


def _rates(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The divergence rate s = a.w of each row."""
    return (a[:, None, :] @ w[:, :, None]).reshape(-1)


@dataclass(frozen=True)
class CompiledSchedule:
    """A schedule as steps: fused runs and index arrays of loop entries.

    A step is a ShearRun, a ProfileRun or an index array of loop entries
    that ``flow`` applies one at a time.  A loop entry is one live segment,
    or a group of consecutive live loop segments with equal (a, w, b)
    merged into one held for their summed duration: the group is one
    autonomous field, whose flow is a one-parameter group.  Per entry it
    keeps a, w, b, the duration, a schedule row of the entry (named by the
    overflow error) and, computed once from the divergence rate s = a.w,
    the exponent arg = s * duration, the displacement factor
    scale = expm1(arg) / s (the duration when s = 0) and the premultiplied
    displacement shift = scale * w.  It keeps no reference to the schedule
    itself, so caching it there makes no cycle.
    """

    rows: np.ndarray
    a: np.ndarray
    w: np.ndarray
    b: np.ndarray
    duration: np.ndarray
    arg: np.ndarray
    scale: np.ndarray
    shift: np.ndarray
    steps: tuple

    @classmethod
    def of_entries(cls, rows, a, w, b, duration, steps) -> "CompiledSchedule":
        """The compiled form whose loop entry i drives (w[i], a[i], b[i])
        for duration[i] and comes from schedule row rows[i]."""
        s = _rates(a, w)
        arg = s * duration
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # entries past the overflow guard never reach their scale
            scale = np.where(s != 0.0,
                             np.expm1(np.minimum(arg, _EXP_ARG_MAX)) / s,
                             duration)
            shift = scale[:, None] * w
        return cls(rows, a, w, b, duration, arg, scale, shift, steps)

    @classmethod
    def build(cls, schedule: "ControlSchedule") -> "CompiledSchedule":
        """Compile ``schedule``: fuse its long axis-aligned runs and merge
        the repeated segments left on the loop (``_merge_repeats``)."""
        s = _rates(schedule.a, schedule.w)
        steps = _fuse_runs(schedule, s * schedule.duration)
        loops = [step for step in steps if isinstance(step, np.ndarray)]
        rows, duration, entries = _merge_repeats(schedule, s, loops)
        entries = iter(entries)
        steps = tuple(next(entries) if isinstance(step, np.ndarray) else step
                      for step in steps)
        return cls.of_entries(rows, schedule.a[rows], schedule.w[rows],
                              schedule.b[rows], duration, steps)

    def flow(self, X: np.ndarray, logdet: np.ndarray) -> None:
        """Apply the steps in order to X and logdet, in place.

        Loop entries use the closed form of the module docstring.  An
        active point on an entry whose exponent exceeds the overflow guard
        raises FlowOverflowError.
        """
        a, w = self.a, self.w
        # X.T has contiguous rows when X is in Fortran order (see _start)
        XT, shift = X.T, self.shift[:, :, None]
        rows, b, arg = self.rows.tolist(), self.b.tolist(), self.arg.tolist()
        scale = self.scale.tolist()
        finite = np.isfinite(self.shift).all(axis=1).tolist()
        for step in self.steps:
            if not isinstance(step, np.ndarray):
                step.apply(X, logdet)
                continue
            for i in step.tolist():
                z = X.dot(a[i])
                z += b[i]
                if arg[i] > _EXP_ARG_MAX:
                    if (z > 0.0).any():
                        raise FlowOverflowError(
                            f"segment {rows[i]}: exp argument s*duration = "
                            f"{arg[i]:.3g} too large")
                    continue
                if finite[i]:
                    np.maximum(z, 0.0, out=z)    # z > 0 still marks the active
                    XT += shift[i] * z
                else:
                    # np.where, not relu(z) * shift: 0 * inf would put NaN
                    # on inactive rows
                    with np.errstate(invalid="ignore"):
                        moved = np.where(z > 0.0, z * scale[i], 0.0)
                    X += moved[:, None] * w[i]
                if arg[i] != 0.0:
                    np.add(logdet, arg[i], out=logdet, where=z > 0.0)


def _live(schedule: "ControlSchedule") -> np.ndarray:
    """Indices of the segments that can move a point."""
    return np.flatnonzero((schedule.duration > 0.0)
                          & schedule.w.any(axis=1))


def _fuse_runs(schedule: "ControlSchedule", arg: np.ndarray) -> tuple:
    """Split the live segments into maximal axis-aligned runs and fuse the
    long ones; everything else stays on the per-segment loop, in order."""
    ids = _live(schedule)
    if len(ids) == 0:
        return ()
    a, w, b = schedule.a, schedule.w, schedule.b
    d = a.shape[1]
    a_axes, w_axes = a[ids] != 0.0, w[ids] != 0.0
    aligned = ((a_axes.sum(axis=1) == 1) & (w_axes.sum(axis=1) == 1)
               & (np.abs(arg[ids]) <= _EXP_ARG_MAX))
    if np.count_nonzero(aligned) < MIN_FUSED_RUN:    # no run can fuse
        return (ids,)
    key = np.where(aligned, a_axes.argmax(axis=1) * d + w_axes.argmax(axis=1),
                   -1)
    cuts = np.flatnonzero(np.diff(key)) + 1
    starts = np.concatenate([[0], cuts])
    stops = np.concatenate([cuts, [len(ids)]])
    long = np.flatnonzero((key[starts] >= 0)
                          & (stops - starts >= MIN_FUSED_RUN))
    steps, done = [], 0
    for r in long.tolist():
        lo, hi = int(starts[r]), int(stops[r])
        read, write = divmod(int(key[lo]), d)
        run_ids = ids[lo:hi]
        alpha = a[run_ids, read]
        run = (ShearRun.fuse(read, write, alpha, b[run_ids],
                             schedule.duration[run_ids] * w[run_ids, write])
               if read != write
               else ProfileRun.fuse(read, alpha, b[run_ids], arg[run_ids]))
        # a run whose map or inverse over- or underflows stays on the loop
        if not (run.well_formed() and run.inverse().well_formed()):
            continue
        if done < lo:
            steps.append(ids[done:lo])
        steps.append(run)
        done = hi
    if done < len(ids):
        steps.append(ids[done:])
    return tuple(steps)


def _merge_repeats(schedule: "ControlSchedule", s: np.ndarray,
                   loops: list) -> tuple:
    """The loop entries of ``loops``, the index arrays of loop segments in
    step order: each entry's first segment, its summed duration, and for
    each index array the indices of its entries.

    An entry is a maximal group of consecutive segments of one index array
    with equal (a, w, b).  A group whose merged exponent |s| * (summed
    duration) passes the overflow guard stays segment by segment, so that
    no point overflows that did not before.
    """
    if not loops:
        return np.zeros(0, dtype=int), np.zeros(0), []
    ids = np.concatenate(loops)
    fields = np.concatenate([schedule.a[ids], schedule.w[ids],
                             schedule.b[ids, None]], axis=1)
    ends = np.cumsum([len(step) for step in loops])
    first = np.ones(len(ids), dtype=bool)
    first[1:] = (fields[1:] != fields[:-1]).any(axis=1)
    first[ends[:-1]] = True
    starts = np.flatnonzero(first)
    duration = np.add.reduceat(schedule.duration[ids], starts)
    too_long = np.abs(s[ids[starts]] * duration) > _EXP_ARG_MAX
    if too_long.any():
        first |= np.repeat(too_long, np.diff(starts, append=len(ids)))
        starts = np.flatnonzero(first)
        duration = np.add.reduceat(schedule.duration[ids], starts)
    bounds = np.searchsorted(starts, np.concatenate([[0], ends])).tolist()
    return ids[starts], duration, list(map(np.arange, bounds, bounds[1:]))


def compile_schedule(schedule: "ControlSchedule") -> CompiledSchedule:
    """The schedule's compiled form, built once and cached on the schedule.

    Maximal runs of at least MIN_FUSED_RUN axis-aligned segments (a = a_k
    e_k, w = w_l e_l, |s tau| within the overflow guard) become one exact
    piecewise-linear map each; other segments keep the per-segment kernel,
    where consecutive equal segments merge into one entry.  Segments with
    zero duration or zero w are dropped: they move nothing.
    """
    if schedule._compiled is None:
        schedule._compiled = CompiledSchedule.build(schedule)
    return schedule._compiled


def _start(X, schedule: "ControlSchedule"):
    """Checked copy of the points, in Fortran order (each coordinate
    contiguous, for the flow kernels), and a zero log-det."""
    X = np.array(X, dtype=float, ndmin=2, order="F")
    if not np.all(np.isfinite(X)):
        raise ValueError("points contain non-finite entries")
    if schedule.d is not None and X.shape[1] != schedule.d:
        raise ValueError(f"segment 0: dimension {schedule.d} != point "
                         f"dimension {X.shape[1]}")
    return X, np.zeros(X.shape[0])


def flow_points(X: np.ndarray, schedule: "ControlSchedule"):
    """Flow an (N, d) array through a schedule; returns (X_out, logdet_out).

    Runs through the schedule's compiled form.  The input is copied once
    and the copy is updated in place, in blocks of ``_FLOW_BLOCK_ROWS``
    rows (the rows flow independently); X_out is in C order.
    """
    X, logdet = _start(X, schedule)
    compiled = compile_schedule(schedule)
    for start in range(0, len(X), _FLOW_BLOCK_ROWS):
        block = slice(start, start + _FLOW_BLOCK_ROWS)
        compiled.flow(X[block], logdet[block])
    return np.ascontiguousarray(X), logdet


def flow_segments(X: np.ndarray, schedule: "ControlSchedule"):
    """The per-segment reference kernel: like flow_points, with no run
    fused and no segment merged."""
    X, logdet = _start(X, schedule)
    ids = _live(schedule)
    CompiledSchedule.of_entries(ids, schedule.a[ids], schedule.w[ids],
                                schedule.b[ids], schedule.duration[ids],
                                (np.arange(len(ids)),)).flow(X, logdet)
    return np.ascontiguousarray(X), logdet


def invert_schedule(schedule: ControlSchedule) -> ControlSchedule:
    """Time reversal: segments reversed, each outer weight negated.

    The reversed field -w * relu(a.x + b) is again a neuron field, and the
    composition with the original flow is the identity in exact arithmetic.
    The result carries the inverse of the schedule's compiled form: its
    steps reversed, each fused run inverted exactly (shear values negated;
    profile knots and values swapped, log-dets negated) and the loop
    entries reversed with their merged durations, so a round trip does not
    pass through a recompilation of the reversed segments.
    """
    inverse = ControlSchedule.from_arrays(schedule.a[::-1], -schedule.w[::-1],
                                          schedule.b[::-1],
                                          schedule.duration[::-1])
    compiled = compile_schedule(schedule)
    last, n = len(schedule) - 1, len(compiled.rows) - 1
    steps = tuple(n - step[::-1] if isinstance(step, np.ndarray)
                  else step.inverse() for step in reversed(compiled.steps))
    inverse._compiled = CompiledSchedule.of_entries(
        last - compiled.rows[::-1], compiled.a[::-1], -compiled.w[::-1],
        compiled.b[::-1], compiled.duration[::-1], steps)
    return inverse


# --------------------------------------------------------------------------
# independent RK4 oracle (tests and diagnostics only)


def oracle_points(X: np.ndarray, schedule: ControlSchedule, step: float):
    """RK4 integration of the ODE and of d(logdet)/dt = div v, batched."""
    if step <= 0:
        raise ValueError("step must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float)).copy()
    logdet = np.zeros(X.shape[0])
    for w, a, b, duration in zip(schedule.w, schedule.a, schedule.b,
                                 schedule.duration):
        if duration == 0.0:
            continue
        X, logdet = rk4(lambda Y: neuron_field(Y, w, a, b), X, logdet,
                        duration, step)
    return X, logdet
