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
log-det.  Other segments, short runs and segments past the exp overflow
guard stay on the per-segment kernel, in order.  The two kernels agree up
to rounding; at a kink, where the log-det is undefined, they may take
opposite one-sided values.

All flow operations are vectorized over arrays of points with shape (N, d);
a single point x is the batch x[None].
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
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
    other.  The arrays a, w, b and duration are copied, checked once and
    made read-only, so the compiled form cached on the schedule cannot go
    stale.
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

    def _store(self, a, w, b, duration) -> None:
        a, w, b, duration = (np.array(v, dtype=float)
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
        return cls.from_arrays(*(np.concatenate([getattr(s, name)
                                                 for s in parts])
                                 for name in ("a", "w", "b", "duration")))

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
# on 64-point batches a fused shear run is faster than its segments from
# about 12 segments on, while a profile run needs about 256 points to gain
# (timings in CHANGES.md).  Shear runs are the ones sampled schedules have.
MIN_FUSED_RUN = 16


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function of one variable.

    ``values`` at strictly increasing ``knots``, linear between them and
    affine beyond the end knots with slopes ``left`` and ``right``.
    """

    knots: np.ndarray
    values: np.ndarray
    left: float
    right: float

    def __post_init__(self):
        # per piece: anchor knot, anchor value, slope (piece i lies left of
        # knots[i]; the last piece is right of every knot)
        with np.errstate(all="ignore"):    # see well_formed
            chords = np.diff(self.values) / np.diff(self.knots)
        object.__setattr__(self, "_x0", np.concatenate([self.knots[:1],
                                                        self.knots]))
        object.__setattr__(self, "_y0", np.concatenate([self.values[:1],
                                                        self.values]))
        object.__setattr__(self, "_slope", np.concatenate(
            [[self.left], chords, [self.right]]))

    def piece(self, x: np.ndarray) -> np.ndarray:
        """Index of the piece holding each x (a knot opens its right piece)."""
        return np.searchsorted(self.knots, x, side="right")

    def __call__(self, x: np.ndarray, piece=None) -> np.ndarray:
        i = self.piece(x) if piece is None else piece
        return self._y0[i] + self._slope[i] * (x - self._x0[i])

    def well_formed(self, increasing: bool) -> bool:
        parts = (self.knots, self.values, self._slope)
        ok = all(np.all(np.isfinite(p)) for p in parts)
        ok = ok and bool(np.all(np.diff(self.knots) > 0))
        if increasing:
            ok = ok and bool(np.all(np.diff(self.values) > 0)
                             and self.left > 0 and self.right > 0)
        return ok


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
        (gain = duration * w_write; s = 0)."""
        knots = np.unique(-b / alpha)
        values = np.empty_like(knots)
        rows = max(1, (1 << 20) // len(b))
        for lo in range(0, len(knots), rows):
            t = knots[lo:lo + rows, None]
            values[lo:lo + rows] = np.maximum(t * alpha + b, 0.0) @ gain
        slopes = alpha * gain
        return cls(read, write, PiecewiseLinear(
            knots, values, float(np.sum(slopes[alpha < 0])),
            float(np.sum(slopes[alpha > 0]))))

    def well_formed(self) -> bool:
        return self.f.well_formed(increasing=False)

    def apply(self, X: np.ndarray, logdet: np.ndarray) -> None:
        X[:, self.write] += self.f(X[:, self.read])

    def inverse(self) -> "ShearRun":
        f = self.f
        return ShearRun(self.read, self.write, PiecewiseLinear(
            f.knots, -f.values, -f.left, -f.right))


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

        Each new kink c is pulled back through the map so far to a knot
        u with g(u) = c.  The segment then maps each stored value v on its
        active side to c + (v - c) e^{s tau}, and its exponent is added to
        the log-det of every piece on that side.
        """
        n = len(b)
        uv, L = np.empty((2, n)), np.zeros(n + 1)
        u, v = uv
        m, left, right = 0, 1.0, 1.0
        # exp(arg) is within range (|arg| <= the overflow guard), but the end
        # slopes may over- or underflow; well_formed rejects such a run
        with np.errstate(all="ignore"):
            for alpha, b, arg in zip(alpha.tolist(), b.tolist(),
                                     arg.tolist()):
                c = -b / alpha
                # pull c back into piece j of the map so far; q is its knot
                j = int(np.searchsorted(v[:m], c, side="right")) if m else 0
                if m == 0:
                    x = c
                elif j == 0:
                    x = u[0] + (c - v[0]) / left
                elif j == m:
                    x = u[m - 1] + (c - v[m - 1]) / right
                else:
                    x = u[j - 1] + (c - v[j - 1]) * (
                        (u[j] - u[j - 1]) / (v[j] - v[j - 1]))
                if j > 0 and x <= u[j - 1]:
                    q = j - 1
                elif j < m and x >= u[j]:
                    q = j
                else:
                    q = j
                    uv[:, q + 1:m + 1] = uv[:, q:m]
                    L[q + 1:m + 2] = L[q:m + 1]
                    u[q], v[q] = x, c
                    m += 1
                e = math.exp(arg)
                if alpha > 0:
                    active = v[q + 1:m]
                    L[q + 1:m + 1] += arg
                    right *= e
                else:
                    active = v[:q]
                    L[:q + 1] += arg
                    left *= e
                if active.size:
                    active -= c
                    active *= e
                    active += c
        return cls(axis, PiecewiseLinear(u[:m].copy(), v[:m].copy(),
                                         left, right), L[:m + 1].copy())

    def well_formed(self) -> bool:
        return (self.g.well_formed(increasing=True)
                and bool(np.all(np.isfinite(self.logdets))))

    def apply(self, X: np.ndarray, logdet: np.ndarray) -> None:
        x = X[:, self.axis]
        i = self.g.piece(x)
        logdet += self.logdets[i]
        X[:, self.axis] = self.g(x, i)

    def inverse(self) -> "ProfileRun":
        g = self.g
        return ProfileRun(self.axis, PiecewiseLinear(
            g.values, g.knots, 1.0 / g.left, 1.0 / g.right), -self.logdets)


@dataclass(frozen=True)
class CompiledSchedule:
    """A schedule as steps: fused runs and index arrays of loop segments.

    A step is a ShearRun, a ProfileRun or an index array of segments that
    ``flow`` applies one at a time.  For those it keeps the schedule's a, w
    and b and, computed once from each divergence rate s = a.w, the exponent
    arg = s * duration and the displacement factor scale = expm1(arg) / s
    (the duration when s = 0).  It keeps no reference to the schedule
    itself, so caching it there makes no cycle.
    """

    a: np.ndarray
    w: np.ndarray
    b: np.ndarray
    arg: np.ndarray
    scale: np.ndarray
    steps: tuple

    @classmethod
    def build(cls, schedule: "ControlSchedule", steps=None) -> "CompiledSchedule":
        """Compile ``schedule``: its runs are fused unless ``steps`` are given."""
        a, w, duration = schedule.a, schedule.w, schedule.duration
        s = (a[:, None, :] @ w[:, :, None]).reshape(-1)
        arg = s * duration
        with np.errstate(divide="ignore", invalid="ignore"):
            # segments past the overflow guard never reach their scale
            scale = np.where(s != 0.0,
                             np.expm1(np.minimum(arg, _EXP_ARG_MAX)) / s,
                             duration)
        if steps is None:
            steps = _fuse_runs(schedule, arg)
        return cls(a, w, schedule.b, arg, scale, steps)

    def flow(self, X: np.ndarray, logdet: np.ndarray) -> None:
        """Apply the steps in order to X and logdet, in place.

        Loop segments use the closed form of the module docstring.  An
        active point on a segment whose exponent exceeds the overflow guard
        raises FlowOverflowError.
        """
        a, w = self.a, self.w
        b, arg, scale = self.b.tolist(), self.arg.tolist(), self.scale.tolist()
        for step in self.steps:
            if not isinstance(step, np.ndarray):
                step.apply(X, logdet)
                continue
            for i in step.tolist():
                z = X.dot(a[i]) + b[i]
                active = z > 0.0
                if arg[i] > _EXP_ARG_MAX:
                    if active.any():
                        raise FlowOverflowError(
                            f"segment {i}: exp argument s*duration = "
                            f"{arg[i]:.3g} too large")
                    continue
                # np.where, not relu(z) * scale: 0 * inf would put NaN on
                # inactive rows
                X += np.where(active, z * scale[i], 0.0)[:, None] * w[i]
                if arg[i] != 0.0:
                    logdet += arg[i] * active


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


def compile_schedule(schedule: "ControlSchedule") -> CompiledSchedule:
    """The schedule's compiled form, built once and cached on the schedule.

    Maximal runs of at least MIN_FUSED_RUN axis-aligned segments (a = a_k
    e_k, w = w_l e_l, |s tau| within the overflow guard) become one exact
    piecewise-linear map each; other segments keep the per-segment kernel.
    Segments with zero duration or zero w are dropped: they move nothing.
    """
    if schedule._compiled is None:
        schedule._compiled = CompiledSchedule.build(schedule)
    return schedule._compiled


def _start(X, schedule: "ControlSchedule"):
    """Checked copy of the points and a zero log-det."""
    X = np.array(X, dtype=float, ndmin=2)
    if not np.all(np.isfinite(X)):
        raise ValueError("points contain non-finite entries")
    if schedule.d is not None and X.shape[1] != schedule.d:
        raise ValueError(f"segment 0: dimension {schedule.d} != point "
                         f"dimension {X.shape[1]}")
    return X, np.zeros(X.shape[0])


def flow_points(X: np.ndarray, schedule: "ControlSchedule"):
    """Flow an (N, d) array through a schedule; returns (X_out, logdet_out).

    Runs through the schedule's compiled form.  The input is copied once
    and the copy is updated in place.
    """
    X, logdet = _start(X, schedule)
    compile_schedule(schedule).flow(X, logdet)
    return X, logdet


def flow_segments(X: np.ndarray, schedule: "ControlSchedule"):
    """The per-segment reference kernel: like flow_points, no run fused."""
    X, logdet = _start(X, schedule)
    CompiledSchedule.build(schedule, (_live(schedule),)).flow(X, logdet)
    return X, logdet


def invert_schedule(schedule: ControlSchedule) -> ControlSchedule:
    """Time reversal: segments reversed, each outer weight negated.

    The reversed field -w * relu(a.x + b) is again a neuron field, and the
    composition with the original flow is the identity in exact arithmetic.
    The result carries the inverse of the schedule's compiled form: its
    steps reversed, each fused run inverted exactly (shear values negated;
    profile knots and values swapped, log-dets negated), so a round trip
    does not pass through a recompilation of the reversed segments.
    """
    inverse = ControlSchedule.from_arrays(schedule.a[::-1], -schedule.w[::-1],
                                          schedule.b[::-1],
                                          schedule.duration[::-1])
    last = len(schedule) - 1
    steps = tuple(last - step[::-1] if isinstance(step, np.ndarray)
                  else step.inverse()
                  for step in reversed(compile_schedule(schedule).steps))
    inverse._compiled = CompiledSchedule.build(inverse, steps)
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
