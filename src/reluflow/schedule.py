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

All flow operations are vectorized over arrays of points with shape (N, d).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from reluflow.numerics import neuron_field, rk4

# exp overflow guard: segments never need s*tau beyond this at working scale
_EXP_ARG_MAX = 700.0


class FlowOverflowError(OverflowError):
    """Raised when a segment would require evaluating exp beyond range."""


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True)
class Neuron:
    """One ReLU neuron theta = (w, a, b): field v(x) = w * relu(a.x + b)."""

    w: np.ndarray
    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "w", _as_vector(self.w, "w"))
        object.__setattr__(self, "a", _as_vector(self.a, "a"))
        object.__setattr__(self, "b", float(self.b))
        if self.w.shape != self.a.shape:
            raise ValueError("w and a must have the same dimension")
        if not np.isfinite(self.b):
            raise ValueError("b must be finite")

    @property
    def d(self) -> int:
        return self.w.shape[0]

    @property
    def s(self) -> float:
        """Divergence rate a.w on the active side."""
        return float(self.a @ self.w)


@dataclass(frozen=True)
class Segment:
    """A neuron held constant for a nonnegative duration."""

    neuron: Neuron
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "duration", float(self.duration))
        if not np.isfinite(self.duration) or self.duration < 0:
            raise ValueError("duration must be finite and >= 0")


@dataclass(frozen=True)
class ControlSchedule:
    """An ordered list of segments; the control is constant on each."""

    segments: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        dims = {seg.neuron.d for seg in self.segments}
        if len(dims) > 1:
            raise ValueError(f"segments have mixed dimensions {sorted(dims)}")

    @property
    def d(self) -> int | None:
        return self.segments[0].neuron.d if self.segments else None

    @property
    def total_duration(self) -> float:
        return float(sum(seg.duration for seg in self.segments))

    @property
    def switch_count(self) -> int:
        return max(len(self.segments) - 1, 0)

    def __len__(self) -> int:
        return len(self.segments)

    def __add__(self, other: "ControlSchedule") -> "ControlSchedule":
        return ControlSchedule(self.segments + tuple(other.segments))

    # --- JSON persistence -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "d": self.d if self.d is not None else 0,
            "segments": [
                {
                    "w": seg.neuron.w.tolist(),
                    "a": seg.neuron.a.tolist(),
                    "b": seg.neuron.b,
                    "duration": seg.duration,
                }
                for seg in self.segments
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ControlSchedule":
        segs = [
            Segment(Neuron(s["w"], s["a"], s["b"]), s["duration"])
            for s in data["segments"]
        ]
        schedule = cls(tuple(segs))
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


@dataclass(frozen=True)
class FlowState:
    """A point plus the accumulated log det of the flow's spatial gradient."""

    x: np.ndarray
    logdet: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vector(self.x, "x"))
        object.__setattr__(self, "logdet", float(self.logdet))
        if not np.isfinite(self.logdet):
            raise ValueError("logdet must be finite")


# --------------------------------------------------------------------------
# vectorized core


def flow_points(X: np.ndarray, schedule: ControlSchedule):
    """Flow an (N, d) array through a schedule; returns (X_out, logdet_out).

    The input is copied once and the copy is updated in place per segment.
    """
    X = np.array(X, dtype=float, ndmin=2)
    if not np.all(np.isfinite(X)):
        raise ValueError("points contain non-finite entries")
    logdet = np.zeros(X.shape[0])
    for k, seg in enumerate(schedule.segments):
        if X.shape[1] != seg.neuron.d:
            raise ValueError(
                f"segment {k}: dimension {seg.neuron.d} != point dimension {X.shape[1]}")
        z = X @ seg.neuron.a + seg.neuron.b
        active = z > 0.0
        if seg.duration == 0.0 or not active.any():
            continue
        s = seg.neuron.s
        arg = s * seg.duration
        if arg > _EXP_ARG_MAX:
            raise FlowOverflowError(
                f"segment {k}: exp argument s*duration = {arg:.3g} too large")
        scale = np.expm1(arg) / s if s != 0.0 else seg.duration
        # np.where, not relu(z) * scale: 0 * inf would put NaN on inactive rows
        X += np.outer(np.where(active, z * scale, 0.0), seg.neuron.w)
        if s != 0.0:
            logdet[active] += arg
    return X, logdet


def flow_segment(state: FlowState, neuron: Neuron, duration: float) -> FlowState:
    """Exact flow of one segment applied to a single FlowState."""
    if state.x.shape[0] != neuron.d:
        raise ValueError("neuron dimension does not match state dimension")
    X, ld = flow_points(state.x, ControlSchedule((Segment(neuron, duration),)))
    return FlowState(X[0], state.logdet + float(ld[0]))


def flow_schedule(x, schedule: ControlSchedule) -> FlowState:
    """Left-to-right composition of segment flows starting from logdet = 0."""
    X, ld = flow_points(np.asarray(x, dtype=float)[None, :], schedule)
    return FlowState(X[0], float(ld[0]))


def invert_schedule(schedule: ControlSchedule) -> ControlSchedule:
    """Time reversal: segments reversed, each outer weight negated.

    The reversed field -w * relu(a.x + b) is again a neuron field, and the
    composition with the original flow is the identity in exact arithmetic.
    """
    segs = [Segment(Neuron(-seg.neuron.w, seg.neuron.a, seg.neuron.b), seg.duration)
            for seg in reversed(schedule.segments)]
    return ControlSchedule(tuple(segs))


# --------------------------------------------------------------------------
# independent RK4 oracle (tests and diagnostics only)


def oracle_points(X: np.ndarray, schedule: ControlSchedule, step: float):
    """RK4 integration of the ODE and of d(logdet)/dt = div v, batched."""
    if step <= 0:
        raise ValueError("step must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float)).copy()
    logdet = np.zeros(X.shape[0])
    for seg in schedule.segments:
        if seg.duration == 0.0:
            continue
        X, logdet = rk4(lambda Y: neuron_field(Y, seg.neuron), X, logdet,
                        seg.duration, step)
    return X, logdet


def oracle_flow(x, schedule: ControlSchedule, step: float) -> FlowState:
    """Single-point RK4 reference flow (independent of the closed form)."""
    X, ld = oracle_points(np.asarray(x, dtype=float)[None, :], schedule, step)
    return FlowState(X[0], float(ld[0]))
