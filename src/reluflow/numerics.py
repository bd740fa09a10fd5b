"""Numerical primitives shared by both routes.

Monotone inversion by bracketed false position, the RK4 reference
integrator with its divergence, the single-neuron field, uniform cells,
tensor grids on [0, 1]^d with trapezoid quadrature, and axis-aligned boxes
(``RectDomain``).  Each is written once here so that every caller performs
the same floating-point operations in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# False-position steps an entry may spend beyond bisection's count before
# every remaining step must halve its bracket
_SPARE_STEPS = 4


def solve_increasing(f, target, lo, hi, tol) -> np.ndarray:
    """Solve f(x) = target per entry for f increasing on [lo, hi].

    ``lo``, ``hi`` and ``tol`` (> 0) are scalars or arrays shaped like
    ``target``; ``f`` maps an array of that shape to one, and is called at
    points of [lo, hi] only.  Each entry keeps a bracket [a, b] with
    f(a) < target <= f(b) until it is at most ``tol`` wide or its ends are
    adjacent floats, and returns its midpoint: where f equals the target on
    a plateau, the root is the plateau's left end.  A target at or below
    f(lo) returns lo, one above f(hi) returns hi, exactly.

    Steps are false position with Illinois weighting (Dowell and Jarratt
    1971): an end that survives two steps in a row has its residual
    halved.  A step closer than tol / 2 to an end is moved tol / 2 inside,
    so that an end on the root gets crossed.  An entry bisects once the
    halvings its bracket still needs would overrun its budget of
    ceil(log2((hi - lo) / tol)) + ``_SPARE_STEPS`` steps; f is called at
    most that often plus twice (at lo and hi), for the widest entry.
    """
    target = np.asarray(target, dtype=float)
    a = np.array(np.broadcast_to(lo, target.shape), dtype=float)
    b = np.array(np.broadcast_to(hi, target.shape), dtype=float)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), target.shape)
    if not np.all(tol > 0):
        raise ValueError("tol must be > 0")
    ra, rb = f(a) - target, f(b) - target      # residuals, ra < 0 <= rb
    left, right = ra >= 0, rb < 0
    steps = np.ceil(np.log2(np.maximum((b - a) / tol, 1.0))) + _SPARE_STEPS
    # a bracket wider than `reach` needs every step left to halve it
    reach = tol * np.exp2(steps - 1)
    moved = np.zeros(target.shape, dtype=np.int8)   # last moved end: -1 a, 1 b
    for _ in range(int(np.max(steps, initial=0))):
        width, mid = b - a, 0.5 * (a + b)
        active = ~left & ~right & (width > tol) & (mid != a) & (mid != b)
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            # 0 / 0 only on entries already done; a NaN step bisects
            x = np.clip(a - ra * (width / (rb - ra)), a + 0.5 * tol,
                        b - 0.5 * tol)
        x = np.where((width > reach) | ~((x > a) & (x < b)), mid, x)
        rx = f(x) - target
        below = active & (rx < 0)
        above = active & ~below
        ra = np.where(below, rx, np.where(above & (moved == 1), 0.5 * ra, ra))
        rb = np.where(above, rx, np.where(below & (moved == -1), 0.5 * rb, rb))
        moved = np.where(below, -1, np.where(above, 1, moved)).astype(np.int8)
        a, b = np.where(below, x, a), np.where(above, x, b)
        reach = 0.5 * reach
    return np.where(left, a, np.where(right, b, 0.5 * (a + b)))


def neuron_field(X: np.ndarray, w, a, b):
    """Field w relu(a.x + b) at the rows of X and its divergence.

    The divergence is a.w where a.x + b > 0 and 0 elsewhere.  One neuron
    has w, a of shape (d,) and a scalar b; with w, a of shape (N, d) and b
    of shape (N,), row i of X sees neuron i.
    """
    if np.ndim(a) == 1:
        z, s = X @ a, a @ w
    else:
        z, s = np.einsum("ij,ij->i", X, a), np.einsum("ij,ij->i", a, w)
    z = z + b
    V = np.maximum(z, 0.0)[:, None] * w
    div = np.where(z > 0.0, s, 0.0)
    return V, div


def rk4(field, X: np.ndarray, q: np.ndarray, duration, step: float):
    """Classical RK4 for dx/dt = v(x) and dq/dt = div v(x) over ``duration``.

    ``field(X)`` returns (v, div v) at the rows of X.  ``duration`` is a
    scalar or one entry per row of X.  Each row's interval is cut into
    ceil(duration / step) equal steps, at least one; a row whose steps are
    spent stands still while the others go on.  The step sizes are formed
    once, and again only after some row's steps run out.  Returns (X, q).
    """
    if not step > 0:
        raise ValueError(f"step must be positive; got {step}")
    n = np.maximum(np.ceil(np.divide(duration, step)).astype(int), 1)
    start = 0
    for stop in sorted(set(np.ravel(n).tolist())):
        h = np.where(start < n, duration / n, 0.0)
        hx = h[..., None]
        half, sixth, q_sixth = 0.5 * hx, hx / 6.0, h / 6.0
        for _ in range(start, stop):
            k1, q1 = field(X)
            k2, q2 = field(X + half * k1)
            k3, q3 = field(X + half * k2)
            k4, q4 = field(X + hx * k3)
            X = X + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            q = q + q_sixth * (q1 + 2 * q2 + 2 * q3 + q4)
        start = stop
    return X, q


def uniform_cell(x: np.ndarray, origin: float, scale: float,
                 top: int) -> np.ndarray:
    """floor((x - origin) * scale) clamped to [0, top], for x of at least
    one dimension: monotone in x, and NaN goes to ``top``."""
    v = x - origin
    v *= scale
    np.fmin(v, top, out=v)
    np.fmax(v, 0.0, out=v)
    return v.astype(np.intp)


def grid_points(axes) -> np.ndarray:
    """The tensor grid of the 1-d ``axes`` as an (N, d) array, last axis
    varying fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def trapezoid_all(v: np.ndarray, axes=None):
    """Trapezoid integral of grid values over [0, 1] along ``axes``.

    The default integrates every axis.  Axes are integrated from the last
    one down, each on its inclusive uniform grid.
    """
    v = np.asarray(v)
    for axis in sorted(range(v.ndim) if axes is None else axes, reverse=True):
        v = np.trapezoid(v, np.linspace(0, 1, v.shape[axis]), axis=axis)
    return v


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned box { lower <= x <= upper }."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower/upper must be 1-d vectors of equal length")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower must be strictly below upper componentwise")

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    @property
    def sides(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains(self, X: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.all((X >= self.lower - tol) & (X <= self.upper + tol), axis=1)

    def sample(self, rng, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.d))
