import numpy as np
import pytest

from reluflow.schedule import ControlSchedule


def schedule_of(*rows):
    """The schedule with one segment per row (w, a, b, duration)."""
    if not rows:
        return ControlSchedule()
    w, a, b, duration = zip(*rows)
    return ControlSchedule.from_arrays(a, w, b, duration)


def random_schedule(rng, d, n_segments=5, scale=2.0, max_duration=1.0):
    """Random schedule with entries in [-scale, scale], durations <= max_duration."""
    rows = []
    for _ in range(n_segments):
        w = rng.uniform(-scale, scale, size=d)
        a = rng.uniform(-scale, scale, size=d)
        b = rng.uniform(-scale, scale)
        rows.append((w, a, b, rng.uniform(0, max_duration)))
    return schedule_of(*rows)


def bisection(f, target, lo, hi, iters=60):
    """Solve f(x) = target per entry for f increasing on [lo, hi] by
    ``iters`` halvings, keeping f(a) < target <= f(b); the midpoint of the
    last bracket.  The reference that the package's solvers are checked
    against, kept apart from them."""
    a = np.full(np.shape(target), lo, dtype=float)
    b = np.full(np.shape(target), hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        below = f(mid) < target
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return 0.5 * (a + b)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
