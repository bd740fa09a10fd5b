"""Piecewise-constant single-ReLU-neuron controls for a neural ODE.

The velocity field is v(x) = w * relu(a.x + b) for one neuron theta = (w, a, b).
Because the activation sign is invariant along each constant-control segment,
the flow map and its Jacobian log-determinant have closed forms, which this
package exploits to build schedules that realize (approximately) a target
diffeomorphism and its pushforward measure:

* geometric route: one pass per coordinate, each staggering lattice
  bands with exact shear flows (incompressible) around one exact schedule
  for a one-coordinate monotone profile (compressible) that applies each
  band's piecewise-linear map;
* sampling route: drawing one neuron per time slice from a cost-weighted
  atom mixture, with O(N^{-1/2}) empirical error decay in the slice count.

A ControlSchedule holds the control as four read-only arrays, one row
(w, a, b, duration) per constant piece.  ``flow_points`` flows an (N, d)
batch of points through it with the compiled kernel, ``flow_segments``
with the per-segment reference kernel and ``oracle_points`` with RK4.
"""

from reluflow.schedule import (
    ControlSchedule,
    compile_schedule,
    flow_points,
    flow_segments,
    invert_schedule,
    oracle_points,
)

__all__ = [
    "ControlSchedule",
    "flow_points",
    "flow_segments",
    "compile_schedule",
    "invert_schedule",
    "oracle_points",
]
