"""Piecewise-constant single-ReLU-neuron controls for a neural ODE.

The velocity field is v(x) = w * relu(a.x + b) for one neuron theta = (w, a, b).
Because the activation sign is invariant along each constant-control segment,
the flow map and its Jacobian log-determinant have closed forms, which this
package exploits to build schedules that realize (approximately) a target
diffeomorphism and its pushforward measure:

* geometric route: a row pass and a column pass, each staggering lattice
  bands with exact shear flows (incompressible) around one exact schedule
  for a one-coordinate monotone profile (compressible) that applies each
  band's piecewise-linear map;
* sampling route: drawing one neuron per time slice from a cost-weighted
  atom mixture, with O(N^{-1/2}) empirical error decay in the slice count.
"""

from reluflow.schedule import (
    ControlSchedule,
    FlowState,
    Neuron,
    Segment,
    compile_schedule,
    flow_points,
    flow_schedule,
    flow_segment,
    flow_segments,
    invert_schedule,
    oracle_flow,
)

__all__ = [
    "Neuron",
    "Segment",
    "ControlSchedule",
    "FlowState",
    "flow_segment",
    "flow_schedule",
    "flow_points",
    "flow_segments",
    "compile_schedule",
    "invert_schedule",
    "oracle_flow",
]
