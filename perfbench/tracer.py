"""Spans around the package's public layer functions, for the traced run.

``Tracer.install`` replaces each layer function by a timing wrapper at every
name it is bound under in the loaded ``reluflow`` modules (``flow_points``,
for one, is imported into ``pipeline``, ``metrics`` and ``maurey``) and in
the workload's own module, patches ``KRMap.__call__`` on its class and wraps
the ``fn`` and ``inverse`` of the workload's targets; ``uninstall`` puts
everything back.  Each call records a
span (name, start, end, parent, round, work) in memory.  A span's self time
is its duration minus the durations of its child spans, which the single
thread runs one after another inside it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from reluflow import compressible, gadgets, kr, maurey, metrics, pipeline
from reluflow import schedule
from reluflow.targets import TargetMap


def _rows(a) -> int:
    return np.atleast_2d(np.asarray(a)).shape[0]


def _rk4_steps(args, kwargs) -> int:
    m = args[0]
    step = kwargs.get("step", args[2] if len(args) > 2 else 1e-3)
    return int(sum(max(int(np.ceil(span / step)), 1)
                   for span in np.diff(m.time_grid)))


# (layer name, owner, attribute, work quantity, work(args, kwargs, result))
LAYERS = (
    ("schedule.flow_points", schedule, "flow_points", "point_segments",
     lambda a, k, r: _rows(a[0]) * len(a[1])),
    ("schedule.invert_schedule", schedule, "invert_schedule", None, None),
    ("pipeline.realize_target", pipeline, "realize_target", None, None),
    ("pipeline.band_tower", pipeline, "band_tower", None, None),
    ("pipeline.map_errors", pipeline, "map_errors", None, None),
    ("compressible.profile_schedule", compressible, "profile_schedule",
     "segments", lambda a, k, r: len(r)),
    ("gadgets.shear_for_region", gadgets, "shear_for_region", None, None),
    ("metrics.lp_map_error", metrics, "lp_map_error", None, None),
    ("metrics.pushforward_values", metrics, "pushforward_values", None, None),
    ("kr.KRMap.__call__", kr.KRMap, "__call__", "points",
     lambda a, k, r: _rows(a[1])),
    ("maurey.sample_schedule", maurey, "sample_schedule", "slices",
     lambda a, k, r: len(r.schedule)),
    ("maurey.reference_flow", maurey, "reference_flow", "rk4_steps",
     lambda a, k, r: _rk4_steps(a, k)),
    ("maurey.run_errors", maurey, "run_errors", None, None),
)
TARGET_LAYERS = (("fn", "targets.TargetMap.fn"),
                 ("inverse", "targets.TargetMap.inverse"))
# Derived rates in ns per unit of work: (name, layer, work quantity)
RATES = (("schedule.flow_points.ns_per_point_segment", "schedule.flow_points",
          "point_segments"),
         ("kr.KRMap.__call__.ns_per_point", "kr.KRMap.__call__", "points"))


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, round, work]
        self.round = 0
        self._stack = []
        self._restore = []

    def wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.round, 0])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if work is not None:
                spans[idx][5] = work(args, kwargs, result)
            return result
        return traced

    def install(self, workload) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "reluflow" or n.startswith("reluflow.")]
        modules.append(sys.modules[type(workload).__module__])
        for name, owner, attr, _, work in LAYERS:
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, work)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, bound, wrapper)
        for attr, value in list(vars(workload).items()):
            if isinstance(value, TargetMap):
                traced = dataclasses.replace(value, **{
                    field: self.wrap(name, getattr(value, field),
                                     lambda a, k, r: _rows(a[0]))
                    for field, name in TARGET_LAYERS
                    if getattr(value, field) is not None})
                self._patch(workload, attr, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def round_layers(self, rnd: int) -> tuple:
        """(per-layer {calls, self_s, work}, time covered by root spans)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == rnd]
        child = defaultdict(float)
        for _, (_, start, end, parent, _, _) in spans:
            if parent >= 0:
                child[parent] += end - start
        layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0})
        covered = 0.0
        for i, (name, start, end, parent, _, work) in spans:
            layer = layers[name]
            layer["calls"] += 1
            layer["self_s"] += end - start - child[i]
            layer["work"] += work
            if parent < 0:
                covered += end - start
        return layers, covered

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, rnd, work in self.spans:
                fh.write(json.dumps({"round": rnd, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "work": work}) + "\n")

