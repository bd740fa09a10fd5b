#!/usr/bin/env python3
"""reluflow benchmark: run one workload for a while, check it, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md): realize-sine-radial, realize-kr,
maurey-rate.  The seed makes the workload's inputs.  The run repeats whole
rounds of the workload's operations while another round still fits in
``--seconds``; at least one round runs (two when traced).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run alternates untraced and
traced rounds and writes its spans to perfbench/out/.

The package is imported from ``src/`` next to this directory; BLAS runs on
one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
    "samples_per_s": "samples/s", "segments": "count",
    "total_duration": "1", "map_l2": "1", "density_error": "1",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the package, build the workload's inputs, "
                         "print 'ready' and exit (times set-up)")
    return ap.parse_args(argv)


def _prepare_environment() -> None:
    if not (SRC / "reluflow" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package at {SRC / 'reluflow'}")
    # The arrays are small (at most 16,384 x 2), and two BLAS threads made
    # no round faster on a 2-core machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _setup_seconds(workload: str, seed: int) -> float:
    """Median time for a fresh interpreter to import and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return statistics.median(times)


def _rounds(workload, seconds: float, tracer=None):
    """Run rounds while another fits; when traced, odd rounds are traced."""
    results, times, traced = [], [], []
    t_start = time.perf_counter()
    while True:
        on = tracer is not None and len(results) % 2 == 1
        if on:
            tracer.round = len(results)
            tracer.install(workload)
        t0 = time.perf_counter()
        try:
            results.append(workload.round())
        finally:
            times.append(time.perf_counter() - t0)
            if on:
                tracer.uninstall()
        traced.append(on)
        elapsed = time.perf_counter() - t_start
        minimum = 2 if tracer is not None else 1
        if (len(results) >= minimum
                and elapsed + statistics.median(times) > seconds):
            return results, times, traced


def _end_to_end(results, times, setup_s: float) -> dict:
    # Pooled over the run rather than medians of rounds: a busy host slows
    # some seconds and not others, so round times come in two modes, and
    # their mean varies less from run to run than a median that picks one.
    values = {"setup_s": setup_s, "wall_s": statistics.fmean(times),
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    push_s = sum(r.push_s for r in results)
    if push_s > 0:
        values["samples_per_s"] = sum(r.samples for r in results) / push_s
    quality = [r.quality for r in results if r.quality]
    if quality:
        values.update(quality[-1])
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def _per_layer(tracer, times, traced) -> dict:
    from tracer import LAYERS, RATES, TARGET_LAYERS

    quantities = {name: q for name, _, _, q, _ in LAYERS}
    quantities.update({name: "points" for _, name in TARGET_LAYERS})
    per_round = []
    for rnd, on in enumerate(traced):
        if on:
            layers, covered = tracer.round_layers(rnd)
            per_round.append((layers, covered, times[rnd]))

    def med(f):
        return statistics.median(f(layers, covered, wall)
                                 for layers, covered, wall in per_round)

    values = {}
    for name, quantity in quantities.items():
        values[f"{name}.calls"] = med(lambda l, c, w: l[name]["calls"])
        values[f"{name}.self_s"] = med(lambda l, c, w: l[name]["self_s"])
        if quantity:
            values[f"{name}.{quantity}"] = med(
                lambda l, c, w: l[name]["work"])
    for rate, layer, quantity in RATES:
        work = values[f"{layer}.{quantity}"]
        values[rate] = (1e9 * values[f"{layer}.self_s"] / work
                        if work else 0.0)
    untraced = [t for t, on in zip(times, traced) if not on]
    values["bench.round.wall_s"] = med(lambda l, c, w: w)
    values["bench.round.untraced_wall_s"] = statistics.median(untraced)
    values["bench.round.overhead_s"] = (values["bench.round.wall_s"]
                                        - values["bench.round.untraced_wall_s"])
    values["bench.round.layer_self_s"] = med(lambda l, c, w: c)
    values["bench.round.outside_s"] = med(lambda l, c, w: w - c)
    return {k: {"value": v, "unit": _layer_unit(k)}
            for k, v in values.items()}


def _layer_unit(name: str) -> str:
    quantity = name.rsplit(".", 1)[1]
    if quantity.endswith("_s"):
        return "s"
    if quantity.startswith("ns_per_"):
        return "ns"
    return "count"


def main(argv=None, factory=None) -> int:
    """Run the benchmark; ``factory(name, seed)`` may replace the workloads
    (the self-test uses it to run them at reduced size)."""
    args = _parse(argv)
    _prepare_environment()
    if args.setup_only:
        from workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    setup_s = _setup_seconds(args.workload, args.seed) if not args.trace \
        else None
    workload = (factory or (lambda n, s: WORKLOADS[n](s)))(args.workload,
                                                          args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    results, times, traced = _rounds(workload, args.seconds, tracer)
    if tracer is None:
        metrics = _end_to_end(results, times, setup_s)
    else:
        metrics = _per_layer(tracer, times, traced)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({
        "correct": all(r.wrong == 0 for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
