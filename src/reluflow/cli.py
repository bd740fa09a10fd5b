"""Command-line front end.

Verbs: realize (target map -> schedule + error report), maurey (sampling
rate study), kr (triangular transport tables), counterexample (pushforward
TV counterexamples), simulate (trajectory streaming), evaluate (schedule
vs target metrics).  Each reads one JSON config through its key table and
echoes it, so identical config + seed give identical bytes; a bad config,
schedule file or target exits 2 with one ``reluflow: error:`` stderr line.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

import numpy as np

from reluflow.kr import KRMap
from reluflow.maurey import (
    TimeMixture,
    builtin_mixture,
    rate_fit,
    reference_flow,
    run_errors,
    sample_schedule,
)
from reluflow.metrics import (
    oscillation_counterexample,
    rounding_counterexample,
)
from reluflow.numerics import grid_points
from reluflow.pipeline import map_errors, realize_target
from reluflow.schedule import (ControlSchedule, FlowOverflowError,
                               flow_points, json_key)
from reluflow.targets import density_from_spec, get_target


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _emit(out_path, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _emit_csv(out_path, cfg: dict, header, rows) -> None:
    """The config as a ``# config`` line, then the CSV header and rows."""
    buf = io.StringIO()
    buf.write("# config " + json.dumps(cfg, sort_keys=True) + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    _emit(out_path, buf.getvalue())


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _config(spec: dict, config: dict, seed: int = None) -> dict:
    """``config`` over ``spec``'s defaults ({key: (default, kind)}) and the
    seed, each value of ``json_key``'s kind (or null if the default is)."""
    unknown = sorted(set(config) - set(spec))
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown}; accepted: "
                         f"{sorted(spec)}")
    cfg = {key: default for key, (default, _) in spec.items()}
    for key, value in config.items():
        if value is not None or cfg[key] is not None:
            cfg[key] = json_key(config, key, "config", spec[key][1])
    return {**cfg, **({} if seed is None else {"seed": seed})}


def _load_schedule(spec) -> ControlSchedule:
    if isinstance(spec, dict):
        return ControlSchedule.from_dict(spec)
    if not isinstance(spec, str):
        raise ValueError(f"schedule must be a path or an object; got {spec!r}")
    return ControlSchedule.load(spec)


# --------------------------------------------------------------------------
def cmd_realize(config: dict, out, seed: int) -> int:
    # the construction is deterministic: no seed to echo
    cfg = _config({"target": ("sine-shear", None), "target_params": ({}, None),
                   "epsilon": (0.1, "number"), "mesh_h": (0.125, "number"),
                   "cube_h": (None, "number"), "p": (2.0, "number"),
                   "resolution": (128, "integer"),
                   "schedule_out": (None, "string")}, config)
    target = get_target(cfg["target"], cfg["target_params"])
    result = realize_target(
        target, epsilon=cfg["epsilon"], mesh_h=cfg["mesh_h"],
        cube_h=cfg["cube_h"], p=cfg["p"], resolution=cfg["resolution"])
    cfg["cube_h"] = result.cube_h
    sched_path = cfg["schedule_out"]
    if sched_path is None:
        base = Path(out) if out is not None else Path("schedule.json")
        sched_path = str(base.with_suffix("")) + ".schedule.json"
        cfg["schedule_out"] = sched_path
    result.schedule.save(sched_path)
    report = {"config": cfg, "schedule_file": str(sched_path),
              **result.to_report()}
    _emit(out, _json_text(report))
    return 0 if result.ok else 1


def cmd_maurey(config: dict, out, seed: int) -> int:
    cfg = _config({"mixture": ("builtin", None), "n_seeds": (20, "integer"),
                   "N": ([16, 32, 64, 128, 256, 512], None),
                   "n_eval": (64, "integer"), "step": (1e-3, "number"),
                   "eval_radius_frac": (0.5, "number")}, config, seed)
    for key in ("n_seeds", "n_eval"):
        if cfg[key] < 1:
            raise ValueError(f"{key} must be >= 1; got {cfg[key]}")
    # checked here, before the reference flow and the sampled schedules
    # that rate_fit (four N at least) would otherwise refuse only at the end
    Ns, frac = cfg["N"], cfg["eval_radius_frac"]
    if not (isinstance(Ns, list) and len(Ns) >= 4
            and all(type(N) is int and N >= 1 for N in Ns)):
        raise ValueError("N must be a list of at least 4 integers >= 1; "
                         f"got {Ns!r}")
    if not 0 < frac < np.inf:
        raise ValueError("eval_radius_frac must be finite and > 0; "
                         f"got {frac!r}")
    if cfg["mixture"] == "builtin":
        m = builtin_mixture()
    elif isinstance(cfg["mixture"], dict):
        m = TimeMixture.from_dict(cfg["mixture"])
    else:
        raise ValueError("mixture must be \"builtin\" or a mixture object; "
                         f"got {cfg['mixture']!r}")
    rng = np.random.default_rng(seed)
    radius = m.R * frac
    pts = rng.uniform(-radius / np.sqrt(m.d), radius / np.sqrt(m.d),
                      size=(cfg["n_eval"], m.d))
    reference = reference_flow(m, pts, step=float(cfg["step"]))
    rows = []
    means_e, means_d = [], []
    for N in Ns:
        es, ds = [], []
        for s in range(cfg["n_seeds"]):
            run = sample_schedule(m, N, seed + s)
            e, d = run_errors(run, m, pts, reference=reference)
            rows.append((N, seed + s, e, d))
            es.append(e)
            ds.append(d)
        means_e.append((N, float(np.mean(es))))
        means_d.append((N, float(np.mean(ds))))
    slope_e = rate_fit(means_e)
    slope_d = rate_fit(means_d)
    rows.append(("slope_e", "", slope_e, ""))
    rows.append(("slope_delta", "", "", slope_d))
    _emit_csv(out, cfg, ("N", "seed", "e_N", "delta_N"), rows)
    return 0


def cmd_kr(config: dict, out, seed: int) -> int:
    cfg = _config({"rho0": ("uniform", None), "rho1": ("tilted", None),
                   "shape": ([65, 65], "vector"), "grid": (9, "integer"),
                   "points": (None, "matrix")}, config, seed)
    rho0 = density_from_spec(cfg["rho0"], cfg["shape"])
    rho1 = density_from_spec(cfg["rho1"], cfg["shape"])
    phi = KRMap(rho0, rho1)
    d = rho0.d
    if cfg["points"] is not None:
        X = np.atleast_2d(np.asarray(cfg["points"], dtype=float))
    elif cfg["grid"] < 1:
        raise ValueError(f"grid must be >= 1; got {cfg['grid']}")
    else:
        X = grid_points([np.linspace(0.0, 1.0, cfg["grid"])] * d)
    Y = phi(X)
    header = tuple(f"x{k}" for k in range(d)) + tuple(
        f"phi{k}" for k in range(d))
    rows = [tuple(x) + tuple(y) for x, y in zip(X, Y)]
    _emit_csv(out, cfg, header, rows)
    return 0


def cmd_counterexample(config: dict, out, seed: int) -> int:
    cfg = _config({"kind": ("oscillation", None), "alpha": (0.1, "number"),
                   "h": (1.0 / 64, "number"), "refine": (8, "integer"),
                   "resolution": (200001, "integer")}, config, seed)
    rows = []
    if cfg["kind"] == "oscillation":
        sup, tv = oscillation_counterexample(cfg["alpha"], cfg["h"],
                                             resolution=cfg["resolution"])
        params = f"alpha={_fmt(cfg['alpha'])};h={_fmt(cfg['h'])}"
        rows.append(("sup_displacement", params, sup))
        rows.append(("pushforward_tv", params, tv))
    elif cfg["kind"] == "rounding":
        tv = rounding_counterexample(cfg["h"], refine=cfg["refine"])
        params = f"h={_fmt(cfg['h'])};refine={cfg['refine']}"
        rows.append(("histogram_tv", params, tv))
    else:
        raise ValueError(f"unknown counterexample kind {cfg['kind']!r}")
    _emit_csv(out, cfg, ("metric", "params", "value"), rows)
    return 0


def cmd_simulate(config: dict, out, seed: int) -> int:
    cfg = _config({"schedule": (None, None), "points": ([[0.0]], "matrix"),
                   "substeps": (4, "integer")}, config, seed)
    if cfg["schedule"] is None:
        raise ValueError("simulate requires a 'schedule' (path or object)")
    k = cfg["substeps"]
    if k < 1:
        raise ValueError(f"substeps must be >= 1; got {k}")
    sched = _load_schedule(cfg["schedule"])
    X = np.atleast_2d(np.asarray(cfg["points"], dtype=float))
    n, d = X.shape
    logdet = np.zeros(n)
    t = 0.0
    rows = []

    def snapshot():
        for i in range(n):
            rows.append((i, t) + tuple(X[i]) + (logdet[i],))

    snapshot()
    for i, tau in enumerate(sched.duration.tolist()):
        # segment i for a k-th of its duration
        piece = ControlSchedule.from_arrays(
            sched.a[i:i + 1], sched.w[i:i + 1], sched.b[i:i + 1], [tau / k])
        for _ in range(k):
            X, ld = flow_points(X, piece)
            logdet = logdet + ld
            t += tau / k
            snapshot()
    header = ("point", "t") + tuple(f"x{j}" for j in range(d)) + ("logdet",)
    _emit_csv(out, cfg, header, rows)
    return 0


def cmd_evaluate(config: dict, out, seed: int) -> int:
    cfg = _config({"schedule": (None, None), "target": ("identity", None),
                   "target_params": ({}, None), "p": (2.0, "number"),
                   "resolution": (128, "integer")}, config, seed)
    if cfg["schedule"] is None:
        raise ValueError("evaluate requires a 'schedule' (path or object)")
    sched = _load_schedule(cfg["schedule"])
    target = get_target(cfg["target"], cfg["target_params"])
    lp, tv = map_errors(target, sched, cfg["p"], cfg["resolution"])
    rows = [("lp_error", lp), ("tv_error", tv),
            ("n_segments", len(sched)), ("switch_count", sched.switch_count),
            ("total_duration", sched.total_duration)]
    _emit_csv(out, cfg, ("metric", "value"), rows)
    return 0


# Bad configs, schedule files and targets: reported in one line, exit code 2.
# json.JSONDecodeError is a ValueError, and so are FactorizationError and
# DensityDegeneracyError; OSError covers a missing or unreadable file.
_USER_ERRORS = (ValueError, KeyError, FlowOverflowError, OSError)

_COMMANDS = {
    "realize": cmd_realize,
    "maurey": cmd_maurey,
    "kr": cmd_kr,
    "counterexample": cmd_counterexample,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reluflow",
        description="Piecewise-constant single-neuron flow schedules: "
                    "construction, sampling, transport, and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config file (defaults echoed into report)")
        p.add_argument("--out", default=None,
                       help="output file (default: stdout)")
        p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        config = {}
        if args.config is not None:
            config = json.loads(Path(args.config).read_text())
        return _COMMANDS[args.command](config, args.out, args.seed)
    except _USER_ERRORS as exc:
        # KeyError's str() quotes its message; show the message itself
        text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        message = " ".join(str(text).split())
        print(f"reluflow: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
