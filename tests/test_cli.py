import json
from pathlib import Path

import numpy as np
import pytest

from reluflow import cli
from reluflow.cli import main
from reluflow.maurey import builtin_mixture
from reluflow.schedule import ControlSchedule
from tests.conftest import schedule_of


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(tmp_path, verb, config, seed=0, out_name="out"):
    cfg = write_config(tmp_path, f"{verb}.json", config)
    out = tmp_path / out_name
    code = main([verb, "--config", cfg, "--out", str(out), "--seed", str(seed)])
    return code, out.read_text()


class TestRealizeCommand:
    def test_identity_empty_schedule_exit_zero(self, tmp_path):
        code, text = run(tmp_path, "realize",
                         {"target": "identity", "resolution": 16},
                         out_name="report.json")
        assert code == 0
        report = json.loads(text)
        assert report["total_segments"] == 0
        assert report["lp_error"] == 0.0
        sched = ControlSchedule.load(report["schedule_file"])
        assert len(sched) == 0

    def test_profile_target_exact(self, tmp_path):
        code, text = run(tmp_path, "realize",
                         {"target": "profile1d", "resolution": 32},
                         out_name="report.json")
        assert code == 0
        report = json.loads(text)
        assert report["lp_error"] <= 1e-9

    def test_shifted_profile_target_exit_zero(self, tmp_path):
        profile = {"breakpoints": [0.0, 1.0], "slopes": [1.0], "beta0": 0.3}
        code, text = run(tmp_path, "realize",
                         {"target": "profile1d", "resolution": 32,
                          "target_params": {"profile": profile}},
                         out_name="report.json")
        report = json.loads(text)
        assert code == 0
        assert report["ok"] is True
        assert report["tv_error"] <= 1e-9

    def test_exit_nonzero_when_error_exceeds_epsilon(self, tmp_path):
        code, text = run(tmp_path, "realize",
                         {"target": "sine-shear", "mesh_h": 0.25,
                          "epsilon": 1e-6, "resolution": 16},
                         out_name="report.json")
        assert code == 1
        assert json.loads(text)["ok"] is False

    def test_schedule_roundtrip_bit_identical(self, tmp_path):
        _, text = run(tmp_path, "realize",
                      {"target": "profile1d", "resolution": 16},
                      out_name="report.json")
        path = json.loads(text)["schedule_file"]
        original = Path(path).read_text()
        sched = ControlSchedule.load(path)
        sched.save(str(tmp_path / "again.json"))
        assert (tmp_path / "again.json").read_text() == original


    def test_3d_kr_target_realizes_and_evaluates(self, tmp_path):
        X, Y, Z = np.meshgrid(*[np.linspace(0.0, 1.0, 5)] * 3, indexing="ij")
        tilted = (1 + 0.4 * X + 0.2 * Y + 0.3 * Z) / 1.45   # integral 1
        params = {"rho0": {"values": np.ones((5, 5, 5)).tolist()},
                  "rho1": {"values": tilted.tolist()}}
        code, text = run(tmp_path, "realize",
                         {"target": "kr", "target_params": params,
                          "mesh_h": 0.25, "resolution": 16},
                         out_name="report.json")
        assert code == 0
        report = json.loads(text)
        assert [s["axis"] for s in report["stages"]] == [0, 1, 2]
        code, text = run(tmp_path, "evaluate",
                         {"schedule": report["schedule_file"], "target": "kr",
                          "target_params": params, "resolution": 16},
                         out_name="eval.csv")
        assert code == 0
        assert "lp_error," + repr(report["lp_error"]) in text

    def test_3d_affine_target_realizes_and_evaluates(self, tmp_path):
        params = {"matrix": [[1.1, 0.1, 0.0], [0.0, 0.85, 0.05],
                             [0.0, 0.0, 0.95]],
                  "offset": [0.02, 0.05, 0.01]}
        code, text = run(tmp_path, "realize",
                         {"target": "affine", "target_params": params,
                          "mesh_h": 0.25, "resolution": 16},
                         out_name="report.json")
        assert code == 0
        report = json.loads(text)
        assert [s["axis"] for s in report["stages"]] == [0, 1, 2]
        assert report["lp_error"] <= 0.02 and report["tv_error"] <= 0.05
        code, text = run(tmp_path, "evaluate",
                         {"schedule": report["schedule_file"],
                          "target": "affine", "target_params": params,
                          "resolution": 16},
                         out_name="eval.csv")
        assert code == 0
        assert "lp_error," + repr(report["lp_error"]) in text


class TestDeterminism:
    @pytest.mark.parametrize("verb,config", [
        ("maurey", {"N": [8, 16, 32, 64], "n_seeds": 2, "n_eval": 8}),
        ("kr", {"rho0": "uniform", "rho1": "tilted", "shape": [33, 33],
                "grid": 4}),
        ("counterexample", {"kind": "rounding", "h": 0.125, "refine": 4}),
    ])
    def test_identical_config_and_seed_identical_bytes(self, tmp_path, verb,
                                                       config):
        _, a = run(tmp_path, verb, config, seed=7, out_name="a")
        _, b = run(tmp_path, verb, config, seed=7, out_name="b")
        assert a == b

    def test_seed_changes_maurey_rows(self, tmp_path):
        config = {"N": [8, 16, 32, 64], "n_seeds": 2, "n_eval": 8}
        _, a = run(tmp_path, "maurey", config, seed=1, out_name="a")
        _, b = run(tmp_path, "maurey", config, seed=2, out_name="b")
        assert a != b


def builtin_mixture_inline():
    """The built-in mixture in the config format: per cell, its atoms."""
    m = builtin_mixture()
    return {"d": m.d, "R": m.R, "time_grid": m.time_grid.tolist(),
            "cells": [[{"w": m.w[j].tolist(), "a": m.a[j].tolist(),
                        "b": float(m.b[j]), "mass": float(m.mass[i, j])}
                       for j in range(len(m.b))] for i in range(m.n_cells)]}


class TestMaureyCommand:
    def test_inline_mixture_matches_builtin(self, tmp_path):
        config = {"N": [16, 32, 64, 128], "n_seeds": 2, "n_eval": 8}
        tables = []
        for mixture in ("builtin", builtin_mixture_inline()):
            code, text = run(tmp_path, "maurey", {**config,
                                                  "mixture": mixture})
            assert code == 0
            lines = [l for l in text.splitlines() if not l.startswith("#")]
            tables.append([l.split(",") for l in lines[1:]])
        builtin, inline = tables
        assert len(builtin) == len(inline) == 4 * 2 + 2
        for row_b, row_i in zip(builtin, inline):
            assert row_b[:2] == row_i[:2]
            for vb, vi in zip(row_b[2:], row_i[2:]):
                if vb:
                    assert float(vi) == pytest.approx(float(vb), rel=1e-12)


class TestKrCommand:
    def test_uniform_to_2x_matches_sqrt(self, tmp_path):
        config = {"rho0": "uniform", "rho1": "2x", "shape": [512],
                  "points": [[0.04], [0.25], [0.49], [0.81]]}
        _, text = run(tmp_path, "kr", config)
        lines = [l for l in text.splitlines() if not l.startswith("#")][1:]
        for line in lines:
            x, y = map(float, line.split(","))
            assert y == pytest.approx(np.sqrt(x), abs=1e-5)


class TestSimulateCommand:
    def test_identity_schedule_stays_put(self, tmp_path):
        sched_path = tmp_path / "empty.json"
        ControlSchedule().save(str(sched_path))
        config = {"schedule": str(sched_path), "points": [[0.3, 0.4]]}
        _, text = run(tmp_path, "simulate", config)
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 1  # only the t=0 snapshot
        _, t, x0, x1, ld = map(float, rows[0].split(","))
        assert (t, x0, x1, ld) == (0.0, 0.3, 0.4, 0.0)

    def test_streams_segment_substeps(self, tmp_path):
        from reluflow.gadgets import slope_change_stages
        sched_path = tmp_path / "dil.json"
        slope_change_stages(0.0, 2.0, 1.0).save(str(sched_path))
        config = {"schedule": str(sched_path), "points": [[1.0]],
                  "substeps": 4}
        _, text = run(tmp_path, "simulate", config)
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 5
        last = list(map(float, rows[-1].split(",")))
        assert last[2] == pytest.approx(2.0, abs=1e-12)   # x doubles
        assert last[3] == pytest.approx(np.log(2.0), abs=1e-12)


class TestEvaluateCommand:
    def test_profile_schedule_against_its_target(self, tmp_path):
        _, text = run(tmp_path, "realize",
                      {"target": "profile1d", "resolution": 16},
                      out_name="report.json")
        sched_file = json.loads(text)["schedule_file"]
        config = {"schedule": sched_file, "target": "profile1d",
                  "resolution": 32}
        code, text = run(tmp_path, "evaluate", config, out_name="eval.csv")
        assert code == 0
        metrics = dict(
            line.split(",") for line in text.splitlines()
            if not line.startswith("#") and not line.startswith("metric"))
        assert float(metrics["lp_error"]) <= 1e-9

    def test_integer_p_runs_and_is_echoed(self, tmp_path):
        sched = {"segments": [{"w": [1.0, 0.0], "a": [0.0, 1.0], "b": 0.0,
                               "duration": 0.5}]}
        tables = []
        for p in (2, 2.0):
            code, text = run(tmp_path, "evaluate", {
                "schedule": sched, "target": "sine-shear", "p": p,
                "resolution": 16})
            assert code == 0
            config_line, *table = text.splitlines()
            echoed = json.loads(config_line[len("# config "):])["p"]
            assert echoed == p and type(echoed) is type(p)
            tables.append(table)
        assert tables[0] == tables[1]


# each verb's integer and number config keys, and the values each refuses
CONFIG_KINDS = {
    "realize": {"resolution": "an integer", "epsilon": "a number",
                "mesh_h": "a number", "cube_h": "a number", "p": "a number"},
    "maurey": {"n_seeds": "an integer", "n_eval": "an integer",
               "step": "a number", "eval_radius_frac": "a number"},
    "kr": {"grid": "an integer"},
    "counterexample": {"refine": "an integer", "resolution": "an integer",
                       "alpha": "a number", "h": "a number"},
    "simulate": {"substeps": "an integer"},
    "evaluate": {"resolution": "an integer", "p": "a number"},
}
WRONG_VALUES = {"an integer": (2.5, "16", True), "a number": ("x", True)}


def run_failing(tmp_path, capsys, verb, config):
    """Run a verb that must fail: exit code 2, one line on stderr."""
    cfg = write_config(tmp_path, f"{verb}.json", config)
    out = tmp_path / "out"
    code = main([verb, "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert not out.exists()
    assert code == 2
    assert err.startswith("reluflow: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestBadInputs:
    def test_simulate_without_schedule(self, tmp_path, capsys):
        err = run_failing(tmp_path, capsys, "simulate", {})
        assert "requires a 'schedule'" in err

    def test_unknown_counterexample_kind(self, tmp_path, capsys):
        err = run_failing(tmp_path, capsys, "counterexample",
                          {"kind": "teleport"})
        assert "teleport" in err

    @pytest.mark.parametrize("verb", ["realize", "maurey", "kr",
                                      "counterexample", "simulate",
                                      "evaluate"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, verb):
        err = run_failing(tmp_path, capsys, verb, {"mesh-h": 0.1})
        assert "mesh-h" in err

    @pytest.mark.parametrize("verb", ["simulate", "evaluate"])
    @pytest.mark.parametrize("content,problem", [
        ("{not json", "Expecting property name"),
        (json.dumps({"d": 3, "segments": [
            {"w": [1.0, 0.0], "a": [0.0, 1.0], "b": 0.0, "duration": 1.0}]}),
         "declares d = 3"),
        (json.dumps({"segments": [
            {"w": [1.0, 0.0], "a": [0.0, 1.0], "b": 0.0, "duration": -1.0}]}),
         "duration must be finite and >= 0"),
        # json.dumps writes the NaN literal, which json.loads accepts
        (json.dumps({"segments": [
            {"w": [float("nan"), 0.0], "a": [0.0, 1.0], "b": 0.0,
             "duration": 1.0}]}), "w has non-finite entries"),
        (json.dumps({"segments": [
            {"w": [1.0, 0.0], "a": [1.0], "b": 0.0, "duration": 1.0}]}),
         "same dimension"),
        (json.dumps({"segments": [
            {"w": [1.0, 0.0], "a": [0.0, 1.0], "b": 0.0, "duration": 1.0},
            {"w": [1.0], "a": [1.0], "b": 0.0, "duration": 1.0}]}),
         "mixed dimensions [1, 2]"),
        (json.dumps({"segments": [
            {"w": [1.0, 0.0], "a": [0.0, 1.0], "b": 0.0}]}), "duration"),
        (json.dumps({"segments": [
            {"w": [[1.0, 0.0]], "a": [[0.0, 1.0]], "b": 0.0,
             "duration": 1.0}]}), "1-d"),
        ("[1.0, 2.0]", "a schedule must be a JSON object"),
    ], ids=["malformed-json", "wrong-d", "negative-duration", "nan-weight",
            "a-w-mismatch", "mixed-dimensions", "missing-duration",
            "matrix-weight", "not-an-object"])
    def test_bad_schedule_file(self, tmp_path, capsys, verb, content,
                               problem):
        path = tmp_path / "bad.schedule.json"
        path.write_text(content)
        err = run_failing(tmp_path, capsys, verb, {"schedule": str(path)})
        assert problem in err

    @pytest.mark.parametrize("substeps", [0, -2])
    def test_bad_substeps(self, tmp_path, capsys, substeps):
        path = tmp_path / "dil.schedule.json"
        schedule_of(([1.0], [1.0], 0.0, 1.0)).save(str(path))
        err = run_failing(tmp_path, capsys, "simulate",
                          {"schedule": str(path), "points": [[1.0]],
                           "substeps": substeps})
        assert "substeps must be >= 1" in err

    @pytest.mark.parametrize("sizes", [
        {"mesh_h": 0.0}, {"mesh_h": -0.25}, {"cube_h": 0.0},
        {"cube_h": -0.25}], ids=["zero-mesh", "negative-mesh", "zero-cube",
                                 "negative-cube"])
    def test_bad_mesh_sizes(self, tmp_path, capsys, sizes):
        err = run_failing(tmp_path, capsys, "realize",
                          {**sizes, "resolution": 16})
        assert "mesh_h and cube_h must be finite and > 0" in err

    @pytest.mark.parametrize("verb,config,problem", [
        ("evaluate", {"resolution": 0}, "resolution must be >= 1; got 0"),
        ("evaluate", {"resolution": -3}, "resolution must be >= 1; got -3"),
        ("realize", {"target": "identity", "resolution": 0},
         "resolution must be >= 1; got 0"),
        ("maurey", {"step": 0}, "step must be positive; got 0.0"),
        ("maurey", {"step": -1}, "step must be positive; got -1.0"),
        ("maurey", {"n_seeds": 0}, "n_seeds must be >= 1; got 0"),
        ("maurey", {"n_eval": 0}, "n_eval must be >= 1; got 0"),
        ("counterexample", {"kind": "rounding", "refine": 0},
         "refine must be >= 1; got 0"),
        ("counterexample", {"kind": "oscillation", "resolution": 1},
         "need resolution >= 2; got 1"),
        ("kr", {"grid": 0}, "grid must be >= 1; got 0"),
    ], ids=["evaluate-resolution-0", "evaluate-resolution-negative",
            "realize-resolution-0", "maurey-step-0", "maurey-step-negative",
            "maurey-n-seeds-0", "maurey-n-eval-0", "rounding-refine-0",
            "oscillation-resolution-1", "kr-grid-0"])
    def test_refused_sizes(self, tmp_path, capsys, verb, config, problem):
        if verb == "evaluate":
            config = {**config, "schedule": {"segments": [
                {"w": [1.0, 0.0], "a": [0.0, 1.0], "b": 0.0,
                 "duration": 0.5}]}}
        err = run_failing(tmp_path, capsys, verb, config)
        assert problem in err

    @pytest.mark.parametrize("config,problem", [
        ({"eval_radius_frac": -1},
         "eval_radius_frac must be finite and > 0; got -1"),
        ({"N": [16]}, "N must be a list of at least 4 integers >= 1; got [16]"),
        ({"N": "abc"},
         "N must be a list of at least 4 integers >= 1; got 'abc'"),
    ], ids=["negative-radius", "one-N", "string-N"])
    def test_refused_rate_study(self, tmp_path, capsys, monkeypatch, config,
                                problem):
        # refused before the reference flow, the study's first computation
        def reference_flow(*args, **kwargs):
            raise AssertionError("the reference flow ran")

        monkeypatch.setattr(cli, "reference_flow", reference_flow)
        err = run_failing(tmp_path, capsys, "maurey", config)
        assert problem in err

    @pytest.mark.parametrize("params,key", [
        ({"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}, '"matrix"'),
        ({"matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0, 0.0]},
         '"offset"'),
    ], ids=["non-square-matrix", "long-offset"])
    def test_malformed_affine_target(self, tmp_path, capsys, params, key):
        err = run_failing(tmp_path, capsys, "realize",
                          {"target": "affine", "target_params": params})
        assert "affine target: " + key in err

    def test_missing_schedule_file(self, tmp_path, capsys):
        err = run_failing(tmp_path, capsys, "evaluate",
                          {"schedule": str(tmp_path / "absent.json")})
        assert "absent.json" in err

    def test_overflowing_schedule(self, tmp_path, capsys):
        path = tmp_path / "big.schedule.json"
        schedule_of(([1000.0], [1.0], 0.0, 1.0)).save(str(path))
        err = run_failing(tmp_path, capsys, "simulate",
                          {"schedule": str(path), "points": [[1.0]],
                           "substeps": 1})
        assert "too large" in err

    def test_non_monotone_realize_target(self, tmp_path, capsys):
        # a quarter turn: its row maps are not increasing
        err = run_failing(tmp_path, capsys, "realize", {
            "target": "affine",
            "target_params": {"matrix": [[0.0, -1.0], [1.0, 0.0]]},
            "resolution": 16})
        assert "not strictly increasing" in err

    def test_unknown_target(self, tmp_path, capsys):
        err = run_failing(tmp_path, capsys, "realize", {"target": "swirl"})
        assert err.startswith("reluflow: error: unknown target 'swirl'")

    @pytest.mark.parametrize("change,problem", [
        ({"mass": float("nan")}, "mass must be finite and >= 0"),
        ({"mass": -0.2}, "mass must be finite and >= 0"),
        ({"w": [float("nan"), 0.8]}, "w has non-finite entries"),
        ({"a": [float("inf"), 0.0]}, "a has non-finite entries"),
        ({"b": float("nan")}, "b must be finite"),
    ], ids=["nan-mass", "negative-mass", "nan-w", "inf-a", "nan-b"])
    def test_bad_mixture_atom(self, tmp_path, capsys, change, problem):
        mixture = builtin_mixture_inline()
        mixture["cells"][1][0].update(change)
        err = run_failing(tmp_path, capsys, "maurey", {"mixture": mixture})
        assert problem in err

    @pytest.mark.parametrize("R", [-3.0, 0.0, float("nan")])
    def test_bad_mixture_radius(self, tmp_path, capsys, R):
        mixture = {**builtin_mixture_inline(), "R": R}
        err = run_failing(tmp_path, capsys, "maurey", {"mixture": mixture})
        assert "R must be finite and > 0" in err

    @pytest.mark.parametrize("verb,config,problem", [
        ("simulate", {"schedule": {"d": 1, "segments": 5}},
         '"segments" must be a list'),
        ("simulate", {"schedule": {"segments": [
            {"w": [1.0], "a": [1.0], "b": 0.0}]}},
         "segments[0]: missing key 'duration'"),
        ("evaluate", {"schedule": {"segments": [5]}},
         "segments[0] must be an object"),
        ("simulate", {"schedule": 5}, "schedule must be a path or an object"),
        ("maurey", {"mixture": {**builtin_mixture_inline(), "cells": 5}},
         '"cells" must be a list'),
        ("maurey", {"mixture": {**builtin_mixture_inline(),
                                "cells": [[{"w": [1.0, 0.0], "a": [0.0, 1.0],
                                            "b": 0.0}]]}},
         "cells[0][0]: missing key 'mass'"),
    ], ids=["segments-not-list", "segment-without-duration",
            "segment-not-object", "schedule-number",
            "cells-not-list", "atom-without-mass"])
    def test_bad_json_structure(self, tmp_path, capsys, verb, config,
                                problem):
        err = run_failing(tmp_path, capsys, verb, config)
        assert problem in err

    @pytest.mark.parametrize("verb,config,problem", [
        ("simulate", {"schedule": {"segments": [
            {"w": [1.0], "a": [1.0], "b": {}, "duration": 1.0}]}},
         'segments[0]: "b" must be a number'),
        ("evaluate", {"schedule": {"segments": [
            {"w": [1.0], "a": [1.0], "b": 0.0, "duration": "1"}]}},
         'segments[0]: "duration" must be a number'),
        ("simulate", {"schedule": {"segments": [
            {"w": [1.0], "a": [1.0], "b": 0.0, "duration": 1.0},
            {"w": [1.0], "a": [None], "b": 0.0, "duration": 1.0}]}},
         'segments[1]: "a" must be a 1-d list of numbers'),
        ("maurey", {"mixture": {**builtin_mixture_inline(), "d": None}},
         'mixture: "d" must be an integer'),
        ("maurey", {"mixture": {**builtin_mixture_inline(), "R": {}}},
         'mixture: "R" must be a number'),
        ("maurey", {"mixture": {**builtin_mixture_inline(),
                                "time_grid": [0.0, {}, 1.0]}},
         'mixture: "time_grid" must be a 1-d list of numbers'),
        ("maurey", {"mixture": {**builtin_mixture_inline(),
                                "cells": [[{"w": [1.0, 0.0], "a": [0.0, 1.0],
                                            "b": 0.0, "mass": True}], []]}},
         'cells[0][0]: "mass" must be a number'),
    ], ids=["segment-b-object", "segment-duration-string",
            "segment-a-null-entry", "mixture-d-null", "mixture-R-object",
            "mixture-time-grid-object", "atom-mass-bool"])
    def test_wrong_value_type(self, tmp_path, capsys, verb, config, problem):
        err = run_failing(tmp_path, capsys, verb, config)
        assert problem in err

    @pytest.mark.parametrize("verb,config,problem", [
        ("simulate", {"schedule": {"d": 1}}, "schedule: missing key 'segments'"),
        *(("maurey", {"mixture": {k: v for k, v in
                                  builtin_mixture_inline().items()
                                  if k != key}},
           f"mixture: missing key {key!r}")
          for key in ("d", "R", "time_grid", "cells")),
    ], ids=["schedule-segments", "mixture-d", "mixture-R", "mixture-time-grid",
            "mixture-cells"])
    def test_missing_top_level_key(self, tmp_path, capsys, verb, config,
                                   problem):
        err = run_failing(tmp_path, capsys, verb, config)
        assert problem in err

    @pytest.mark.parametrize("verb,config,problem", [
        *(("realize", {"target": "profile1d", "target_params": {"profile": {
            k: v for k, v in {"breakpoints": [0.0, 1.0], "slopes": [1.0],
                              "beta0": 0.3}.items() if k != key}}},
           f"profile: missing key {key!r}")
          for key in ("breakpoints", "slopes", "beta0")),
        ("realize", {"target": "profile1d", "target_params": {"profile": {
            "breakpoints": "0 1", "slopes": [1.0], "beta0": 0.3}}},
         'profile: "breakpoints" must be a 1-d list of numbers'),
        ("kr", {"rho0": {"value": [1.0, 1.0]}},
         "density: missing key 'values'"),
        ("realize", {"target": "kr", "target_params": {"rho1": {}}},
         "density: missing key 'values'"),
    ], ids=["profile-breakpoints", "profile-slopes", "profile-beta0",
            "profile-breakpoints-string", "kr-density-values",
            "realize-density-values"])
    def test_config_object_names_its_field(self, tmp_path, capsys, verb,
                                           config, problem):
        err = run_failing(tmp_path, capsys, verb, config)
        assert problem in err

    @pytest.mark.parametrize("verb,config,problem", [
        *(pytest.param(verb, {key: value}, f'config: "{key}" must be {what}',
                       id=f"{verb}-{key}-{type(value).__name__}")
          for verb, kinds in CONFIG_KINDS.items()
          for key, what in kinds.items() for value in WRONG_VALUES[what]),
        pytest.param("maurey", {"n_seeds": "abc"},
                     'config: "n_seeds" must be an integer', id="n-seeds-abc"),
        pytest.param("realize", {"target": "affine", "target_params": 5},
                     "target_params must be an object; got 5",
                     id="target-params-number"),
        pytest.param("realize", {"target": "affine", "target_params": {
            "matrx": [[2, 0], [0, 1]]}},
                     "affine target: unknown target_params key(s) ['matrx']; "
                     "accepted: ['matrix', 'offset']", id="affine-matrx"),
        pytest.param("realize", {"target": "sine-radial",
                                 "target_params": {"beta": 0.5}},
                     "sine-radial target: unknown target_params key(s) "
                     "['beta']; accepted: []", id="sine-radial-beta"),
        pytest.param("realize", {"target": "profile1d",
                                 "target_params": {"d": 2.5}},
                     'profile1d target: "d" must be an integer',
                     id="profile1d-d-float"),
        pytest.param("kr", {"shape": [9.5, 9]},
                     "density shape must hold integers; got [9.5, 9]",
                     id="kr-shape-float"),
        *(pytest.param("realize", {"target": "profile1d",
                                   "target_params": {"d": d}},
                       f'profile1d target: "d" must be >= 1; got {d}',
                       id=f"profile1d-d-{d}") for d in (0, -3)),
        *(pytest.param(verb, {**config, "points": points},
                       'config: "points" must be a list of equal-length '
                       'lists of numbers', id=f"{verb}-points-{name}")
          for verb, config in (("kr", {}),
                               ("simulate", {"schedule": {"segments": []}}))
          for name, points in (("string", [[0.3, "x"]]),
                               ("ragged", [[0.1], [0.1, 0.2]]))),
        *(pytest.param("kr", {"rho1": density, "shape": shape},
                       f"density {density!r} is two-dimensional; got shape "
                       f"{tuple(shape)}", id=f"kr-{density}-{len(shape)}d")
          for density in ("tilted", "product") for shape in ([9], [5, 5, 5])),
    ])
    def test_refused_config_value(self, tmp_path, capsys, verb, config,
                                  problem):
        err = run_failing(tmp_path, capsys, verb, config)
        assert problem in err

    @pytest.mark.parametrize("path", [True, 1, 5, []],
                             ids=["true", "one", "five", "list"])
    def test_refused_schedule_out(self, tmp_path, capsys, monkeypatch, path):
        # refused before the target is realized: true and 1 would open
        # file descriptor 1, write the schedule there and close it
        def realize_target(*args, **kwargs):
            raise AssertionError("the target was realized")

        monkeypatch.setattr(cli, "realize_target", realize_target)
        err = run_failing(tmp_path, capsys, "realize",
                          {"target": "identity", "schedule_out": path})
        assert 'config: "schedule_out" must be a string' in err

    def test_unknown_mixture_name(self, tmp_path, capsys):
        err = run_failing(tmp_path, capsys, "maurey", {"mixture": "custom"})
        assert "mixture must be \"builtin\" or a mixture object" in err

    def test_malformed_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{\"target\": ")
        code = main(["realize", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("reluflow: error: ")
