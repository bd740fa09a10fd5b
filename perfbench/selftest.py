#!/usr/bin/env python3
"""Quick self-test of the benchmark: every workload at reduced size.

Checks that untraced and traced runs print, as their last line, a result
whose metric names and units are the ones BENCHMARK.json lists, that the
reduced workloads fail no operation, and that an output check that fails,
or an operation that raises, is counted as a failed operation while the run
goes on to its end.

Usage (from the repository root; about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _small(name: str, seed: int):
    import workloads as w

    return {
        "realize-sine-radial": lambda: w.SineRadial(
            seed, levels=(1 / 8, 1 / 16), resolution=32, batch=256),
        "realize-kr": lambda: w.KnotheRosenblatt(
            seed, h=1 / 8, resolution=32, batch=256, check_points=64),
        "maurey-rate": lambda: w.MaureyRate(seed, Ns=(16, 32, 64, 128), grid=4),
    }[name]()


def _run(workload: str, trace: int) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bench.main(["--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)],
                          factory=_small)
    if code != 0:
        raise RuntimeError(f"{workload}: exit code {code}\n{err.getvalue()}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    problems = []

    def check(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = _run(name, trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{name} --trace {trace}: names and units "
                               f"match BENCHMARK.json {key}")
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} --trace {trace}: result keys")
            check(res["correct"] and res["attempted"] > 0
                  and res["failed"] == 0,
                  f"{name} --trace {trace}: {res['attempted']} attempted, "
                  f"{res['failed']} failed, correct={res['correct']}")

    import workloads

    # A check that rejects every output: the push fails, and so the pull
    # back, which needs its output, fails too, once a round.
    saved = workloads.SAMPLE_L2_GATE
    workloads.SAMPLE_L2_GATE = -1.0
    try:
        res = _run("realize-sine-radial", 0)
    finally:
        workloads.SAMPLE_L2_GATE = saved
    rounds = res["attempted"] // 4
    check(res["attempted"] == 4 * rounds and res["failed"] == 2 * rounds
          and not res["correct"],
          f"failed check: {res['attempted']} attempted, {res['failed']} "
          f"failed, correct={res['correct']}")

    # An operation that raises: the realization and the two operations
    # that use its schedule fail; the closed-form check still runs.
    saved = workloads.realize_target

    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")

    workloads.realize_target = broken
    try:
        res = _run("realize-kr", 0)
    finally:
        workloads.realize_target = saved
    rounds = res["attempted"] // 4
    check(res["attempted"] == 4 * rounds and res["failed"] == 3 * rounds
          and res["correct"],
          f"raising operation: {res['attempted']} attempted, "
          f"{res['failed']} failed, correct={res['correct']}")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
