"""The realize, evaluate, simulate and sampling paths run without SciPy."""

import subprocess
import sys
from pathlib import Path

import reluflow

SRC = str(Path(reluflow.__file__).resolve().parents[1])

SCRIPT = f"""
import importlib
import pkgutil
import sys

sys.modules["scipy"] = None        # any SciPy import now raises
sys.path.insert(0, {SRC!r})

import numpy as np

import reluflow
for info in pkgutil.iter_modules(reluflow.__path__):
    importlib.import_module("reluflow." + info.name)
import reluflow.cli
from reluflow.maurey import builtin_mixture, run_errors, sample_schedule
from reluflow.metrics import contraction_check
from reluflow.pipeline import realize_target
from reluflow.targets import density_from_spec, get_target

kr = realize_target(get_target("kr"), mesh_h=0.25)
realize_target(get_target("sine-radial"), mesh_h=0.25)
contraction_check(kr.schedule, density_from_spec("uniform", (9, 9)),
                  density_from_spec("tilted", (9, 9)), resolution=16)
m = builtin_mixture()
run_errors(sample_schedule(m, 16, seed=0), m,
           np.random.default_rng(0).uniform(-1, 1, size=(8, 2)))
loaded = [name for name, mod in sys.modules.items()
          if mod is not None and name.split(".")[0] == "scipy"]
assert not loaded, loaded
"""


def test_user_paths_import_no_scipy():
    done = subprocess.run([sys.executable, "-c", SCRIPT],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
