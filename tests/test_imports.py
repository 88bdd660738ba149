"""What the package imports: numpy alone, and nothing after a driver's set-up starts.

Each check runs in a fresh interpreter, so modules that other tests (or
pytest's plugins) loaded cannot hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nspbox

SRC = str(Path(nspbox.__file__).resolve().parents[1])

NO_SCIPY = """
import sys
import nspbox.cli, nspbox.experiments
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""

# the driver runs until its first step call (check-lemmas never steps: all of it) and prints
# the modules it imported on the way
SET_UP = """
import sys
import nspbox.experiments as experiments
from nspbox import stepper
from nspbox.config import parse_config

class FirstStep(Exception):
    pass

def step(self, s):
    raise FirstStep

stepper.FriedrichsStepper.step = step
cfg = parse_config(sys.argv[2])
before = set(sys.modules)
try:
    getattr(experiments, sys.argv[1])(cfg, sys.argv[3])
except FirstStep:
    pass
print(sorted(set(sys.modules) - before))
"""


def _run(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return done.stdout.strip().splitlines()[-1]


def test_package_loads_no_scipy():
    assert _run(NO_SCIPY) == "[]"


@pytest.mark.parametrize(
    "driver",
    [
        "experiment_nonlinear",
        "experiment_linear",
        "experiment_refine",
        "experiment_perturb",
        "experiment_check_lemmas",
    ],
)
def test_driver_set_up_imports_nothing(driver, tmp_path):
    config = "grid.M = 16\nstepper.t_end = 0.01\ninit.kind = smooth-random\n"
    assert _run(SET_UP, driver, config, str(tmp_path / "out")) == "[]"
