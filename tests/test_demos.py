import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellcal

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# each demo runs in a temp cwd, so the package root goes in absolutely
PACKAGE_ROOT = str(Path(bellcal.__file__).resolve().parent.parent)
DEMO_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH")))),
}

# the Monte Carlo demo's whole output at its fixed seed (17): one pass of
# simulate_tally_and_chsh, from the tally through the CHSH setting counts
CROSS_CHECK_STDOUT = """\
eta = 0.1134, lambda = 0.0849, 2,000,000 pulses, seed 17

       tally  observed    expected      z
      single     33542     33600.6  -0.32
      double      2310      2326.7  -0.35
   entangled      2111      2144.3  -0.72

visibility: model 0.9216, empirical 0.9139 (-1.33 se)
CHSH: model 2.6066, empirical 2.5185 +- 0.0647 (-1.36 se)
settings sampled (572, 574, 565, 599)
"""


def run_demo(name, cwd):
    return subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=DEMO_ENV,
        timeout=120,
    )


@pytest.mark.parametrize(
    "name", ["calibrate_reference_dataset.py", "plan_an_experiment.py"]
)
def test_demo_runs(name, tmp_path):
    result = run_demo(name, tmp_path)
    assert result.returncode == 0, result.stderr


def test_cross_check_output_is_pinned(tmp_path):
    result = run_demo("cross_check_monte_carlo.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == CROSS_CHECK_STDOUT
