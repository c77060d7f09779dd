"""Import cost: numpy is loaded only when the Monte Carlo runs, dataclasses
never.

Every subcommand but ``simulate`` starts from ``import bellcal.cli``, so a
numpy import anywhere on that path costs each call most of its start-up time.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bellcal

PACKAGE_ROOT = str(Path(bellcal.__file__).resolve().parent.parent)
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH")))),
}


def run_child(code, cwd):
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=CHILD_ENV,
        timeout=120,
    )


def test_package_import_leaves_numpy_unloaded(tmp_path):
    result = run_child(
        """
        import sys
        import bellcal
        assert "numpy" not in sys.modules, "import bellcal"
        import bellcal.cli
        assert "numpy" not in sys.modules, "import bellcal.cli"
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr


def test_numpy_free_subcommands(tmp_path):
    result = run_child(
        """
        import sys
        from bellcal.cli import main
        report = "calibration_report.json"
        for argv in (
            ["calibrate", "--format", "json"],
            ["predict", "--report", report, "--rates", "1000,5000"],
            ["predict", "--report", report, "--lambdas", "0.01,0.1"],
            ["extrapolate", "--report", report, "--targets", "2.0,2.5,2.7"],
            ["sweep", "--report", report, "--steps", "50", "--format", "csv"],
        ):
            assert main(argv) == 0, argv
            assert "numpy" not in sys.modules, argv
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr


def test_no_dataclasses_on_any_path(tmp_path):
    # the records are plain classes: dataclasses (and the inspect, ast, dis
    # and tokenize it imports) would cost every CLI call its start-up time
    result = run_child(
        """
        import sys
        if "dataclasses" in sys.modules:
            print("preloaded")
            raise SystemExit
        from bellcal.cli import main
        report = "calibration_report.json"
        for argv in (
            ["calibrate", "--format", "json"],
            ["predict", "--report", report, "--lambdas", "0.01,0.1"],
            ["extrapolate", "--report", report, "--targets", "2.0,2.5"],
            ["sweep", "--report", report, "--steps", "5"],
        ):
            assert main(argv) == 0, argv
            assert "dataclasses" not in sys.modules, argv
        import bellcal.montecarlo
        assert "dataclasses" not in sys.modules, "import bellcal.montecarlo"
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    if result.stdout.strip() == "preloaded":
        pytest.skip("the interpreter loads dataclasses before bellcal is imported")


def test_only_montecarlo_imports_numpy():
    # a static check: an import under TYPE_CHECKING or inside a function
    # never runs in the tests above, but is still a numpy dependency
    offenders = []
    for path in sorted(Path(bellcal.__file__).parent.glob("*.py")):
        if path.name == "montecarlo.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_simulate_still_runs(tmp_path):
    result = run_child(
        """
        import sys
        from bellcal.cli import main
        code = main(["simulate", "--eta", "0.1134", "--lambda", "0.0849", "--pulses", "20000"])
        assert code == 0, code
        assert "numpy" in sys.modules
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr


def test_star_import_binds_all():
    namespace = {}
    exec("from bellcal import *", namespace)
    assert set(bellcal.__all__) <= set(namespace)
    for name in bellcal.__all__:
        assert namespace[name] is getattr(bellcal, name)


def test_dir_lists_all():
    assert set(bellcal.__all__) <= set(dir(bellcal))


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(bellcal, "no_such_name")
