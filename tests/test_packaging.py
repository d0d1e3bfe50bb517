"""Project metadata names only files and entry points that exist."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def project_table() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_readme_exists():
    assert (ROOT / project_table()["readme"]).is_file()


def test_script_targets_import():
    for name, target in project_table().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_failing_property_reports_its_example(tmp_path):
    # Under the project's warning filters a failing @given test must fail
    # normally (exit 1) and show its falsifying example, not end in an
    # INTERNALERROR (exit 3) raised while the example is reported.
    pytest.importorskip("hypothesis")
    (tmp_path / "test_fails.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            @settings(database=None, derandomize=True)
            @given(st.integers())
            def test_fails(x):
                assert x < 0
            """
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout


PUBLIC_API = [
    "CoefficientLedger", "ConeParams", "CubatureResult", "DigitalGenerator",
    "DirectionTableError", "EvaluationError", "IndexRangeError", "IntervalEstimate",
    "LatticeGenerator", "LatticeVectorError", "LevelTooLowError", "PointBatch",
    "SolutionFunctional", "Tolerance", "TransformError", "ViolationReport",
    "build_ledger", "cone", "default_digital_generator", "default_lattice_generator",
    "engine", "error_bound", "fwht", "identity_functional", "integrate",
    "integrate_scalar", "lattice_dft", "ledger", "load_direction_numbers",
    "load_lattice_vector", "make_generator", "necessary_condition", "optimal_estimate",
    "randomize_digital", "randomize_lattice", "sequences", "sup_tolerance", "tier_sums",
]


def test_public_api_is_pinned_and_needs_no_test_code(tmp_path):
    # The test oracles live in tests/, so the package must neither export
    # them nor import anything from that directory.
    import qmcube

    assert sorted(qmcube.__all__) == PUBLIC_API
    script = textwrap.dedent(
        f"""
        import json, sys
        import qmcube, qmcube.integrands, qmcube.control_variates
        tests = {str(ROOT / "tests") + os.sep!r}
        print(json.dumps({{
            "package": qmcube.__file__,
            "from_tests": sorted(
                name for name, mod in sys.modules.items()
                if (getattr(mod, "__file__", None) or "").startswith(tests)
            ),
        }}))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert Path(loaded["package"]).is_relative_to(ROOT / "src")
    assert loaded["from_tests"] == []
