"""Project metadata names only files and entry points that exist."""

import importlib
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
