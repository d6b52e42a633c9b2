"""Every demo in demos/ runs to completion against the current API."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
