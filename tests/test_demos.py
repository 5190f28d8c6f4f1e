"""Every walkthrough in demos/ runs to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
# the end-to-end efficiency study takes a few seconds
SLOW = {"04_efficiency_table.py"}


@pytest.mark.parametrize(
    "demo",
    [pytest.param(d, id=d.name, marks=[pytest.mark.slow] if d.name in SLOW else [])
     for d in DEMOS],
)
def test_demo_exits_0(demo, tmp_path):
    # run a copy, so that files a demo writes next to itself land in tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(script)], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert DEMOS, "no demos/0*.py found"
