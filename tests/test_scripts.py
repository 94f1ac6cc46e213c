"""The experiment scripts start and print their usage."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ricci_fragility

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["acf_study.py", "crisis_demo.py", "xi_elasticity.py"])
def test_script_help_exits_zero(name):
    src = str(Path(ricci_fragility.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(SCRIPTS / name), "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
