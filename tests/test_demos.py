"""Every demo script runs to completion; their own asserts are the checks."""

import glob
import os
import subprocess
import sys

import pytest

import hybridte as ht

DEMO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos")
DEMOS = sorted(glob.glob(os.path.join(DEMO_DIR, "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    # As in acceptance criterion 7: the child gets the absolute source root of
    # the package this process imported, ahead of any inherited entries.
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(ht.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, demo], capture_output=True, text=True,
                          cwd=str(tmp_path), env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
