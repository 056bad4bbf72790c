"""Every demo script and README's Python examples run to completion; their
own asserts are the checks."""

import glob
import os
import re
import subprocess
import sys

import pytest

import hybridte as ht

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMO_DIR = os.path.join(REPO, "demos")
DEMOS = sorted(glob.glob(os.path.join(DEMO_DIR, "*.py")))


def run_python(args, cwd):
    # As in acceptance criterion 7: the child gets the absolute source root of
    # the package this process imported, ahead of any inherited entries.
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(ht.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=str(cwd), env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    run_python([demo], tmp_path)


def test_readme_examples_run():
    # README's paths are relative to the repository root, so they run from there.
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fp:
        blocks = re.findall(r"^```python\n(.*?)^```", fp.read(), re.S | re.M)
    assert len(blocks) >= 2
    run_python(["-c", "\n".join(blocks)], REPO)
