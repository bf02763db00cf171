"""Every demo script runs to completion and prints its walkthrough."""

from __future__ import annotations

from pathlib import Path

import pytest

from _support import run_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    done = run_python(str(demo))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
