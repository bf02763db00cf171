"""Helpers shared by several test modules; pytest collects nothing here."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import stablecurves


def stirling_4(n):
    """Stirling partition number S(n, 4) by the standard recurrence."""
    row = {(0, 0): 1}
    for m in range(1, n + 1):
        for k in range(0, 5):
            row[(m, k)] = k * row.get((m - 1, k), 0) + row.get((m - 1, k - 1), 0)
    return row[(n, 4)]


def python_env():
    src = str(Path(stablecurves.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=python_env(), timeout=120
    )
