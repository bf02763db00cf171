"""Peak resident set size of the running program alone.

On Linux a process inherits its parent's peak in ``ru_maxrss`` through
fork and exec, so ``wait4`` reports at least the benchmark's own size for
every child.  ``VmHWM`` in ``/proc/self/status`` belongs to the program
that exec started.  Run as a script, this module is ``python -m
stablecurves ARGS`` that writes that peak, in KiB, to PEAK_FILE at exit::

    python3 bench/peak.py PEAK_FILE ARGS...
"""

from __future__ import annotations

import atexit
import runpy
import sys


def own_peak_kib() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def _record(path: str) -> None:
    with open(path, "w") as out:
        out.write(str(own_peak_kib()))


if __name__ == "__main__":
    atexit.register(_record, sys.argv[1])
    sys.argv = ["stablecurves", *sys.argv[2:]]
    runpy.run_module("stablecurves", run_name="__main__", alter_sys=True)
