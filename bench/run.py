#!/usr/bin/env python3
"""Benchmark of the stablecurves package: census, rank and tree-query workloads.

One workload, as the last line of standard output a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 bench/run.py --workload census-n9 --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing off;
``--trace 1`` reports the per-layer metrics of a traced run and its
tracing overhead.  Every workload, untraced and then traced, with the
machine facts, optionally written to a file::

    python3 bench/run.py --all --seed 1 --seconds 20 --out bench/baseline.json

The package is imported from ``src/`` of the checkout that holds this
file; nothing needs installing.  See ``bench/README.md`` for the
workloads, the metrics and why they were chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import oracle
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = str(BENCH / "worker.py")
PEAK = str(BENCH / "peak.py")
PY = sys.executable

# End-to-end metrics of the JSON line, each with a bound in BENCHMARK.json.
# A run also prints wall_s, cpu_s, ops_per_s, op_p50_ms, op_p99_ms and
# setup_wall_s: the host's speed swings move them between sets of runs by
# more than the largest allowed bound, so they are read, not gated (see
# README.md).
END_TO_END = [
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]
SETUP_REPEATS = 21
QUERY_REQUESTS = 5000
# Each set-up probe is paired with a launch of a bare interpreter.  The
# host's speed moves both alike, so their ratio holds still where either
# alone swings by half; setup_s is that ratio times BARE_REF_S, the
# set-up time on a host whose bare interpreter starts in 50 ms.
BARE = [PY, "-c", "pass"]
BARE_REF_S = 0.05


@dataclass(frozen=True)
class CliWorkload:
    """One CLI command, run as a fresh interpreter per operation."""

    name: str
    args: tuple[str, ...]
    check: Callable[[bytes], list[str]]


@dataclass(frozen=True)
class QueryWorkload:
    """The seeded stream of single-object library calls."""

    name: str
    requests: int


def census_workload(n: int) -> CliWorkload:
    expected = oracle.expected_output(f"census-n{n}.json")
    return CliWorkload(
        f"census-n{n}",
        ("census", "--n", str(n)),
        lambda out: oracle.check_census(out, n, expected),
    )


def rank_workload(n: int) -> CliWorkload:
    return CliWorkload(
        f"rank-n{n}",
        ("matrix", "--n", str(n), "--action", "rank"),
        lambda out: oracle.check_rank(out, n),
    )


WORKLOADS = {
    wl.name: wl
    for wl in (census_workload(9), rank_workload(8), QueryWorkload("queries", QUERY_REQUESTS))
}


@dataclass
class Result:
    workload: str
    attempted: int = 0
    failed: int = 0
    # metric -> (value, unit, sample count)
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def line(self, names) -> str:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _n) in self.metrics.items()
                   if k in names}
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": metrics,
            }
        )


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class Child(NamedTuple):
    wall: float  # seconds from launch to exit
    cpu: float  # the child's own user plus system seconds
    out: bytes
    code: int


def run_process(argv: list[str]) -> Child:
    """Run one child to its end and reap it with ``wait4`` for its CPU time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, out, proc.returncode)


def warn(workload: str, problems: list[str]) -> None:
    print(f"{workload}: {'; '.join(problems)}", file=sys.stderr)


def p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def measure_setup(result: Result, argv: list[str], expect: bytes) -> None:
    """Time from launching an interpreter until the package takes input.

    Reported as ``setup_s``, scaled by the bare interpreter launched next
    to each probe (see BARE_REF_S), and as the raw median ``setup_wall_s``.
    """
    run_process(argv)  # writes bytecode caches on a fresh checkout
    run_process(BARE)
    ratios, walls = [], []
    for _ in range(SETUP_REPEATS):
        probe = run_process(argv)
        bare = run_process(BARE)
        ok = probe.code == 0 and probe.out.startswith(expect) and bare.code == 0
        result.record(ok)
        if not ok:
            warn(result.workload, [f"set-up probe exited {probe.code}, bare {bare.code}"])
        ratios.append(probe.wall / bare.wall)
        walls.append(probe.wall)
    n = len(walls)
    result.metrics["setup_s"] = (BARE_REF_S * statistics.median(ratios), "s", n)
    result.metrics["setup_wall_s"] = (statistics.median(walls), "s", n)


def cli_operation(result: Result, wl: CliWorkload, argv: list[str]) -> Child:
    """One checked CLI process."""
    child = run_process(argv)
    problems = wl.check(child.out) if child.code == 0 else [f"exit code {child.code}"]
    result.record(not problems)
    if problems:
        warn(wl.name, problems)
    return child


def read_peak_mib(result: Result, path: Path) -> list[float]:
    """The peak RSS ``peak.py`` recorded for the last CLI process, if any."""
    try:
        return [int(path.read_text()) / 1024]
    except (OSError, ValueError):
        result.failed += 1
        warn(result.workload, ["no peak RSS recorded"])
        return []


def run_cli(wl: CliWorkload, seconds: float, trace: bool) -> Result:
    result = Result(wl.name)
    if not trace:
        measure_setup(result, [PY, "-m", "stablecurves", "--version"], b"stablecurves ")
    OUT.mkdir(exist_ok=True)
    peak_path = OUT / f"peak-{wl.name}.txt"
    spans_path = OUT / f"spans-{wl.name}.pickle"
    plain = [PY, PEAK, str(peak_path), *wl.args]
    traced = [PY, WORKER, "cli", str(spans_path), "--", *wl.args]
    walls: list[float] = []
    cpus: list[float] = []
    rss: list[float] = []
    traced_walls: list[float] = []
    units: list[dict] = []
    begin = time.perf_counter()
    # Another operation starts only while it is expected to end in time.
    while True:
        step = time.perf_counter()
        peak_path.unlink(missing_ok=True)
        child = cli_operation(result, wl, plain)
        walls.append(child.wall)
        cpus.append(child.cpu)
        rss += read_peak_mib(result, peak_path)
        if trace:
            traced_walls.append(cli_operation(result, wl, traced).wall)
            data = spans.load(spans_path)
            result.notes["spans"] = spans.span_totals(data)
            units.append(spans.unit_metrics(data, result.notes["spans"]))
        now = time.perf_counter()
        if now - begin + (now - step) > seconds:
            break
    if trace:
        for metric, unit, _better in spans.PER_LAYER:
            if metric == "trace.overhead_s":
                value = statistics.median(traced_walls) - statistics.median(walls)
            else:
                value = statistics.median(u[metric] for u in units)
            result.metrics[metric] = (value, unit, len(units))
        return result
    n = len(walls)
    result.metrics.update(
        wall_s=(statistics.median(walls), "s", n),
        cpu_s=(statistics.median(cpus), "s", n),
        ops_per_s=(n / sum(walls), "1/s", n),
        op_p50_ms=(1000 * statistics.median(walls), "ms", n),
        op_p99_ms=(1000 * p99(walls), "ms", n),
        peak_rss_mb=(max(rss, default=0.0), "MiB", len(rss)),
    )
    return result


def run_queries(wl: QueryWorkload, seed: int, seconds: float, trace: bool) -> Result:
    result = Result(wl.name)
    if not trace:
        measure_setup(result, [PY, "-c", "import stablecurves; print('stablecurves ok')"],
                      b"stablecurves ok")
    argv = [PY, WORKER, "queries", "--seed", str(seed), "--seconds", str(seconds),
            "--requests", str(wl.requests)]
    if trace:
        OUT.mkdir(exist_ok=True)
        argv += ["--trace", str(OUT / f"spans-{wl.name}.pickle")]
    child = run_process(argv)
    try:
        summary = json.loads(child.out.splitlines()[-1])
    except (ValueError, IndexError):
        warn(wl.name, [f"worker exited {child.code} without a summary"])
        result.record(False)
        return result
    result.attempted += summary["attempted"]
    result.failed += summary["failed"] + (child.code != 0)
    result.notes["digest"] = summary["digest"]
    if trace:
        result.notes["spans"] = summary["spans"]
        units = summary["traced_passes"]
        for metric, unit, _better in spans.PER_LAYER:
            result.metrics[metric] = (summary["per_layer"][metric], unit, units)
        return result
    n = summary["requests"]
    result.metrics.update(
        wall_s=(statistics.median(summary["pass_s"]), "s", len(summary["pass_s"])),
        cpu_s=(statistics.median(summary["pass_cpu_s"]), "s", len(summary["pass_cpu_s"])),
        ops_per_s=(summary["ops_per_s"], "1/s", n),
        op_p50_ms=(summary["op_p50_ms"], "ms", n),
        op_p99_ms=(summary["op_p99_ms"], "ms", n),
        peak_rss_mb=(summary["peak_rss_kib"] / 1024, "MiB", 1),
    )
    return result


def run_workload(wl, seed: int, seconds: float, trace: bool) -> Result:
    if isinstance(wl, QueryWorkload):
        return run_queries(wl, seed, seconds, trace)
    return run_cli(wl, seconds, trace)


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int) -> dict:
    return {
        "seed": seed,
        "commit": commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def report(result: Result, meta: dict, trace: bool) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"# {result.workload}: {kind}  " + "  ".join(f"{k}={v}" for k, v in meta.items()))
    ratio = result.failed / result.attempted if result.attempted else float("nan")
    print(f"  {'fail_ratio':<48} {ratio:>14.6g} {'':<6} "
          f"({result.failed}/{result.attempted})")
    for name, (value, unit, n) in result.metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} n={n}")
    if "digest" in result.notes:
        print(f"  {'answer digest':<48} {result.notes['digest']}")
    for name, (total, calls, own) in sorted(result.notes.get("spans", {}).items()):
        print(f"  span {name:<43} {total:>10.4f} s total {own:>10.4f} s self  calls={calls}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the results and machine facts here (JSON)")
    args = parser.parse_args(argv)

    if not (SRC / "stablecurves" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2

    meta = machine(args.seed)
    if args.all:
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    record: dict = {"machine": meta, "seconds": args.seconds, "workloads": {}}
    results = []
    for name, trace in runs:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
        report(result, meta, trace)
        results.append(result)
        entry = record["workloads"].setdefault(name, {"attempted": 0, "failed": 0, "notes": {}})
        entry["attempted"] += result.attempted
        entry["failed"] += result.failed
        entry["notes"].update(result.notes)
        entry["per_layer" if trace else "end_to_end"] = {
            k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in result.metrics.items()
        }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.all:
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "workloads": sorted(record["workloads"])}))
    else:
        names = spans.PER_LAYER if args.trace else END_TO_END
        print(results[0].line({m[0] for m in names}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
