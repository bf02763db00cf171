"""Child process of the benchmark: a traced CLI run, or the query stream.

    python3 bench/worker.py cli SPANS_FILE -- census --n 9
    python3 bench/worker.py queries --seed 1 --seconds 20 --requests 5000 [--trace SPANS_FILE]

``cli`` runs the command line in this process with every layer boundary
spanned, then writes the spans.  ``queries`` generates the seeded request
stream, checks one pass of answers against the oracle, then times passes
over the stream until the time is up; with ``--trace`` it alternates plain
and traced passes.  Its summary is the last line of standard output.
The package is imported from ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import time
import traceback
from array import array
from types import SimpleNamespace

import peak
import querygen
import spans


def run_cli(spans_path: str, argv: list[str]) -> int:
    import stablecurves.cli

    tracer = spans.Tracer()
    spans.install_cli(tracer)
    main = tracer.wrap("cli.main", stablecurves.cli.main)
    tracer.watch_gc(True)
    try:
        code = main(argv)
    finally:
        tracer.watch_gc(False)
    sys.stdout.flush()
    spans.dump(tracer.snapshot(), spans_path)
    return code


def query_api(tracer: spans.Tracer | None) -> SimpleNamespace:
    """The library calls of one query, spanned when ``tracer`` is given."""
    import stablecurves

    fns = {attr: getattr(stablecurves, attr) for attr in spans.QUERY_CALLS}
    fns["DistinguishedPartition_of"] = stablecurves.DistinguishedPartition.of
    fns["TwoPartition_of"] = stablecurves.TwoPartition.of
    if tracer is not None:
        for attr, fn in fns.items():
            name = spans.QUERY_CALLS.get(attr, spans.CONSTRUCT)
            fns[attr] = tracer.wrap(name, fn, spans.QUERY_HOOKS.get(name))
    return SimpleNamespace(**fns)


def _report(req_no: int, problems: list[str]) -> None:
    print(f"queries: request {req_no}: {'; '.join(problems)}", file=sys.stderr)


def check_pass(requests, label_sets, api) -> tuple[int, str]:
    """Full oracle comparison of every answer; returns (failed, digest)."""
    from stablecurves import signature

    digest = hashlib.sha256()
    failed = 0
    for i, req in enumerate(requests):
        try:
            answer = querygen.serve(api, label_sets[req.n], req)
            problems = querygen.full_check(req, answer, signature)
            digest.update(repr(querygen.answer_record(answer)).encode())
        except Exception as exc:  # every request failure is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        if problems:
            failed += 1
            if failed <= 5:
                _report(i, problems)
    return failed, digest.hexdigest()


def timed_pass(requests, label_sets, api, latencies: array, tracer=None, seq: int = 0):
    """One closed-loop pass; returns (service seconds, failed requests).

    ``latencies`` receives the latency of every request of the pass.
    """
    clock = time.perf_counter
    serve, quick_check = querygen.serve, querygen.quick_check
    service = 0.0
    failed = 0
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.run_id = seq + i
        s = label_sets[req.n]
        t0 = clock()
        try:
            answer = serve(api, s, req)
        except Exception:  # counted as a failed request
            t1 = clock()
            ok = False
        else:
            t1 = clock()
            ok = quick_check(req, answer)
        latencies.append(t1 - t0)
        service += t1 - t0
        if not ok:
            failed += 1
            if failed <= 5:
                _report(i, ["answer differs from the oracle"])
    return service, failed


def run_queries(seed: int, seconds: float, count: int, spans_path: str | None) -> dict:
    import stablecurves
    from stablecurves import partitions

    requests = querygen.make_requests(seed, count)
    label_sets = {
        n: stablecurves.LabelSet.numbered(n)
        for n in range(querygen.N_MIN, querygen.N_MAX + 1)
    }
    plain = query_api(None)
    failed, digest = check_pass(requests, label_sets, plain)
    attempted = len(requests)
    # The benchmark's own inputs stay out of the collector's scans, so the
    # timed passes pay only for the garbage the package makes.
    gc.collect()
    gc.freeze()

    tracer = spans.Tracer() if spans_path else None
    traced_api = query_api(tracer) if tracer else None
    # Latency quantiles are taken per pass, so the worker's memory, and its
    # peak RSS, does not grow with the number of passes a run fits in.
    p50s: list[float] = []
    p99s: list[float] = []
    plain_passes: list[float] = []
    plain_cpu: list[float] = []
    traced_passes: list[float] = []
    units: list[dict] = []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or not plain_passes or (
        tracer is not None and not traced_passes
    ):
        trace_this = tracer is not None and len(traced_passes) < len(plain_passes)
        if not trace_this:
            latencies = array("d")
            cpu0 = time.process_time()
            service, bad = timed_pass(requests, label_sets, plain, latencies)
            plain_cpu.append(time.process_time() - cpu0)
            plain_passes.append(service)
            p50s.append(statistics.median(latencies))
            p99s.append(statistics.quantiles(latencies, n=100)[98])
        else:
            tracer.reset_counts()
            lo = len(tracer.start)
            tracer.patch_construction(partitions)
            tracer.watch_gc(True)
            try:
                service, bad = timed_pass(
                    requests, label_sets, traced_api, array("d"), tracer, attempted
                )
            finally:
                tracer.watch_gc(False)
                tracer.unpatch()
            traced_passes.append(service)
            snap = tracer.snapshot()
            totals = spans.span_totals(snap, lo)
            units.append(spans.unit_metrics(snap, totals))
        attempted += len(requests)
        failed += bad

    summary = {
        "peak_rss_kib": peak.own_peak_kib(),
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "requests": len(requests) * len(plain_passes),
        "pass_s": plain_passes,
        "pass_cpu_s": plain_cpu,
        "ops_per_s": len(requests) * len(plain_passes) / sum(plain_passes),
        "op_p50_ms": 1000 * statistics.median(p50s),
        "op_p99_ms": 1000 * statistics.median(p99s),
    }
    if tracer is not None:
        per_layer = {m: statistics.median(u[m] for u in units) for m in units[0]}
        per_layer["trace.overhead_s"] = statistics.median(traced_passes) - statistics.median(
            plain_passes
        )
        summary["per_layer"] = per_layer
        summary["traced_passes"] = len(traced_passes)
        summary["spans"] = totals
        spans.dump(tracer.snapshot(), spans_path)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("spans")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    q = sub.add_parser("queries")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--seconds", type=float, required=True)
    q.add_argument("--requests", type=int, required=True)
    q.add_argument("--trace")
    args = parser.parse_args(argv)
    if args.mode == "cli":
        rest = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return run_cli(args.spans, rest)
    summary = run_queries(args.seed, args.seconds, args.requests, args.trace)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
