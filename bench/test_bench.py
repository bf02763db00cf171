"""Self-test of the benchmark at small sizes; takes a few seconds.

    python3 -m pytest -q bench

Runs census n = 6, rank n = 6 and 200 queries through the runner, both
untraced and traced, and checks that the output checks reject wrong
answers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import oracle
import querygen
import run
import spans

QUERY_DIGEST_SEED1_200 = "8dff5273cbf622995c03ccde6026e719eacad0036d80e133f1de34fd7a79ea8d"


def test_closed_forms():
    assert [oracle.stirling4(n) for n in (4, 5, 6, 9)] == [1, 10, 65, 7770]
    assert oracle.total_curves(6) == 105
    assert oracle.total_curves(9) == 270270
    assert oracle.divisor_count(8) == 119 == 2**7 - 9
    assert oracle.picard_rank(8) == 99
    for n in range(4, 12):
        assert sum(oracle.classes_of_shape(n, s) for s in oracle.shapes(n)) == oracle.stirling4(n)


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_census_runner_and_trace():
    wl = run.census_workload(6)
    plain = run.run_workload(wl, seed=1, seconds=0, trace=False)
    assert plain.correct and plain.attempted == 1 + run.SETUP_REPEATS
    printed = {"wall_s", "cpu_s", "ops_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb",
               "setup_s", "setup_wall_s"}
    assert set(plain.metrics) == printed >= {name for name, _ in run.END_TO_END}
    line = json.loads(plain.line({name for name, _ in run.END_TO_END}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {name for name, _ in run.END_TO_END}
    traced = run.run_workload(wl, seed=1, seconds=0, trace=True)
    assert traced.correct and traced.attempted == 2
    m = {k: v for k, (v, _u, _n) in traced.metrics.items()}
    assert set(m) == {name for name, _, _ in spans.PER_LAYER}
    assert m["trees.enumerate_curve_trees.items"] == 105
    assert m["trees.pi_of_tree.calls"] == m["trees.unlabeled_type_key.calls"] == 105
    assert m["partitions.enumerate_distinguished.items"] == 65
    assert m["trees.unlabeled_type_key.distinct"] == 2
    assert 0 < m["census.self_s"] and 0 < m["cli.self_s"]


def test_rank_runner_and_trace():
    wl = run.rank_workload(6)
    assert run.run_workload(wl, seed=1, seconds=0, trace=False).correct
    traced = run.run_workload(wl, seed=1, seconds=0, trace=True)
    m = {k: v for k, (v, _u, _n) in traced.metrics.items()}
    assert traced.correct
    assert m["intersect.intersection_matrix.cells"] == 25 * 65
    assert m["intersect.matrix_rank.rank"] == oracle.picard_rank(6) == 16
    assert m["partitions.enumerate_stable_two_partitions.items"] == 25


def test_queries_runner_and_trace():
    wl = run.QueryWorkload("queries", 200)
    plain = run.run_workload(wl, seed=1, seconds=0.2, trace=False)
    assert plain.correct and plain.attempted >= 400 + run.SETUP_REPEATS
    assert plain.notes["digest"] == QUERY_DIGEST_SEED1_200
    traced = run.run_workload(wl, seed=1, seconds=0.2, trace=True)
    m = {k: v for k, (v, _u, _n) in traced.metrics.items()}
    assert traced.correct and traced.notes["digest"] == QUERY_DIGEST_SEED1_200
    for call in ("make_tree", "signature", "contract_edge", "forget_and_stabilize"):
        assert m[f"trees.{call}.calls"] == 200
    curves = sum(1 for r in querygen.make_requests(1, 200) if r.curve_blocks is not None)
    assert m["trees.pi_of_tree.calls"] == curves > 0


def test_requests_repeat_per_seed():
    assert querygen.make_requests(7, 50) == querygen.make_requests(7, 50)
    assert querygen.make_requests(7, 50) != querygen.make_requests(8, 50)


def test_checks_reject_wrong_output():
    good = oracle.expected_output("census-n6.json")
    assert oracle.check_census(good, 6, good) == []
    bad = good.replace(b'"classes": 65', b'"classes": 64')
    assert bad != good and oracle.check_census(bad, 6, good)
    assert oracle.check_census(b"not json", 6, None)
    rank = {"result": {"rows": 25, "cols": 65, "rank": 16, "picard_rank": 16, "verdict": "equal"}}
    assert oracle.check_rank(json.dumps(rank).encode(), 6) == []
    rank["result"]["rank"] = 15
    assert oracle.check_rank(json.dumps(rank).encode(), 6)

    sys.path.insert(0, str(run.SRC))
    import worker
    from stablecurves import LabelSet, signature

    req = querygen.make_requests(3, 1)[0]
    answer = querygen.serve(worker.query_api(None), LabelSet.numbered(req.n), req)
    assert querygen.full_check(req, answer, signature) == []
    wrong = replace(req, pairing=req.pairing + 1)
    assert not querygen.quick_check(wrong, answer)


def test_refuses_checkout_without_source():
    # The copy lives inside the checkout, next to the other outputs.
    run.OUT.mkdir(exist_ok=True)
    copy = run.OUT / "selftest-bare"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(run.BENCH, copy / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", copy)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "rank-n8", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=copy, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
