"""Command line behavior: literals, envelopes, formats, exit codes."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import stablecurves
from stablecurves import (
    DistinguishedPartition,
    LabelSet,
    TwoPartition,
    __version__,
    compatible,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
    forget_and_stabilize,
    signature,
    tree_from_signature,
)
from stablecurves.cli import (
    ENV_MAX_N,
    main,
    parse_distinguished,
    parse_forget_set,
    parse_two_partition,
)


EXPECTED = Path(__file__).parent / "expected"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------ envelopes


def test_envelope_shape_and_version(capsys):
    payload = run_json(capsys, "pair", "--sigma", "12|3456", "--pi", "1|2|3|456")
    assert set(payload) == {"command", "parameters", "result", "version"}
    assert payload["command"] == "pair"
    assert payload["version"] == __version__
    assert payload["parameters"]["sigma"] == "12|3456"


def test_output_is_byte_deterministic(capsys):
    args = ("census", "--n", "6")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    args = ("matrix", "--n", "5", "--action", "emit", "--format", "tsv")
    assert run(capsys, *args) == run(capsys, *args)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "census", "--n", "5", "--output", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["result"]["totals"] == {"classes": 10, "curves": 10}


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
    code, out, err = run(
        capsys, "pair", "--sigma", "12|3456", "--pi", "1|2|3|456", "--output", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"stablecurves: cannot write {target}: ")
    assert "Traceback" not in err


# --------------------------------------------------------------- census


def test_census_json_n6(capsys):
    payload = run_json(capsys, "census", "--n", "6")
    result = payload["result"]
    assert result["totals"] == {"classes": 65, "curves": 105}
    assert [t["curve_count"] for t in result["types"]] == [60, 45]
    assert [t["minus_k"] for t in result["types"]] == [1, 0]
    shapes = [tuple(c["shape"]) for c in result["classes"]]
    assert shapes == [(3, 1, 1, 1), (2, 2, 1, 1)]
    assert [c["class_count"] for c in result["classes"]] == [20, 45]


def test_census_table_n6(capsys):
    code, out, _ = run(capsys, "census", "--n", "6", "--format", "table")
    assert code == 0
    assert "60" in out and "45" in out
    assert "3+1+1+1" in out and "2+2+1+1" in out


def test_census_tsv_has_header_and_total(capsys):
    code, out, _ = run(capsys, "census", "--n", "5", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t")[0] == "kind"
    assert lines[-1].startswith("total\t")
    assert "\t10\t" in lines[-1]


@pytest.mark.parametrize("fmt", ["json", "tsv", "table"])
def test_census_n7_text_is_pinned(capsys, monkeypatch, fmt):
    monkeypatch.delenv(ENV_MAX_N, raising=False)  # the envelope records the bound
    code, out, _ = run(capsys, "census", "--n", "7", "--format", fmt)
    assert code == 0
    assert out.encode() == (EXPECTED / f"census-n7.{fmt}").read_bytes()


def test_census_rejects_small_n(capsys):
    code, _, err = run(capsys, "census", "--n", "3")
    assert code == 2
    assert "at least 4" in err


def test_census_respects_env_bound(capsys, monkeypatch):
    monkeypatch.setenv(ENV_MAX_N, "5")
    code, _, err = run(capsys, "census", "--n", "6")
    assert code == 2
    assert "exceeds the bound" in err
    monkeypatch.setenv(ENV_MAX_N, "6")
    code, _, _ = run(capsys, "census", "--n", "6")
    assert code == 0
    monkeypatch.setenv(ENV_MAX_N, "not-a-number")
    code, _, err = run(capsys, "census", "--n", "6")
    assert code == 2


def test_census_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv(ENV_MAX_N, "5")
    code, _, _ = run(capsys, "census", "--n", "6", "--max-n", "6")
    assert code == 0


# ----------------------------------------------------------------- pair


def test_pair_n_member(capsys):
    payload = run_json(capsys, "pair", "--sigma", "456|123", "--pi", "1|2|3|456")
    assert payload["result"] == {"classification": "N-member", "pairing": -1}


def test_pair_p_member(capsys):
    payload = run_json(capsys, "pair", "--sigma", "1456|23", "--pi", "1|2|3|456")
    assert payload["result"] == {"classification": "P-member", "pairing": 1}


def test_pair_p_member_block_pairing_literal(capsys):
    # 13|2456 pairs blocks {1},{3} against {2},{456}, a P-member.
    payload = run_json(capsys, "pair", "--sigma", "13|2456", "--pi", "1|2|3|456")
    assert payload["result"] == {"classification": "P-member", "pairing": 1}


def test_pair_neither(capsys):
    payload = run_json(capsys, "pair", "--sigma", "14|2356", "--pi", "1|2|3|456")
    assert payload["result"] == {"classification": "neither", "pairing": 0}


def test_pair_label_mismatch_is_invariant_error(capsys):
    code, _, err = run(capsys, "pair", "--sigma", "12|345", "--pi", "1|2|3|456")
    assert code == 3
    assert "same labels" in err


def test_pair_parse_error(capsys):
    code, _, err = run(capsys, "pair", "--sigma", "12|", "--pi", "1|2|3|456")
    assert code == 2
    assert "empty block" in err


def test_pair_unstable_sigma_is_invariant_error(capsys):
    code, _, err = run(capsys, "pair", "--sigma", "1|23456", "--pi", "1|2|3|456")
    assert code == 3


# -------------------------------------------------------------- minus-k


def test_minus_k_both_routes_agree(capsys):
    payload = run_json(capsys, "minus-k", "--pi", "1|2|3|456")
    assert payload["result"] == {"closed": 1, "equal": True, "expanded": 1}


def test_minus_k_closed_only_n4(capsys):
    payload = run_json(capsys, "minus-k", "--pi", "1|2|3|4", "--route", "closed")
    assert payload["result"] == {"closed": 2}


def test_minus_k_expanded_rejects_n4(capsys):
    code, _, _ = run(capsys, "minus-k", "--pi", "1|2|3|4", "--route", "expanded")
    assert code == 3


def test_minus_k_negative_degree(capsys):
    payload = run_json(capsys, "minus-k", "--pi", "1|23|45|67")
    assert payload["result"]["closed"] == -1


def test_minus_k_comma_literal(capsys):
    payload = run_json(capsys, "minus-k", "--pi", "1,2|3|4|5,6", "--route", "closed")
    assert payload["result"] == {"closed": 0}


def test_minus_k_multi_digit_singletons(capsys):
    payload = run_json(capsys, "minus-k", "--pi", "1,2,3,4,5,6,7|8|9|10")
    assert payload["result"] == {"closed": 1, "equal": True, "expanded": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ("minus-k", "--pi", "1|2|3|4 5"),
        ("minus-k", "--pi", "1,2|3|4|5 6,7"),
        ("tree", "--action", "validate", "--tree", "[1 2];[34];[56]/0-1,1-2"),
        ("tree", "--action", "validate", "--tree", "[1,2];[3,4 5];[6,7]/0-1,1-2"),
        ("tree", "--action", "forget", "--tree", "[a,b];[c,d];[e,f]/0-1,1-2", "--forget-set", "c d"),
    ],
)
def test_whitespace_inside_a_label_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "holds whitespace" in err


def test_spaces_around_comma_separated_labels_are_stripped(capsys):
    payload = run_json(capsys, "minus-k", "--pi", " 1 , 2 | 3 |4| 5,6 ", "--route", "closed")
    assert payload["result"] == {"closed": 0}
    payload = run_json(
        capsys, "tree", "--action", "forget", "--tree", "[ a, b ];[c ,d];[e,f]/0-1,1-2",
        "--forget-set", " c , d ",
    )
    assert payload["result"]["tree"]["vertices"] == [["a", "b"], ["e", "f"]]


def test_partition_literals_round_trip_at_two_digit_labels():
    rng = random.Random(10)
    for n in (10, 11, 12):
        s = LabelSet.numbered(n)
        top = list(range(1, n - 2))
        classes = [DistinguishedPartition.of(s, [top, [n - 2], [n - 1], [n]])]
        divisors = [TwoPartition.of(s, [n - 1, n])]
        for _ in range(100):
            labels = list(s.labels)
            rng.shuffle(labels)
            cuts = sorted(rng.sample(range(1, n), 3))
            blocks = [labels[a:b] for a, b in zip([0] + cuts, cuts + [n])]
            classes.append(DistinguishedPartition.of(s, blocks))
            divisors.append(TwoPartition.of(s, labels[: rng.randrange(2, n - 1)]))
        for pi in classes:
            assert parse_distinguished(pi.literal()) == pi, pi.literal()
        for sigma in divisors:
            assert parse_two_partition(sigma.literal()) == sigma, sigma.literal()


@pytest.mark.parametrize(
    "labels",
    [["ab", "cd", "ef", "gh"], range(10, 14), range(1, 5), "abcde", range(8, 13), ["x1", "y", "zz", "w", "v"]],
    ids=["ab-gh", "10-13", "1-4", "a-e", "8-12", "x1-v"],
)
def test_every_partition_literal_reads_back(labels):
    s = LabelSet.of(labels)
    for pi in enumerate_distinguished(s):
        assert parse_distinguished(pi.literal()) == pi, pi.literal()
    for sigma in enumerate_stable_two_partitions(s):
        assert parse_two_partition(sigma.literal()) == sigma, sigma.literal()


def test_one_label_blocks_of_long_labels_end_in_a_comma(capsys):
    pi = DistinguishedPartition.of(LabelSet.of(["ab", "cd", "ef", "gh"]), [["ab"], ["cd"], ["ef"], ["gh"]])
    assert pi.literal() == "ab|cd|ef|gh,"
    payload = run_json(capsys, "tree", "--action", "pi", "--tree", "[10,11,12,13]")
    assert payload["result"]["pi"] == "10|11|12|13,"
    payload = run_json(capsys, "minus-k", "--pi", "10|11|12|13,", "--route", "closed")
    assert payload["result"] == {"closed": 2}


def tree_literal(t):
    vertices = ";".join(
        "[" + ",".join(str(x) for x in t.tails_at(v)) + "]" for v in range(t.n_vertices)
    )
    edges = ",".join(f"{i}-{j}" for i, j in t.edges)
    return f"{vertices}/{edges}" if edges else vertices


def test_tree_and_forget_literals_round_trip_at_two_digit_labels(capsys):
    rng = random.Random(11)
    for n in (10, 11, 12):
        s = LabelSet.numbered(n)
        divisors = list(enumerate_stable_two_partitions(s))
        for _ in range(15):
            rng.shuffle(divisors)
            cuts: list = []
            for sigma in divisors[: rng.randrange(len(divisors))]:
                if len(cuts) < n - 3 and all(compatible(sigma, c) for c in cuts):
                    cuts.append(sigma)
            t = tree_from_signature(cuts, s)
            literal = tree_literal(t)
            payload = run_json(capsys, "tree", "--action", "signature", "--tree", literal)
            assert payload["result"]["signature"] == [p.literal() for p in signature(t).partitions]
            q = rng.sample(s.labels, rng.randint(1, n - 3))
            text = ",".join(str(x) for x in q)
            assert parse_forget_set(text, s) == q
            payload = run_json(
                capsys, "tree", "--action", "forget", "--tree", literal, "--forget-set", text
            )
            reduced = forget_and_stabilize(t, q)
            assert payload["result"]["labels"] == list(reduced.label_set.labels)
            assert payload["result"]["tree"] == {
                "vertices": [list(reduced.tails_at(v)) for v in range(reduced.n_vertices)],
                "edges": [list(e) for e in reduced.edges],
            }
        for label in s.labels:
            assert parse_forget_set(str(label), s) == [label]


def test_forget_set_without_commas_is_per_character_for_one_digit_labels():
    assert parse_forget_set("12", LabelSet.numbered(6)) == [1, 2]
    assert parse_forget_set("ce", LabelSet.of("abcdef")) == ["c", "e"]
    assert parse_forget_set("", LabelSet.numbered(10)) == []


# --------------------------------------------------------------- matrix


def test_matrix_rank_n5(capsys):
    payload = run_json(capsys, "matrix", "--n", "5")
    assert payload["result"] == {
        "cols": 10,
        "picard_rank": 5,
        "rank": 5,
        "rows": 10,
        "verdict": "equal",
    }


def test_matrix_rank_n10_is_sparse(capsys):
    # The dense route needs a 501 x 34,105 table; the certified one none.
    payload = run_json(capsys, "matrix", "--n", "10", "--action", "rank")
    assert payload["result"] == {
        "cols": 34105,
        "picard_rank": 466,
        "rank": 466,
        "rows": 501,
        "verdict": "equal",
    }


def test_matrix_emit_tsv(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "5", "--action", "emit", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11
    assert lines[0].split("\t")[1:] == ["2+1+1+1"] * 10


def test_matrix_emit_json(capsys):
    payload = run_json(capsys, "matrix", "--n", "5", "--action", "emit")
    result = payload["result"]
    assert len(result["row_keys"]) == 10
    assert len(result["entries"]) == 10
    assert result["col_shapes"][0] == "2+1+1+1"


def test_matrix_rank_refuses_tsv(capsys):
    code, out, err = run(capsys, "matrix", "--n", "5", "--action", "rank", "--format", "tsv")
    assert (code, out) == (2, "")
    assert err == "stablecurves: --format tsv applies to --action emit only\n"
    explicit = run(capsys, "matrix", "--n", "5", "--action", "rank", "--format", "json")
    assert explicit == run(capsys, "matrix", "--n", "5", "--action", "rank")


def test_matrix_rejects_n4(capsys):
    code, _, err = run(capsys, "matrix", "--n", "4")
    assert code == 2
    assert "at least 5" in err


# ----------------------------------------------------------------- tree


def test_tree_validate_ok(capsys):
    payload = run_json(capsys, "tree", "--action", "validate", "--tree", "[1,2];[3];[4,5]/0-1,1-2")
    assert payload["result"] == {"valid": True, "violations": []}


def test_tree_validate_reports_all_violations(capsys):
    code, out, _ = run(capsys, "tree", "--action", "validate", "--tree", "[1];[2,3,4]/0-1")
    assert code == 3
    payload = json.loads(out)
    assert payload["result"]["valid"] is False
    assert any("unstable" in v for v in payload["result"]["violations"])


def test_tree_validate_duplicate_label(capsys):
    code, out, _ = run(capsys, "tree", "--action", "validate", "--tree", "[1,2,3];[3,4,5]/0-1")
    assert code == 3
    payload = json.loads(out)
    assert any("more than once" in v for v in payload["result"]["violations"])


def test_tree_signature(capsys):
    payload = run_json(capsys, "tree", "--action", "signature", "--tree", "[1,2];[3];[4,5]/0-1,1-2")
    assert payload["result"] == {"codimension": 2, "signature": ["123|45", "12|345"]}


def test_tree_contract(capsys):
    payload = run_json(
        capsys, "tree", "--action", "contract", "--tree", "[1,2];[3];[4,5]/0-1,1-2",
        "--edge", "1-2",
    )
    tree = payload["result"]["tree"]
    assert tree["vertices"] == [[1, 2], [3, 4, 5]]
    assert tree["edges"] == [[0, 1]]


def test_tree_contract_requires_edge_flag(capsys):
    code, _, err = run(capsys, "tree", "--action", "contract", "--tree", "[1,2];[3];[4,5]/0-1,1-2")
    assert code == 2
    assert "--edge" in err


def test_tree_contract_unknown_edge(capsys):
    code, _, err = run(
        capsys, "tree", "--action", "contract", "--tree", "[1,2];[3];[4,5]/0-1,1-2",
        "--edge", "0-2",
    )
    assert code == 3
    assert "unknown edge" in err


def test_tree_forget(capsys):
    payload = run_json(
        capsys, "tree", "--action", "forget", "--tree", "[1,2];[3,4,5]/0-1",
        "--forget-set", "1",
    )
    assert payload["result"]["tree"] == {"vertices": [[2, 3, 4, 5]], "edges": []}
    assert payload["result"]["labels"] == [2, 3, 4, 5]


def test_tree_forget_letters(capsys):
    payload = run_json(
        capsys, "tree", "--action", "forget", "--tree", "[a,b];[c,d];[e,f]/0-1,1-2",
        "--forget-set", "c,d",
    )
    assert payload["result"]["tree"]["vertices"] == [["a", "b"], ["e", "f"]]


def test_tree_pi(capsys):
    payload = run_json(capsys, "tree", "--action", "pi", "--tree", "[a,b,c];[d];[e,f]/0-1,1-2")
    assert payload["result"]["pi"] == "a|b|c|def"
    assert payload["result"]["shape"] == [3, 1, 1, 1]


def test_tree_pi_rejects_non_curve_tree(capsys):
    code, _, err = run(capsys, "tree", "--action", "pi", "--tree", "[1,2,3,4,5]")
    assert code == 3
    assert "not a curve tree" in err


def test_tree_parse_error_on_missing_bracket(capsys):
    code, _, err = run(capsys, "tree", "--action", "signature", "--tree", "1,2;[3,4,5]/0-1")
    assert code == 2
    assert "bracketed" in err


def test_tree_parse_error_on_bad_edge(capsys):
    code, _, err = run(capsys, "tree", "--action", "signature", "--tree", "[1,2];[3,4,5]/0:1")
    assert code == 2


def test_usage_error_without_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_choice_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "5", "--format", "xml"])
    assert exc.value.code == 2


# ------------------------------------------------- checks under python -O


def run_python(*args):
    src = str(Path(stablecurves.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


def test_census_output_unchanged_under_optimize():
    plain = run_python("-m", "stablecurves", "census", "--n", "6")
    optimized = run_python("-O", "-m", "stablecurves", "census", "--n", "6")
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout


def test_census_cross_check_fails_under_optimize():
    script = (
        "import itertools, sys\n"
        "from stablecurves import census, cli\n"
        "degrees = itertools.count()\n"
        "census.minus_k_closed = lambda pi: next(degrees)\n"
        "sys.exit(cli.main(['census', '--n', '6']))\n"
    )
    done = run_python("-O", "-c", script)
    assert done.returncode == 4, done.stderr
    assert b"type mixes degrees" in done.stderr


def test_cli_import_loads_no_introspection_modules():
    # Start-up is most of the latency of a small command; these are the
    # modules ``dataclasses`` and ``fractions`` pull in.
    code = "import sys; seen = set(sys.modules); import stablecurves.cli; print(*set(sys.modules) - seen)"
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.decode().split())
    assert "stablecurves.cli" in loaded
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "numbers"}
    assert not loaded & heavy
