"""Command line behavior: literals, envelopes, formats, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import stablecurves
from stablecurves import (
    DistinguishedPartition,
    LabelSet,
    PartitionSetSignature,
    TwoPartition,
    __version__,
    compatible,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
    forget_and_stabilize,
    signature,
    tree_from_signature,
)
from stablecurves.cli import build_parser, main
from stablecurves.literals import parse_distinguished, parse_forget_set, parse_two_partition

from _support import python_env, run_python


EXPECTED = Path(__file__).parent / "expected"
PEAK = Path(__file__).parents[1] / "bench" / "peak.py"

# Development mode with warnings as errors, for each command launched alone.
DEV = ("-X", "dev", "-W", "error")


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


# The emitted pairing tables, pinned byte for byte.
EMIT_SHA256 = {
    (5, "json"): "45584a631af1c80e52ccea5bf6eee429189b9b46d7f2f469aa6c76de222c195d",
    (5, "tsv"): "5ff77693c1cc9c2bcd8a7808d9158ea509b0041c36373628691fc0f05b1f2d65",
    (6, "json"): "edecb53d294b0ac55ba708bc7993e798deeac13988b8e73b64bb709c947071a3",
    (6, "tsv"): "1d88a6b586cf310e9e70dfcbe6ab800712cd3669a5c2d4c2fcae3f3f5f857366",
    (7, "json"): "d835dd28ee4b0d4ea05d95ae411f5faef7996bec71cf183784712bb509db9497",
    (7, "tsv"): "f81a2cb62eb35bfeaf824d2a45736e9303b5c177a8b957f57e9dec4caa0f9a09",
}


@pytest.mark.parametrize("n, fmt", sorted(EMIT_SHA256))
def test_matrix_emit_bytes_are_pinned(capsys, tmp_path, n, fmt):
    argv = ("matrix", "--n", str(n), "--action", "emit", "--format", fmt)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == EMIT_SHA256[n, fmt]
    target = tmp_path / "emit"
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == out


def test_matrix_emit_streams_its_envelope(tmp_path):
    # The envelope is encoded chunk by chunk into the destination, so no
    # copy of the 2.3 MB text, nor a list copy of the table, is ever held.
    script = (
        "import json, sys, tracemalloc\n"
        "import stablecurves.cli, stablecurves.intersect\n"
        "tracemalloc.start()\n"
        "argv = ['matrix', '--n', '8', '--action', 'emit', '--output', sys.argv[1]]\n"
        "code = stablecurves.cli.main(argv)\n"
        "print(json.dumps([code, tracemalloc.get_traced_memory()[1]]))\n"
    )
    done = run_python("-c", script, str(tmp_path / "emit.json"))
    assert done.returncode == 0, done.stderr
    code, peak = json.loads(done.stdout)
    assert code == 0
    assert peak < 4 * 2**20


def test_closed_stdout_ends_the_command_quietly():
    # A reader that stops early, as ``| head`` does, ends the command with
    # its own exit code and nothing on stderr.
    done = subprocess.Popen(
        [sys.executable, *DEV, "-m", "stablecurves", "matrix", "--n", "8", "--action", "emit"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=python_env(),
    )
    assert done.stdout.read(16) == b'{\n  "command": "'
    done.stdout.close()
    assert done.stderr.read() == b""
    done.stderr.close()
    assert done.wait(timeout=120) == 0


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="bench/peak.py reads VmHWM there"
)
def test_matrix_emit_n9_peaks_under_64_mib(tmp_path):
    # The envelope is written in batches, never held whole as text.
    # Launched without development mode, whose debug allocator pads every block.
    peak = tmp_path / "peak"
    argv = ("matrix", "--n", "9", "--action", "emit")
    done = run_python(str(PEAK), str(peak), *argv, stdout=subprocess.DEVNULL)
    assert (done.returncode, done.stderr) == (0, b"")
    assert int(peak.read_text()) < 65536


def test_failed_command_leaves_the_output_file_alone(tmp_path, capsys):
    target = tmp_path / "emit.json"
    target.write_bytes(b"earlier contents\n")
    code, out, err = run(capsys, "matrix", "--n", "3", "--action", "emit", "--output", str(target))
    assert (code, out) == (2, "")
    assert err == "stablecurves: --n must be at least 4, got 3\n"
    assert target.read_bytes() == b"earlier contents\n"
    # An invalid tree is a result: validate writes its envelope, then exits 3.
    argv = ("tree", "--action", "validate", "--tree", "[1];[2]/0-1")
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert run(capsys, *argv, "--output", str(target)) == (3, "", "")
    assert target.read_text(encoding="utf-8") == out
    assert json.loads(out)["result"]["valid"] is False


def test_invalid_tree_exits_3_in_a_fresh_interpreter():
    argv = ("tree", "--action", "validate", "--tree", "[1];[2]/0-1")
    done = run_python(*DEV, "-m", "stablecurves", *argv)
    assert (done.returncode, done.stderr) == (3, b"")
    assert json.loads(done.stdout)["result"]["valid"] is False


# --------------------------------------------------------------- census


@pytest.mark.parametrize("fmt", ["json", "tsv", "table"])
def test_census_n7_text_is_pinned(capsys, fmt):
    code, out, _ = run(capsys, "census", "--n", "7", "--format", fmt)
    assert code == 0
    assert out.encode() == (EXPECTED / f"census-n7.{fmt}").read_bytes()


def test_census_rejects_small_n(capsys):
    code, _, err = run(capsys, "census", "--n", "3")
    assert code == 2
    assert "at least 4" in err


def test_max_n_is_the_only_bound(capsys):
    code, _, err = run(capsys, "census", "--n", "6", "--max-n", "5")
    assert (code, err) == (2, "stablecurves: --n 6 exceeds the bound 5; raise --max-n to allow it\n")
    code, _, _ = run(capsys, "census", "--n", "6", "--max-n", "6")
    assert code == 0


def test_census_respects_env_bound(capsys, monkeypatch):
    # STABLECURVES_MAX_N was once read; the environment now sets no bound,
    # so the command line alone decides the bytes.
    for value in ("5", "abc"):
        monkeypatch.setenv("STABLECURVES_MAX_N", value)
        code, out, _ = run(capsys, "census", "--n", "7")
        assert (code, out.encode()) == (0, (EXPECTED / "census-n7.json").read_bytes())


def test_census_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("STABLECURVES_MAX_N", "5")
    code, _, _ = run(capsys, "census", "--n", "6", "--max-n", "6")
    assert code == 0


def test_the_bound_has_one_source():
    import ast

    from stablecurves import _base, partitions

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("census", "matrix"):
        assert sub.choices[name].get_default("max_n") is partitions.DEFAULT_MAX_N, name
    assert stablecurves.DEFAULT_MAX_N is partitions.DEFAULT_MAX_N is _base.DEFAULT_MAX_N
    # A small int is one object wherever it is written, so the identities
    # above cannot tell two literals apart: only ``_base`` assigns the name.
    assigning = {
        path.stem
        for path in Path(stablecurves.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "DEFAULT_MAX_N" and isinstance(node.ctx, ast.Store)
    }
    assert assigning == {"_base"}


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
    # Both routes run at every n, the least included: the parameters hold only pi.
    payload = run_json(capsys, "minus-k", "--pi", "1|2|3|4")
    assert payload["parameters"] == {"pi": "1|2|3|4"}
    assert payload["result"] == {"closed": 2, "equal": True, "expanded": 2}


def test_minus_k_expanded_rejects_n4():
    # minus-k has no --route, so naming one is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["minus-k", "--pi", "1|2|3|4", "--route", "expanded"])
    assert exc.value.code == 2


def test_minus_k_negative_degree(capsys):
    payload = run_json(capsys, "minus-k", "--pi", "1|23|45|67")
    assert payload["result"]["closed"] == -1


def test_minus_k_comma_literal(capsys):
    # The comma literal reads to the class 12|3|4|56, whose two routes both give 0.
    payload = run_json(capsys, "minus-k", "--pi", "1,2|3|4|5,6")
    assert payload["result"] == {"closed": 0, "equal": True, "expanded": 0}


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
    payload = run_json(capsys, "minus-k", "--pi", " 1 , 2 | 3 |4| 5,6 ")
    assert payload["result"]["closed"] == 0
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
    s = LabelSet(labels)
    for pi in enumerate_distinguished(s):
        assert parse_distinguished(pi.literal()) == pi, pi.literal()
    for sigma in enumerate_stable_two_partitions(s):
        assert parse_two_partition(sigma.literal()) == sigma, sigma.literal()


def test_one_label_blocks_of_long_labels_end_in_a_comma(capsys):
    pi = DistinguishedPartition.of(LabelSet(["ab", "cd", "ef", "gh"]), [["ab"], ["cd"], ["ef"], ["gh"]])
    assert pi.literal() == "ab|cd|ef|gh,"
    payload = run_json(capsys, "tree", "--action", "pi", "--tree", "[10,11,12,13]")
    assert payload["result"]["pi"] == "10|11|12|13,"
    payload = run_json(capsys, "minus-k", "--pi", "10|11|12|13,")
    assert payload["result"]["closed"] == 2


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
            t = tree_from_signature(PartitionSetSignature(s, cuts))
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
    assert parse_forget_set("ce", LabelSet("abcdef")) == ["c", "e"]
    assert parse_forget_set("", LabelSet.numbered(10)) == []


# --------------------------------------------------------------- matrix


def test_matrix_rank_n16_walks_no_class_of_16_labels():
    # 171,798,901 columns: the certificate is built from the rows.
    argv = ("matrix", "--n", "16", "--action", "rank")
    done = run_python(*DEV, "-m", "stablecurves", *argv, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(done.stdout)["result"] == {
        "cols": 171798901,
        "picard_rank": 32647,
        "rank": 32647,
        "rows": 32751,
        "verdict": "equal",
    }


def test_matrix_rank_refuses_tsv(capsys):
    code, out, err = run(capsys, "matrix", "--n", "5", "--action", "rank", "--format", "tsv")
    assert (code, out) == (2, "")
    assert err == "stablecurves: --format tsv applies to --action emit only\n"
    explicit = run(capsys, "matrix", "--n", "5", "--action", "rank", "--format", "json")
    assert explicit == run(capsys, "matrix", "--n", "5", "--action", "rank")
    assert explicit == run(capsys, "matrix", "--n", "5")


def test_matrix_rejects_n4(capsys):
    # 4 labels is the floor of every command, so n = 3 is the refusal left.
    code, _, err = run(capsys, "matrix", "--n", "3")
    assert code == 2
    assert "at least 4" in err


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


def test_tree_validate_reports_a_literal_with_no_labels(capsys):
    code, out, err = run(capsys, "tree", "--action", "validate", "--tree", "[];[]/0-1")
    assert (code, err) == (3, "")
    assert json.loads(out)["result"] == {"valid": False, "violations": ["label set is empty"]}
    for action in ("signature", "pi"):
        code, out, err = run(capsys, "tree", "--action", action, "--tree", "[];[]/0-1")
        assert (code, out, err) == (3, "", "stablecurves: label set is empty\n")


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


TWO_DIGIT_TREE = "[1,2,3,4,5,6,7,8,9];[10];[11,12]/0-1,1-2"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("pair", "--sigma", "12|3456", "--pi", "1,,2|3|4|5"), 2, "empty label token in block '1,,2'"),
        (("pair", "--sigma", "12|3456", "--pi", " "), 2, "empty partition literal"),
        (("minus-k", "--pi", "1|1|2|3"), 2, "label '1' appears more than once"),
        (
            ("pair", "--sigma", "12|34|56", "--pi", "1|2|3|456"),
            2,
            "a 2-partition literal needs exactly 2 blocks, got 3",
        ),
        (("minus-k", "--pi", "1|2|3"), 2, "a 4-block partition literal needs exactly 4 blocks, got 3"),
        (
            ("tree", "--action", "contract", "--tree", "[1,2];[3];[4,5]/0-1,1-2", "--edge", "a-b"),
            2,
            "edge 'a-b' must name two vertex indices",
        ),
        (
            ("tree", "--action", "forget", "--tree", "[1,2];[3,4,5]/0-1", "--forget-set", "x"),
            2,
            "forget set 'x' must use the tree's numeric labels",
        ),
        (
            ("tree", "--action", "forget", "--tree", "[1,2];[3,4,5]/0-1"),
            2,
            "--forget-set is required for the forget action",
        ),
        (
            ("tree", "--action", "signature", "--tree", "[1];[2]/0-1"),
            3,
            "unstable vertex 0: only 2 flags; unstable vertex 1: only 2 flags",
        ),
        # ``²`` is a digit to ``str.isdigit`` but no number to ``int``, so
        # these labels stay strings, through every literal route.
        (("pair", "--sigma", "12|34", "--pi", "1|2|3|²"), 3, "sigma and pi must use the same labels"),
        (
            ("tree", "--action", "forget", "--tree", "[1,2];[3,²,5]/0-1", "--forget-set", "4"),
            3,
            "unknown label '4'",
        ),
        (
            ("tree", "--action", "pi", "--tree", "[1,2];[3,²]/0-1"),
            3,
            "not a curve tree: expected 0 edges, got 1",
        ),
        # A number is a decimal token, in every literal: ``int`` would also
        # read ``1_0`` as 10 and ``+1`` as 1.
        (
            ("tree", "--action", "forget", "--tree", TWO_DIGIT_TREE, "--forget-set", "1_0"),
            2,
            "forget set '1_0' must use the tree's numeric labels",
        ),
        (
            ("tree", "--action", "forget", "--tree", TWO_DIGIT_TREE, "--forget-set", "+1"),
            2,
            "forget set '+1' must use the tree's numeric labels",
        ),
        (
            ("tree", "--action", "forget", "--tree", TWO_DIGIT_TREE, "--forget-set", "2,+1"),
            2,
            "forget set '2,+1' must use the tree's numeric labels",
        ),
        (
            ("tree", "--action", "contract", "--tree", TWO_DIGIT_TREE, "--edge", "+1-2"),
            2,
            "edge '+1-2' must name two vertex indices",
        ),
        (
            ("tree", "--action", "signature", "--tree", "[1,2];[3,4,5]/0-1_0"),
            2,
            "edge '0-1_0' must name two vertex indices",
        ),
    ],
)
def test_refusals_exit_with_one_message(capsys, argv, code, message):
    assert run(capsys, *argv) == (code, "", f"stablecurves: {message}\n")


def test_labels_int_cannot_read_stay_strings(capsys):
    for pi, degree in (("1|2|3|²5", 1), ("1|2|3|²", 2)):
        payload = run_json(capsys, "minus-k", "--pi", pi)
        assert payload["result"] == {"closed": degree, "expanded": degree, "equal": True}
    payload = run_json(capsys, "pair", "--sigma", "12|3²", "--pi", "1|2|3|²")
    assert payload["result"]["pairing"] == 1
    payload = run_json(capsys, "tree", "--action", "signature", "--tree", "[1,2];[3,²,5]/0-1")
    assert payload["result"]["signature"] == ["12|35²"]


def test_usage_error_without_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_choice_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "5", "--format", "xml"])
    assert exc.value.code == 2


# ------------------------------------------------- checks under python -O


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


# Prints, at exit, the modules loaded after this line, as one stderr line.
LOADED = (
    "import atexit, runpy, sys; seen = set(sys.modules); "
    "atexit.register(lambda: print(*sorted(set(sys.modules) - seen), file=sys.stderr)); "
)
MAIN = "runpy.run_module('stablecurves', run_name='__main__')"

# The library calls of one query, looked up through the package.
QUERIES = (
    "import stablecurves\n"
    "for name in ('make_tree', 'signature', 'contract_edge', 'forget_and_stabilize',\n"
    "             'pi_of_tree', 'unlabeled_type_key', 'pair_divisor_curve', 'minus_k_expanded'):\n"
    "    getattr(stablecurves, name)\n"
    "stablecurves.DistinguishedPartition.of, stablecurves.TwoPartition.of\n"
)

# One public call of each layer, through the package.
LIBRARY = (
    "import stablecurves as sc\n"
    "s = sc.LabelSet.numbered(6)\n"
    "t = sc.make_tree([[1, 2], [3], [4, 5, 6]], [(0, 1), (1, 2)], s)\n"
    "sig, pi = sc.signature(t), sc.pi_of_tree(t)\n"
    "sc.contract_edge(t, (0, 1)), sc.forget_and_stabilize(t, [1]), sc.unlabeled_type_key(t)\n"
    "sc.pair_divisor_curve(sig.partitions[0], pi), sc.minus_k_expanded(pi)\n"
    "t.to_object(), sc.run_census(s).to_tsv()\n"
    "curves = sc.enumerate_curve_trees(s)\n"
    "assert curves == sc.enumerate_curve_trees(s)\n"
    "assert hash(curves) == hash(sc.enumerate_curve_trees(s))\n"
)

# 3 is the lone tail of the middle vertex, so forgetting it contracts an edge.
CHAIN = "[1,2];[3];[4,5,6]/0-1,1-2"

# (code, arguments, the package's modules it loads besides the package).
CLI = {"_base", "cli"}
PAIRINGS = {*CLI, "partitions", "intersect"}
READ_PI = {*PAIRINGS, "literals"}
TREE = {*CLI, "partitions", "literals", "_tree", "_raw"}
ENTRY_POINTS = [
    ("import stablecurves", [], set()),
    ("import stablecurves.cli", [], CLI),
    ("from stablecurves import cli", [], CLI),
    ("import stablecurves.intersect", [], {"_base", "partitions", "intersect"}),
    ("import stablecurves._tree", [], {"_base", "partitions", "_tree"}),
    (QUERIES, [], {"_base", "partitions", "_tree", "_raw", "trees", "intersect"}),
    (LIBRARY, [], {"_base", "partitions", "_tree", "_raw", "trees", "intersect", "census"}),
    (MAIN, ["--version"], CLI),
    (MAIN, ["--help"], CLI),
    (MAIN, ["tree", "--action", "signature", "--tree", "[1,2];[3,4,5]/0-1"], TREE),
    (MAIN, ["tree", "--action", "pi", "--tree", "[1,2];[3,4,5]/0-1"], {*TREE, "trees"}),
    (MAIN, ["tree", "--action", "validate", "--tree", CHAIN], TREE),
    (MAIN, ["tree", "--action", "contract", "--edge", "1-2", "--tree", CHAIN], TREE),
    (MAIN, ["tree", "--action", "forget", "--forget-set", "1", "--tree", CHAIN], TREE),
    (MAIN, ["tree", "--action", "forget", "--forget-set", "3", "--tree", CHAIN], TREE),
    (MAIN, ["pair", "--sigma", "12|345", "--pi", "1|2|3|45"], READ_PI),
    (MAIN, ["minus-k", "--pi", "1|2|3|45"], READ_PI),
    (MAIN, ["matrix", "--n", "5"], PAIRINGS),
    (MAIN, ["matrix", "--n", "5", "--action", "emit"], {*PAIRINGS, "literals"}),
    (MAIN, ["matrix", "--n", "5", "--action", "emit", "--format", "tsv"], {*PAIRINGS, "literals"}),
    (MAIN, ["census", "--n", "5"], {*PAIRINGS, "_tree", "_raw", "trees", "census"}),
]


@lru_cache(maxsize=None)
def loaded_modules(code: str, *argv: str) -> frozenset[str]:
    """The modules that ``code`` run with ``argv`` loads in a fresh interpreter.

    Each entry point is launched once per session, whichever test asks first,
    in development mode with warnings as errors.  Its stderr must hold the
    module list alone, so a warning printed at exit fails the launch.
    """
    out = run_python(*DEV, "-c", LOADED + code, *argv)
    assert out.returncode == 0, out.stderr
    lines = out.stderr.decode().splitlines()
    assert len(lines) == 1, out.stderr
    return frozenset(lines[0].split())


def test_every_command_is_launched_by_an_entry_point():
    # Each subcommand, and each ``--action`` of one, runs in some fresh
    # interpreter above.
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = {
        (name, action)
        for name, command in sub.choices.items()
        for action in next((a.choices for a in command._actions if a.dest == "action"), [None])
    }
    launched = set()
    for code, argv, _ in ENTRY_POINTS:
        if code == MAIN and argv[0] in sub.choices:
            args = parser.parse_args(argv)
            launched.add((args.command, getattr(args, "action", None)))
    missing = sorted(" ".join(filter(None, command)) for command in commands - launched)
    assert not missing, missing


def test_a_usage_error_compiles_no_layer():
    # argparse refuses the command line before any handler runs.
    out = run_python(*DEV, "-c", LOADED + MAIN, "census")
    assert out.returncode == 2, out.stderr
    lines = out.stderr.decode().splitlines()
    assert "the following arguments are required: --n" in lines[-2]
    package = {m for m in lines[-1].split() if m.startswith("stablecurves")}
    assert package == {"stablecurves", "stablecurves._base", "stablecurves.cli"}


def test_cli_import_loads_no_introspection_modules():
    # Start-up is most of the latency of a small command: each entry point
    # compiles only the layers it calls, and none loads the modules that
    # ``dataclasses`` and ``fractions`` pull in.
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "numbers"}
    for code, argv, layers in ENTRY_POINTS:
        loaded = loaded_modules(code, *argv)
        package = {m for m in loaded if m.startswith("stablecurves")}
        assert package == {"stablecurves", *(f"stablecurves.{m}" for m in layers)}, argv
        assert not loaded & heavy, argv


# Without bytecode caches each module is compiled as it loads, and the
# compiler holds the module's whole token list and syntax tree at once, so
# the largest module a command loads sets about 1 MiB of its peak.  AST
# nodes measure that cost alike on every supported Python.
MAX_AST_NODES = 2300


def test_every_entry_point_compiles_only_small_modules():
    import ast
    import importlib.util

    nodes = {}
    for code, argv, _ in ENTRY_POINTS:
        for name in loaded_modules(code, *argv):
            if name.startswith("stablecurves") and name not in nodes:
                source = Path(importlib.util.find_spec(name).origin).read_text(encoding="utf-8")
                nodes[name] = sum(1 for _ in ast.walk(ast.parse(source)))
        big = {name: count for name, count in nodes.items() if count > MAX_AST_NODES}
        assert not big, (argv or code, big)
    for name, count in sorted(nodes.items(), key=lambda item: -item[1]):
        print(f"{name}: {count} AST nodes, {MAX_AST_NODES - count} below the cap")
    # Every module of the package is loaded by some entry point; runpy runs
    # ``__main__`` without registering it.
    modules = {p.stem for p in Path(stablecurves.__file__).parent.glob("*.py")}
    modules -= {"__init__", "__main__"}
    assert set(nodes) == {"stablecurves", *(f"stablecurves.{m}" for m in modules)}


def fresh(code: str):
    """The JSON value that ``code`` prints in a fresh interpreter."""
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_star_import_binds_each_layer_name_once():
    got = fresh(
        "import json\n"
        "from stablecurves import *\n"
        "import stablecurves as pkg\n"
        "layers = (pkg.partitions, pkg.trees, pkg.intersect, pkg.census)\n"
        "names = [n for m in layers for n in m.__all__]\n"
        "same = all(globals()[n] is getattr(m, n) for m in layers for n in m.__all__)\n"
        "print(json.dumps([pkg.__all__ == [*names, '__version__'], len(pkg.__all__), same]))\n"
    )
    assert got == [True, 42, True]


def test_package_attributes_load_on_first_use():
    got = fresh(
        "import json, sys\n"
        "import stablecurves as pkg\n"
        "layers = lambda: sorted(m for m in sys.modules if m.startswith('stablecurves.'))\n"
        "at_import = layers()\n"
        "wrapped = hasattr(pkg, '__wrapped__') or hasattr(pkg, '_private')\n"
        "after_dunder = layers()\n"
        "try:\n"
        "    pkg.nope\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps([at_import, wrapped, after_dunder, missing, '__all__' in dir(pkg)]))\n"
    )
    assert got == [[], False, [], "module 'stablecurves' has no attribute 'nope'", True]


def test_cli_forwarders_match_their_layer_functions():
    # ``cli.run_census``, ``cli.intersection_matrix``, ``cli.matrix_rank`` and
    # ``intersect.pi_of_tree`` only forward to the layer functions of the
    # same names.
    import inspect

    from stablecurves import census, cli, intersect, trees

    def parameters(fn):
        return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]

    for forwarder, layer, name in [
        (cli, census, "run_census"),
        (cli, intersect, "intersection_matrix"),
        (cli, intersect, "matrix_rank"),
        (intersect, trees, "pi_of_tree"),
    ]:
        assert parameters(getattr(forwarder, name)) == parameters(getattr(layer, name)), name


def test_intersect_forwards_pi_of_tree_to_trees():
    from stablecurves import intersect, trees

    for t in trees.enumerate_curve_trees(LabelSet.numbered(6)):
        assert intersect.pi_of_tree(t) == trees.pi_of_tree(t)


def test_one_version():
    # The package's ``__version__`` is the one literal; the build reads it.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "stablecurves.__version__"}
