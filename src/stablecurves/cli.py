"""Command line front end.

Every command writes a deterministic JSON envelope (or a plain table for
the tabular formats): identical inputs produce byte-identical output.

Exit codes: 0 success, 2 usage or parse error, 3 invariant violation in
the input, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import __version__
from .census import render_table, run_census
from .intersect import (
    intersection_matrix,
    matrix_rank,
    minus_k_closed,
    minus_k_expanded,
    pair_divisor_curve,
    picard_rank,
)
from .partitions import (
    DEFAULT_MAX_N,
    DistinguishedPartition,
    InvariantError,
    LabelSet,
    TwoPartition,
    _check_internal,
    n_set,
    p_set,
)
from .trees import (
    StableTree,
    edge_cut,
    forget_and_stabilize,
    make_tree,
    pi_of_tree,
    signature,
    tree_from_signature,
    tree_violations,
)

__all__ = ["main", "ParseError"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_INTERNAL = 4

ENV_MAX_N = "STABLECURVES_MAX_N"


class ParseError(ValueError):
    """Raised when a command line literal cannot be parsed."""


def _normalize_tokens(raw: list[str]) -> list:
    """Numeric-looking tokens become ints when every token is numeric."""
    if all(t.isdigit() for t in raw):
        return [int(t) for t in raw]
    return list(raw)


def _block_tokens(block: str, whole: bool = False) -> list[str]:
    """Tokens of one block: comma-separated, or one label per character.

    With ``whole``, a block without commas is a single label.
    """
    if "," in block:
        tokens = [t.strip() for t in block.split(",")]
    elif whole:
        tokens = [block]
    else:
        tokens = list(block)
    for t in tokens:
        if not t:
            raise ParseError(f"empty label token in block {block!r}")
    return tokens


def parse_label_blocks(text: str) -> list[list]:
    """Blocks of a partition literal, labels normalized.

    Once any block holds a comma, the literal is comma-separated throughout
    and a block without commas is one label, as in ``1,2,3,4,5,6,7|8|9|10``.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty partition literal")
    blocks = [block.strip() for block in text.split("|")]
    if not all(blocks):
        raise ParseError(f"empty block in partition literal {text!r}")
    separated = "," in text
    raw_blocks = [_block_tokens(block, whole=separated) for block in blocks]
    flat = [t for block in raw_blocks for t in block]
    if len(set(flat)) != len(flat):
        dup = next(t for t in flat if flat.count(t) > 1)
        raise ParseError(f"label {dup!r} appears more than once")
    normalized = _normalize_tokens(flat)
    it = iter(normalized)
    return [[next(it) for _ in block] for block in raw_blocks]


def parse_two_partition(text: str) -> TwoPartition:
    blocks = parse_label_blocks(text)
    if len(blocks) != 2:
        raise ParseError(f"a 2-partition literal needs exactly 2 blocks, got {len(blocks)}")
    s = LabelSet.of([t for b in blocks for t in b])
    return TwoPartition.of(s, blocks[0])


def parse_distinguished(text: str) -> DistinguishedPartition:
    blocks = parse_label_blocks(text)
    if len(blocks) != 4:
        raise ParseError(f"a 4-block partition literal needs exactly 4 blocks, got {len(blocks)}")
    s = LabelSet.of([t for b in blocks for t in b])
    return DistinguishedPartition.of(s, blocks)


def parse_tree_literal(text: str) -> tuple[list[list], list[tuple[int, int]], LabelSet]:
    """Tree literal: '[a,b];[c];[d,e]/0-1,1-2' (edge part optional when empty)."""
    text = text.strip()
    if "/" in text:
        vertex_part, _, edge_part = text.partition("/")
    else:
        vertex_part, edge_part = text, ""
    vertex_tails: list[list[str]] = []
    for chunk in vertex_part.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("[") and chunk.endswith("]")):
            raise ParseError(f"vertex {chunk!r} is not bracketed")
        inner = chunk[1:-1].strip()
        vertex_tails.append(_block_tokens(inner) if inner else [])
    flat = [t for ts in vertex_tails for t in ts]
    normalized = _normalize_tokens(flat)
    it = iter(normalized)
    tails = [[next(it) for _ in ts] for ts in vertex_tails]
    edges: list[tuple[int, int]] = []
    if edge_part.strip():
        for chunk in edge_part.split(","):
            edges.append(parse_edge(chunk))
    # Duplicate labels are left for the tree validators to report, so the
    # validate action can list them alongside any other violations.
    s = LabelSet.of(set(t for ts in tails for t in ts))
    return tails, edges, s


def parse_edge(text: str) -> tuple[int, int]:
    chunk = text.strip()
    left, sep, right = chunk.partition("-")
    if not sep:
        raise ParseError(f"edge {chunk!r} must look like i-j")
    try:
        return (int(left), int(right))
    except ValueError:
        raise ParseError(f"edge {chunk!r} must name two vertex indices") from None


def parse_forget_set(text: str, s: LabelSet) -> list:
    tokens = _block_tokens(text.strip())
    if all(isinstance(t, int) for t in s.labels):
        try:
            return [int(t) for t in tokens]
        except ValueError as exc:
            raise ParseError(f"forget set {text!r} must use the tree's numeric labels") from exc
    return list(tokens)


def _tree_payload(t: StableTree) -> dict:
    return {
        "vertices": [list(t.tails_at(v)) for v in range(t.n_vertices)],
        "edges": [list(e) for e in t.edges],
    }


def _envelope(command: str, parameters: dict, result: dict) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "result": result,
        "version": __version__,
    }


def _dump(envelope: dict) -> str:
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def _census_payload(report) -> dict:
    return {
        "n": report.n,
        "totals": {"curves": report.total_curves, "classes": report.total_classes},
        "types": [
            {
                "type_key": t.type_key,
                "name": t.name,
                "curve_count": t.curve_count,
                "minus_k": t.minus_k,
                "representative": _tree_payload(t.representative),
            }
            for t in report.types
        ],
        "classes": [
            {
                "shape": list(c.shape),
                "class_count": c.class_count,
                "curves_per_class": c.curves_per_class,
                "curves_per_class_by_type": dict(c.curves_per_class_by_type),
                "minus_k": c.minus_k,
            }
            for c in report.classes
        ],
    }


def _census_tsv(report) -> str:
    lines = ["kind\tid\tcurve_count\tclass_count\tcurves_per_class\tminus_k"]
    for t in report.types:
        ident = t.name or t.type_key
        lines.append(f"type\t{ident}\t{t.curve_count}\t\t\t{t.minus_k}")
    for c in report.classes:
        shape = "+".join(str(b) for b in c.shape)
        lines.append(
            f"class\t{shape}\t{c.class_count * c.curves_per_class}\t{c.class_count}"
            f"\t{c.curves_per_class}\t{c.minus_k}"
        )
    lines.append(f"total\t\t{report.total_curves}\t{report.total_classes}\t\t")
    return "\n".join(lines) + "\n"


def _resolve_max_n(args: argparse.Namespace) -> int:
    if getattr(args, "max_n", None) is not None:
        return args.max_n
    raw = os.environ.get(ENV_MAX_N)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise ParseError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from None
    return DEFAULT_MAX_N


def _check_n(n: int, minimum: int, bound: int) -> None:
    if n < minimum:
        raise ParseError(f"--n must be at least {minimum}, got {n}")
    if n > bound:
        raise ParseError(f"--n {n} exceeds the bound {bound}; raise --max-n to allow it")


def _cmd_census(args: argparse.Namespace) -> str:
    bound = _resolve_max_n(args)
    _check_n(args.n, 4, bound)
    report = run_census(LabelSet.numbered(args.n), max_n=bound)
    if args.format == "tsv":
        return _census_tsv(report)
    if args.format == "table":
        return render_table(report)
    parameters = {"n": args.n, "format": args.format, "max_n": bound}
    return _dump(_envelope("census", parameters, _census_payload(report)))


def _cmd_pair(args: argparse.Namespace) -> str:
    sigma = parse_two_partition(args.sigma)
    pi = parse_distinguished(args.pi)
    if sigma.label_set != pi.label_set:
        raise InvariantError("sigma and pi must use the same labels")
    value = pair_divisor_curve(sigma, pi)
    if value == 1:
        kind = "P-member"
    elif value == -1:
        kind = "N-member"
    else:
        kind = "neither"
    parameters = {"sigma": args.sigma, "pi": args.pi}
    result = {"pairing": value, "classification": kind}
    return _dump(_envelope("pair", parameters, result))


def _cmd_minus_k(args: argparse.Namespace) -> str:
    pi = parse_distinguished(args.pi)
    result: dict = {}
    if args.route in ("closed", "both"):
        result["closed"] = minus_k_closed(pi)
    if args.route in ("expanded", "both"):
        expanded = minus_k_expanded(pi)
        _check_internal(expanded.denominator == 1, "expanded degree is not an integer")
        result["expanded"] = int(expanded)
    if args.route == "both":
        _check_internal(
            result["closed"] == result["expanded"], "closed and expanded routes disagree"
        )
        result["equal"] = True
    parameters = {"pi": args.pi, "route": args.route}
    return _dump(_envelope("minus-k", parameters, result))


def _cmd_matrix(args: argparse.Namespace) -> str:
    bound = _resolve_max_n(args)
    _check_n(args.n, 5, bound)
    m = intersection_matrix(LabelSet.numbered(args.n), max_n=bound)
    if args.action == "emit":
        if args.format == "tsv":
            return m.to_tsv()
        parameters = {"n": args.n, "action": "emit", "format": args.format, "max_n": bound}
        return _dump(_envelope("matrix", parameters, m.to_object()))
    rank = matrix_rank(m)
    expected = picard_rank(args.n)
    result = {
        "rows": len(m.rows),
        "cols": len(m.cols),
        "rank": rank,
        "picard_rank": expected,
        "verdict": "equal" if rank == expected else "unequal",
    }
    parameters = {"n": args.n, "action": "rank", "max_n": bound}
    return _dump(_envelope("matrix", parameters, result))


def _cmd_tree(args: argparse.Namespace) -> tuple[str, int]:
    tails, edges, s = parse_tree_literal(args.tree)
    parameters = {"action": args.action, "tree": args.tree}

    if args.action == "validate":
        problems = tree_violations(tails, edges, s)
        result = {"valid": not problems, "violations": problems}
        text = _dump(_envelope("tree", parameters, result))
        return text, (EXIT_OK if not problems else EXIT_INVARIANT)

    t = make_tree(tails, edges, s)
    if args.action == "signature":
        sig = signature(t)
        result = {
            "codimension": len(sig.partitions),
            "signature": [p.literal() for p in sig.partitions],
        }
    elif args.action == "contract":
        if args.edge is None:
            raise ParseError("--edge is required for the contract action")
        i, j = parse_edge(args.edge)
        if not any(set(e) == {i, j} for e in ((tuple(x) for x in edges))):
            raise InvariantError(f"unknown edge ({i}, {j}) in the input tree")
        cut = _input_edge_cut(tails, edges, s, (i, j))
        remaining = [p for p in signature(t).partitions if p != cut]
        contracted = tree_from_signature(remaining, s)
        parameters["edge"] = args.edge
        result = {"tree": _tree_payload(contracted)}
    elif args.action == "forget":
        if args.forget_set is None:
            raise ParseError("--forget-set is required for the forget action")
        q = parse_forget_set(args.forget_set, s)
        reduced = forget_and_stabilize(t, q)
        parameters["forget_set"] = args.forget_set
        result = {
            "tree": _tree_payload(reduced),
            "labels": list(reduced.label_set.labels),
        }
    elif args.action == "pi":
        pi = pi_of_tree(t)
        result = {
            "pi": pi.literal(),
            "blocks": [list(b) for b in pi.blocks],
            "shape": list(pi.shape),
        }
    else:  # pragma: no cover - argparse restricts the choices
        raise ParseError(f"unknown tree action {args.action!r}")
    return _dump(_envelope("tree", parameters, result)), EXIT_OK


def _input_edge_cut(tails, edges, s: LabelSet, edge: tuple[int, int]) -> TwoPartition:
    """Cut of an edge named in the caller's own vertex numbering."""
    adj: dict[int, list[int]] = {v: [] for v in range(len(tails))}
    for i, j in (tuple(e) for e in edges):
        adj[i].append(j)
        adj[j].append(i)
    i, j = edge
    side = set()
    stack = [j]
    seen = {i, j}
    while stack:
        v = stack.pop()
        side.update(tails[v])
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return TwoPartition.of(s, side)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablecurves",
        description="boundary combinatorics of genus-zero moduli of labeled curves",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    census = sub.add_parser("census", help="count all boundary curves and classes")
    census.add_argument("--n", type=int, required=True, help="number of labels")
    census.add_argument("--format", choices=("json", "tsv", "table"), default="json")
    census.add_argument("--max-n", type=int, dest="max_n", help="enumeration bound override")
    census.add_argument("--output", help="write to this file instead of stdout")

    pair = sub.add_parser("pair", help="pair one boundary divisor with one curve class")
    pair.add_argument("--sigma", required=True, help="2-partition literal, e.g. 12|3456")
    pair.add_argument("--pi", required=True, help="4-block partition literal, e.g. 1|2|3|456")
    pair.add_argument("--output", help="write to this file instead of stdout")

    minus_k = sub.add_parser("minus-k", help="anticanonical degree of a curve class")
    minus_k.add_argument("--pi", required=True, help="4-block partition literal")
    minus_k.add_argument("--route", choices=("closed", "expanded", "both"), default="both")
    minus_k.add_argument("--output", help="write to this file instead of stdout")

    matrix = sub.add_parser("matrix", help="divisor-by-class pairing matrix")
    matrix.add_argument("--n", type=int, required=True, help="number of labels")
    matrix.add_argument("--action", choices=("emit", "rank"), default="rank")
    matrix.add_argument("--format", choices=("json", "tsv"), default="json")
    matrix.add_argument("--max-n", type=int, dest="max_n", help="enumeration bound override")
    matrix.add_argument("--output", help="write to this file instead of stdout")

    tree = sub.add_parser("tree", help="inspect or transform one stable tree")
    tree.add_argument(
        "--action",
        choices=("validate", "signature", "contract", "forget", "pi"),
        required=True,
    )
    tree.add_argument(
        "--tree", required=True, help="tree literal, e.g. [1,2];[3];[4,5]/0-1,1-2"
    )
    tree.add_argument("--edge", help="edge i-j for the contract action")
    tree.add_argument("--forget-set", dest="forget_set", help="labels to forget")
    tree.add_argument("--output", help="write to this file instead of stdout")
    return parser


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "census":
            text, code = _cmd_census(args), EXIT_OK
        elif args.command == "pair":
            text, code = _cmd_pair(args), EXIT_OK
        elif args.command == "minus-k":
            text, code = _cmd_minus_k(args), EXIT_OK
        elif args.command == "matrix":
            text, code = _cmd_matrix(args), EXIT_OK
        else:
            text, code = _cmd_tree(args)
    except ParseError as exc:
        print(f"stablecurves: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"stablecurves: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except AssertionError as exc:
        print(f"stablecurves: internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    _write(text, args.output)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
