"""Command line front end: parsing, ``--n`` admission, the one writer.

Each command returns its result rendered by the result's own type, and
``main`` writes it once: a deterministic JSON envelope, or the text of a
tabular format.  The command line alone decides the bytes: identical
arguments produce byte-identical output, and no environment variable
enters.

Exit codes: 0 success, 2 usage or parse error, 3 invariant violation in
the input, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from itertools import islice
from typing import Sequence

from . import __version__
from ._base import DEFAULT_MAX_N, InvariantError, ParseError, _check_internal

__all__ = ["main", "ParseError"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_INTERNAL = 4


# Each command imports the layers it calls, ``partitions`` included, so
# --version, --help and a usage error compile none.  bench/spans.py patches
# these three forwarders, which keep their targets' parameters, on this
# module until the trace hooks of ROADMAP item 5 let them go.
def run_census(s, max_n=None):
    from .census import run_census

    return run_census(s, max_n)


def intersection_matrix(s, max_n=None):
    from .intersect import intersection_matrix

    return intersection_matrix(s, max_n)


def matrix_rank(m):
    from .intersect import matrix_rank

    return matrix_rank(m)


def _admit_n(args: argparse.Namespace) -> int:
    """Admit ``--n`` from 4, the least label count, up to the bound, and return the bound.

    The bound is ``--max-n``, whose default is ``DEFAULT_MAX_N``.
    """
    if args.n < 4:
        raise ParseError(f"--n must be at least 4, got {args.n}")
    if args.n > args.max_n:
        raise ParseError(f"--n {args.n} exceeds the bound {args.max_n}; raise --max-n to allow it")
    return args.max_n


def _cmd_census(args: argparse.Namespace) -> tuple[str | tuple[dict, dict], int]:
    from .partitions import LabelSet

    bound = _admit_n(args)
    report = run_census(LabelSet.numbered(args.n), max_n=bound)
    if args.format == "tsv":
        return report.to_tsv(), EXIT_OK
    if args.format == "table":
        return report.to_table(), EXIT_OK
    parameters = {"n": args.n, "format": args.format, "max_n": bound}
    return (parameters, report.to_object()), EXIT_OK


def _cmd_pair(args: argparse.Namespace) -> tuple[str | tuple[dict, dict], int]:
    from .intersect import pair_divisor_curve
    from .literals import parse_distinguished, parse_two_partition

    sigma = parse_two_partition(args.sigma)
    pi = parse_distinguished(args.pi)
    value = pair_divisor_curve(sigma, pi)
    kind = {1: "P-member", -1: "N-member", 0: "neither"}[value]
    parameters = {"sigma": args.sigma, "pi": args.pi}
    result = {"pairing": value, "classification": kind}
    return (parameters, result), EXIT_OK


def _cmd_minus_k(args: argparse.Namespace) -> tuple[str | tuple[dict, dict], int]:
    from .intersect import minus_k_closed, minus_k_expanded
    from .literals import parse_distinguished

    pi = parse_distinguished(args.pi)
    closed, expanded = minus_k_closed(pi), minus_k_expanded(pi)
    _check_internal(closed == expanded, "closed and expanded routes disagree")
    result = {"closed": closed, "expanded": expanded, "equal": True}
    return ({"pi": args.pi}, result), EXIT_OK


def _cmd_matrix(args: argparse.Namespace) -> tuple[str | tuple[dict, dict], int]:
    from .partitions import LabelSet
    from .intersect import picard_rank

    if args.action == "rank" and args.format == "tsv":
        raise ParseError("--format tsv applies to --action emit only")
    bound = _admit_n(args)
    m = intersection_matrix(LabelSet.numbered(args.n), max_n=bound)
    if args.action == "emit":
        if args.format == "tsv":
            return m.to_tsv(), EXIT_OK
        parameters = {"n": args.n, "action": "emit", "format": args.format, "max_n": bound}
        return (parameters, m.to_object()), EXIT_OK
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
    return (parameters, result), EXIT_OK


def _cmd_tree(args: argparse.Namespace) -> tuple[str | tuple[dict, dict], int]:
    from .literals import parse_edge, parse_forget_set, parse_tree_literal
    from ._raw import _intake
    from ._tree import StableTree, forget_and_stabilize, signature

    parameters = {"action": args.action, "tree": args.tree}
    try:
        tails, edges, s = parse_tree_literal(args.tree)
    except InvariantError as exc:  # a literal with no labels
        if args.action != "validate":
            raise
        problems = [str(exc)]
    else:
        # One walk validates the input and cuts its edges, for the tree and,
        # for contract, the edges that stay.
        problems, cuts = _intake(tails, edges, s)
    if args.action == "validate":
        result = {"valid": not problems, "violations": problems}
        return (parameters, result), (EXIT_OK if not problems else EXIT_INVARIANT)
    if problems:
        raise InvariantError("; ".join(problems))
    t = StableTree(s, cuts)
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
        if not any(set(e) == {i, j} for e in edges):
            raise InvariantError(f"unknown edge ({i}, {j}) in the input tree")
        contracted = StableTree(s, [c for e, c in zip(edges, cuts) if set(e) != {i, j}])
        parameters["edge"] = args.edge
        result = {"tree": contracted.to_object()}
    elif args.action == "forget":
        if args.forget_set is None:
            raise ParseError("--forget-set is required for the forget action")
        q = parse_forget_set(args.forget_set, s)
        reduced = forget_and_stabilize(t, q)
        parameters["forget_set"] = args.forget_set
        result = {
            "tree": reduced.to_object(),
            "labels": list(reduced.label_set.labels),
        }
    else:  # pi
        from .trees import pi_of_tree

        pi = pi_of_tree(t)
        result = {
            "pi": pi.literal(),
            "blocks": [list(b) for b in pi.blocks],
            "shape": list(pi.shape),
        }
    return (parameters, result), EXIT_OK


def _write(fh, output: str | tuple[dict, dict], command: str) -> None:
    """Write text, or the envelope of a (parameters, result) pair in batches of chunks."""
    if isinstance(output, tuple):
        from json import JSONEncoder

        parameters, result = output
        envelope = dict(command=command, parameters=parameters, result=result, version=__version__)
        chunks = JSONEncoder(indent=2, sort_keys=True).iterencode(envelope)
        while batch := list(islice(chunks, 4096)):
            fh.write("".join(batch))
        output = "\n"
    fh.write(output)


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
    census.add_argument("--max-n", type=int, dest="max_n", default=DEFAULT_MAX_N, help="enumeration bound override")
    census.set_defaults(run=_cmd_census)

    pair = sub.add_parser("pair", help="pair one boundary divisor with one curve class")
    pair.add_argument("--sigma", required=True, help="2-partition literal, e.g. 12|3456")
    pair.add_argument("--pi", required=True, help="4-block partition literal, e.g. 1|2|3|456")
    pair.set_defaults(run=_cmd_pair)

    minus_k = sub.add_parser("minus-k", help="anticanonical degree of a curve class")
    minus_k.add_argument("--pi", required=True, help="4-block partition literal")
    minus_k.set_defaults(run=_cmd_minus_k)

    matrix = sub.add_parser("matrix", help="divisor-by-class pairing matrix")
    matrix.add_argument("--n", type=int, required=True, help="number of labels")
    matrix.add_argument("--action", choices=("emit", "rank"), default="rank")
    matrix.add_argument("--format", choices=("json", "tsv"), default="json")
    matrix.add_argument("--max-n", type=int, dest="max_n", default=DEFAULT_MAX_N, help="enumeration bound override")
    matrix.set_defaults(run=_cmd_matrix)

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
    tree.set_defaults(run=_cmd_tree)

    for command in sub.choices.values():
        command.add_argument("--output", help="write to this file instead of stdout")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output, code = args.run(args)
    except (ParseError, InvariantError) as exc:
        print(f"stablecurves: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ParseError) else EXIT_INVARIANT
    except AssertionError as exc:
        print(f"stablecurves: internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    # The result is whole before the destination opens: a failed command leaves --output alone.
    to_file = args.output is not None
    try:
        with open(args.output, "w", encoding="utf-8") if to_file else nullcontext(sys.stdout) as fh:
            _write(fh, output, args.command)
            fh.flush()
    except OSError as exc:
        if to_file:
            print(f"stablecurves: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(exc, BrokenPipeError):
            raise
        # The reader closed stdout early (``| head``): keep the flush at exit from failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code
