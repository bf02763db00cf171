"""The invalid-input gate: a malformed raw value meets only the package's own refusals.

README promises that invalid input raises :class:`InvariantError`, and a
command line literal :class:`ParseError`.  ``TABLE`` maps every raw-value
parameter of every public callable to a strategy of malformed values, and
each call may succeed or refuse with one of those two errors, within a time
bound, and nothing else.  A parameter whose annotation names only the
package's record classes, such as ``s: LabelSet``, stays out of the table:
a wrong-type record fails as Python's own error.
"""

from __future__ import annotations

import inspect
import re
import signal
import sys
from contextlib import contextmanager
from types import FunctionType

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import stablecurves
from stablecurves import (
    DistinguishedPartition,
    InvariantError,
    LabelSet,
    StableTree,
    TwoPartition,
    contract_edge,
    edge_cut,
    enumerate_stable_two_partitions,
    enumerate_trees,
    forget_and_stabilize,
    intersection_matrix,
    make_tree,
    picard_rank,
    run_census,
    tree_violations,
)
from stablecurves._base import ParseError, _Record

S = LabelSet.numbered(6)
TAILS = [[1, 2], [3], [4, 5, 6]]
EDGES = [(0, 1), (1, 2)]
T = make_tree(TAILS, EDGES, S)

# The values of the probe that found the escapes this gate closes.  As
# cuts, [6, 12] is the crossing pair {2, 3} and {3, 4}, and [2] cuts off
# label 2 alone.
PROBE = [None, 5, 1.5, True, "x", [], [None], -1, [-1], (1, 2.5), [[1], [2]], [True, False], [6, 12], [2]]

# Integers stay small: a label count is honoured, so a huge one would build
# a huge label set, which is valid input and not what this gate looks for.
ATOMS = st.one_of(
    st.sampled_from(PROBE), st.none(), st.booleans(), st.integers(-3, 70), st.floats(), st.text(max_size=3)
)
MALFORMED = st.recursive(ATOMS, lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner), max_leaves=8)
SEQUENCES = st.lists(MALFORMED, max_size=5)

# (callable, parameter) -> (the call with that parameter set to a value, its strategy).
# A tree's cuts are checked where its shape is first derived, so the
# StableTree row reads the shape inside the call.
TABLE = {
    ("LabelSet", "labels"): (LabelSet, SEQUENCES),
    ("LabelSet.numbered", "n"): (LabelSet.numbered, MALFORMED),
    ("LabelSet.mask_of", "labels"): (S.mask_of, MALFORMED),
    ("LabelSet.labels_of", "mask"): (S.labels_of, MALFORMED),
    ("TwoPartition", "part_b_mask"): (lambda x: TwoPartition(S, x), MALFORMED),
    ("TwoPartition.of", "part"): (lambda x: TwoPartition.of(S, x), MALFORMED),
    ("DistinguishedPartition", "block_masks"): (lambda x: DistinguishedPartition(S, x), SEQUENCES),
    ("DistinguishedPartition.of", "blocks"): (lambda x: DistinguishedPartition.of(S, x), SEQUENCES),
    ("enumerate_stable_two_partitions", "max_n"): (lambda x: enumerate_stable_two_partitions(S, x), MALFORMED),
    ("StableTree", "cuts"): (lambda x: StableTree(S, x).to_object(), SEQUENCES),
    ("StableTree.tails_at", "v"): (T.tails_at, MALFORMED),
    ("make_tree", "vertex_tails"): (lambda x: make_tree(x, EDGES, S), SEQUENCES),
    ("make_tree", "edges"): (lambda x: make_tree(TAILS, x, S), SEQUENCES),
    ("tree_violations", "vertex_tails"): (lambda x: tree_violations(x, EDGES, S), SEQUENCES),
    ("tree_violations", "edges"): (lambda x: tree_violations(TAILS, x, S), SEQUENCES),
    ("edge_cut", "e"): (lambda x: edge_cut(T, x), MALFORMED),
    ("contract_edge", "e"): (lambda x: contract_edge(T, x), MALFORMED),
    ("forget_and_stabilize", "q"): (lambda x: forget_and_stabilize(T, x), MALFORMED),
    ("enumerate_trees", "codim"): (lambda x: enumerate_trees(S, x), MALFORMED),
    ("picard_rank", "n"): (picard_rank, MALFORMED),
    ("intersection_matrix", "max_n"): (lambda x: intersection_matrix(S, x), MALFORMED),
    ("run_census", "max_n"): (lambda x: run_census(S, x), MALFORMED),
}

GATE = settings(max_examples=25, deadline=None, database=None, derandomize=True)


@contextmanager
def time_bound(seconds: float):
    """Raise :class:`TimeoutError` in the body once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"call ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def call_within_the_gate(key, value):
    """Call the entry ``key`` with ``value``: it returns or refuses, and anything else escapes.

    A returned value that has ``to_object()`` is rendered too, outside the
    catch: a value accepted as valid must read back as one.
    """
    call, _ = TABLE[key]
    with time_bound(2):
        try:
            result = call(value)
        except (InvariantError, ParseError):
            return
        if hasattr(result, "to_object"):
            result.to_object()


def entry_id(key):
    return ".".join(key)


@pytest.mark.parametrize("key", sorted(TABLE), ids=entry_id)
def test_every_probe_value_returns_or_is_refused(key):
    for value in PROBE:
        call_within_the_gate(key, value)


@pytest.mark.parametrize("key", sorted(TABLE), ids=entry_id)
@GATE
@given(data=st.data())
def test_malformed_values_return_or_are_refused(key, data):
    call_within_the_gate(key, data.draw(TABLE[key][1]))


def public_callables() -> tuple[list[tuple[str, object]], dict[str, type]]:
    """Every public callable as (name, callable), and the exported record classes by name.

    A class counts by its constructor, when it writes its own, and by its
    public methods.
    """
    public = {name: getattr(stablecurves, name) for name in stablecurves.__all__}
    records = {name: obj for name, obj in public.items() if isinstance(obj, type) and issubclass(obj, _Record)}
    entries = []
    for name, obj in public.items():
        if not isinstance(obj, type):
            if callable(obj):
                entries.append((name, obj))
            continue
        if issubclass(obj, BaseException):
            continue
        if obj.__init__ is not _Record.__init__:
            entries.append((name, obj))
        for attr, member in vars(obj).items():
            if not attr.startswith("_") and isinstance(member, (FunctionType, classmethod)):
                entries.append((f"{name}.{attr}", getattr(obj, attr)))
    return entries, records


def raw_value_parameters() -> set[tuple[str, str]]:
    """(callable, parameter) for each parameter of a public callable not typed as records alone.

    A record parameter stays out of the table: a validating record checks
    its input in its own constructor, and a result record, which keeps the
    assigning ``_Record.__init__`` and checks nothing it is given, must have
    only validating records as fields, which the test below requires.
    """
    entries, records = public_callables()
    raw = set()
    for qualname, func in entries:
        for p in inspect.signature(func).parameters.values():
            alternatives = str(p.annotation).split("|")
            if p.name != "self" and not all(set(re.findall(r"\w+", a)) & set(records) for a in alternatives):
                raw.add((qualname, p.name))
    return raw


def test_the_table_covers_every_raw_value_parameter():
    assert raw_value_parameters() == set(TABLE)


def test_a_result_record_taken_as_input_holds_only_validating_records():
    # A result record assigns what it is given, so any field that is not a
    # record checking its own input is a value no one refuses: a caller could
    # hand matrix_rank rows its certificate does not cover.
    entries, records = public_callables()
    taken, unchecked = set(), set()
    for qualname, func in entries:
        for p in inspect.signature(func).parameters.values():
            for name in set(re.findall(r"\w+", str(p.annotation))) & set(records):
                cls = records[name]
                if cls.__init__ is not _Record.__init__:
                    continue
                taken.add((qualname, p.name))
                for field, annotation in cls.__annotations__.items():
                    kind = vars(sys.modules[cls.__module__]).get(annotation)
                    validating = isinstance(kind, type) and issubclass(kind, _Record)
                    if not validating or kind.__init__ is _Record.__init__:
                        unchecked.add((qualname, p.name, f"{name}.{field}: {annotation}"))
    assert ("matrix_rank", "m") in taken
    assert not unchecked
