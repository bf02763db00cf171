"""The literal grammar: writes partitions as literals, reads partition, tree, edge and forget-set literals.

Partition literals read back as :func:`format_blocks` writes them.  A token
is a number only when it is decimal (``str.isdecimal``), so ``1_0`` and
``+1`` stay strings: a label, or a refusal where a number is required.
"""

from __future__ import annotations

from typing import Iterable

from ._base import InvariantError, ParseError, bits_of
from .partitions import DistinguishedPartition, LabelSet, TwoPartition


def _read_tokens(groups: list) -> list:
    """Groups of literal tokens, the tokens made ints when every one is decimal."""
    if all(t.isdecimal() for group in groups for t in group):
        return [[int(t) for t in group] for group in groups]
    return groups


def _juxtaposed(texts: Iterable[str]) -> bool:
    """True when every label prints as one character, so labels are written side by side."""
    return all(len(t) == 1 for t in texts)


def format_blocks(label_set: LabelSet, masks: Iterable[int]) -> str:
    """Render blocks in the partition literal grammar.

    Blocks are separated by ``|``.  Labels are juxtaposed when every label in
    the set prints as a single character, and comma-separated otherwise.  A
    comma-separated literal that holds no comma, every block one label, ends
    in one comma, so that it reads back as comma-separated: ``10|11|12|13,``.
    A label whose text is empty or holds ``|``, ``,`` or whitespace is
    refused, and so is one that :func:`_read_tokens` reads back as another
    value: the strings ``"1"``, ``"2"``, ``"3"``, ``"4"`` would read back as
    ints, and the ints ``-1``, ``2``, ``3``, ``4`` as strings.
    """
    texts = [str(t) for t in label_set.labels]
    for label, t, back in zip(label_set.labels, texts, *_read_tokens([texts])):
        if t.split() != [t] or "|" in t or "," in t or back != label:
            raise InvariantError(f"label {label!r} cannot be written in a literal")
    if _juxtaposed(texts):
        return "|".join("".join(texts[i] for i in bits_of(m)) for m in masks)
    text = "|".join(",".join(texts[i] for i in bits_of(m)) for m in masks)
    return text if "," in text else text + ","


def _block_tokens(block: str, whole: bool = False) -> list[str]:
    """Tokens of one block: comma-separated, or one label per character.

    With ``whole``, a block without commas is a single label.
    """
    if "," in block:
        tokens = [t.strip() for t in block.split(",")]
    elif whole and block:
        tokens = [block]
    else:
        tokens = list(block)
    for t in tokens:
        if not t:
            raise ParseError(f"empty label token in block {block!r}")
        if any(c.isspace() for c in t):
            raise ParseError(f"label token {t!r} holds whitespace in block {block!r}")
    return tokens


def parse_label_blocks(text: str) -> list[list]:
    """Blocks of a partition literal, labels normalized.

    Once any block holds a comma, the literal is comma-separated throughout
    and a block without commas is one label, as in ``1,2,3,4,5,6,7|8|9|10``.
    One trailing comma is dropped once the mode is known, so ``10|11|12|13,``
    is four one-label blocks.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty partition literal")
    separated = "," in text
    blocks = [block.strip() for block in text.removesuffix(",").split("|")]
    if not all(blocks):
        raise ParseError(f"empty block in partition literal {text!r}")
    raw_blocks = [_block_tokens(block, whole=separated) for block in blocks]
    flat = [t for block in raw_blocks for t in block]
    if len(set(flat)) != len(flat):
        dup = next(t for t in flat if flat.count(t) > 1)
        raise ParseError(f"label {dup!r} appears more than once")
    return _read_tokens(raw_blocks)


def _counted_blocks(text: str, count: int, kind: str) -> tuple[LabelSet, list[list]]:
    """The label set and blocks of a literal that must have ``count`` blocks."""
    blocks = parse_label_blocks(text)
    if len(blocks) != count:
        raise ParseError(f"a {kind} literal needs exactly {count} blocks, got {len(blocks)}")
    return LabelSet([t for b in blocks for t in b]), blocks


def parse_two_partition(text: str) -> TwoPartition:
    s, blocks = _counted_blocks(text, 2, "2-partition")
    return TwoPartition.of(s, blocks[0])


def parse_distinguished(text: str) -> DistinguishedPartition:
    s, blocks = _counted_blocks(text, 4, "4-block partition")
    return DistinguishedPartition.of(s, blocks)


def parse_tree_literal(text: str) -> tuple[list[list], list[tuple[int, int]], LabelSet]:
    """Tree literal: '[a,b];[c];[d,e]/0-1,1-2' (edge part optional when empty).

    As in partition literals, once any vertex holds a comma a vertex
    without one holds a single label, as in ``[1,2,3,4,5,6,7];[8];[9,10]``.
    """
    text = text.strip()
    if "/" in text:
        vertex_part, _, edge_part = text.partition("/")
    else:
        vertex_part, edge_part = text, ""
    separated = "," in vertex_part
    vertex_tails: list[list[str]] = []
    for chunk in vertex_part.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("[") and chunk.endswith("]")):
            raise ParseError(f"vertex {chunk!r} is not bracketed")
        vertex_tails.append(_block_tokens(chunk[1:-1].strip(), whole=separated))
    tails = _read_tokens(vertex_tails)
    edges: list[tuple[int, int]] = []
    if edge_part.strip():
        for chunk in edge_part.split(","):
            edges.append(parse_edge(chunk))
    # Duplicate labels are left for the tree validators to report, so the
    # validate action can list them alongside any other violations.
    s = LabelSet(set(t for ts in tails for t in ts))
    return tails, edges, s


def parse_edge(text: str) -> tuple[int, int]:
    chunk = text.strip()
    left, sep, right = chunk.partition("-")
    if not sep:
        raise ParseError(f"edge {chunk!r} must look like i-j")
    left, right = left.strip(), right.strip()
    if not (left.isdecimal() and right.isdecimal()):
        raise ParseError(f"edge {chunk!r} must name two vertex indices")
    return (int(left), int(right))


def parse_forget_set(text: str, s: LabelSet) -> list:
    """Labels to forget: comma-separated, or juxtaposed single characters.

    A set without commas is one label unless every label of ``s`` prints as
    one character, the rule :func:`format_blocks` writes by.
    """
    tokens = _block_tokens(text.strip(), whole=not _juxtaposed(map(str, s.labels)))
    if all(isinstance(t, int) for t in s.labels):
        if not all(t.isdecimal() for t in tokens):
            raise ParseError(f"forget set {text!r} must use the tree's numeric labels")
        return [int(t) for t in tokens]
    return list(tokens)
