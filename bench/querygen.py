"""Seeded request stream for the ``queries`` workload, with its own oracle.

Every request is generated, and its expected answers computed, before any
timing starts.  The oracle works on the generator's own description of
the tree and never calls the package: cuts come from a depth-first search
over the generated edges, forgetting restricts each cut to the kept labels
and keeps the stable ones, and pairings and degrees use the closed rules.

Labels are ``1..n``; label ``k`` is bit ``k - 1`` of every mask.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

N_MIN, N_MAX = 6, 16
MAX_CONTRACTIONS = 3


@dataclass(frozen=True)
class Request:
    """Inputs of one request and the answers the oracle expects."""

    n: int
    tails: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    edge_index: int
    forget: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    part: tuple[int, ...]
    cuts: tuple[int, ...]
    curve_blocks: tuple[int, ...] | None
    forget_cuts: tuple[int, ...]
    block_masks: tuple[int, ...]
    part_b_mask: int
    pairing: int
    minus_k: int


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _canonical_order(masks) -> tuple[int, ...]:
    # Ascending size of the part avoiding the smallest label, then
    # lexicographic in its bit indices.
    return tuple(sorted(set(masks), key=lambda m: (m.bit_count(), _bits(m))))


def _mask(labels) -> int:
    out = 0
    for x in labels:
        out |= 1 << (x - 1)
    return out


def _random_trivalent(rng: random.Random, labels: list[int]):
    """A uniformly grown trivalent tree: each new label splits a random flag."""
    tails = [[labels[0], labels[1], labels[2]]]
    edges: list[tuple[int, int]] = []
    for lab in labels[3:]:
        flags = [(k, None) for k in range(len(edges))]
        flags += [(v, x) for v, ts in enumerate(tails) for x in ts]
        where, tail = flags[rng.randrange(len(flags))]
        w = len(tails)
        if tail is None:
            u, v = edges[where]
            edges[where] = (u, w)
            edges.append((w, v))
            tails.append([lab])
        else:
            tails[where].remove(tail)
            tails.append([tail, lab])
            edges.append((where, w))
    return tails, edges


def _contract_and_shuffle(rng: random.Random, tails, edges, k: int):
    """Contract ``k`` random edges, then renumber and reorient at random."""
    tails = [list(ts) for ts in tails]
    alive = [True] * len(tails)
    for _ in range(k):
        u, v = edges.pop(rng.randrange(len(edges)))
        tails[u].extend(tails[v])
        alive[v] = False
        edges = [(u if a == v else a, u if b == v else b) for a, b in edges]
    order = [v for v in range(len(tails)) if alive[v]]
    rng.shuffle(order)
    new = {v: i for i, v in enumerate(order)}
    out_tails = []
    for v in order:
        ts = tails[v][:]
        rng.shuffle(ts)
        out_tails.append(tuple(ts))
    out_edges = [
        (new[a], new[b]) if rng.random() < 0.5 else (new[b], new[a]) for a, b in edges
    ]
    rng.shuffle(out_edges)
    return tuple(out_tails), tuple(out_edges)


def _side(tail_masks, adj, start: int, banned: int) -> int:
    mask = 0
    stack = [start]
    seen = {start, banned}
    while stack:
        v = stack.pop()
        mask |= tail_masks[v]
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return mask


def _expected_tree_answers(n: int, tails, edges):
    full = (1 << n) - 1
    tail_masks = [_mask(ts) for ts in tails]
    adj: list[list[int]] = [[] for _ in tails]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    raw = []
    for a, b in edges:
        m = _side(tail_masks, adj, b, a)
        raw.append(full ^ m if m & 1 else m)
    curve_blocks = None
    if len(edges) == n - 4:
        (v0,) = [v for v in range(len(tails)) if len(tails[v]) + len(adj[v]) == 4]
        blocks = [1 << (x - 1) for x in tails[v0]]
        blocks += [_side(tail_masks, adj, w, v0) for w in adj[v0]]
        curve_blocks = tuple(sorted(blocks, key=lambda m: m & -m))
    return raw, curve_blocks


def _expected_forget(n: int, cuts, forget) -> tuple[int, ...]:
    kept = [i for i in range(n) if (i + 1) not in forget]
    new_full = (1 << len(kept)) - 1
    out = []
    for c in cuts:
        m = 0
        for new_bit, old_bit in enumerate(kept):
            if c >> old_bit & 1:
                m |= 1 << new_bit
        if m & 1:
            m ^= new_full
        if m.bit_count() >= 2 and (new_full ^ m).bit_count() >= 2:
            out.append(m)
    return _canonical_order(out)


def _expected_pairing(n: int, block_masks, part_b: int) -> int:
    # +1 when both parts are unions of two blocks, -1 when one part is a
    # single block, 0 when sigma splits a block.
    part_a = ((1 << n) - 1) ^ part_b
    inside_a = [b for b in block_masks if b & part_a == b]
    inside_b = [b for b in block_masks if b & part_b == b]
    if len(inside_a) + len(inside_b) != 4:
        return 0
    return 1 if len(inside_a) == 2 else -1


def make_request(rng: random.Random) -> Request:
    n = rng.randint(N_MIN, N_MAX)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    tails, edges = _random_trivalent(rng, labels)
    k = rng.randint(0, min(MAX_CONTRACTIONS, n - 4))
    tails, edges = _contract_and_shuffle(rng, tails, edges, k)
    raw_cuts, curve_blocks = _expected_tree_answers(n, tails, edges)
    cuts = _canonical_order(raw_cuts)

    forget = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 3))))

    rng.shuffle(labels)
    c1, c2, c3 = sorted(rng.sample(range(1, n), 3))
    blocks = (labels[:c1], labels[c1:c2], labels[c2:c3], labels[c3:])
    kind = rng.randrange(3)
    if kind == 0:
        i, j = rng.sample(range(4), 2)
        part = blocks[i] + blocks[j]
    elif kind == 1:
        part = rng.choice([b for b in blocks if len(b) >= 2])
    else:
        part = rng.sample(labels, rng.randint(2, n - 2))
    block_masks = tuple(sorted((_mask(b) for b in blocks), key=lambda m: m & -m))
    part_b = _mask(part)
    if part_b & 1:
        part_b ^= (1 << n) - 1

    return Request(
        n=n,
        tails=tails,
        edges=edges,
        edge_index=rng.randrange(len(edges)),
        forget=forget,
        blocks=tuple(tuple(b) for b in blocks),
        part=tuple(part),
        cuts=cuts,
        curve_blocks=curve_blocks,
        forget_cuts=_expected_forget(n, cuts, forget),
        block_masks=block_masks,
        part_b_mask=part_b,
        pairing=_expected_pairing(n, block_masks, part_b),
        minus_k=2 - sum(1 for b in blocks if len(b) >= 2),
    )


def make_requests(seed: int, count: int) -> list[Request]:
    rng = random.Random(seed)
    return [make_request(rng) for _ in range(count)]


def serve(api, s, req: Request):
    """One request: the library calls timed as a unit.

    ``api`` holds the package functions, wrapped in spans for a traced
    pass; ``s`` is the prebuilt label set ``1..n``.
    """
    t = api.make_tree(req.tails, req.edges, s)
    sig = api.signature(t)
    contracted = api.contract_edge(t, t.edges[req.edge_index])
    forgotten = api.forget_and_stabilize(t, req.forget)
    if req.curve_blocks is not None:
        pi_t = api.pi_of_tree(t)
        key = api.unlabeled_type_key(t)
    else:
        pi_t = key = None
    pi = api.DistinguishedPartition_of(s, req.blocks)
    sigma = api.TwoPartition_of(s, req.part)
    pairing = api.pair_divisor_curve(sigma, pi)
    minus_k = api.minus_k_expanded(pi)
    return t, sig, contracted, forgotten, pi_t, key, pi, sigma, pairing, minus_k


def quick_check(req: Request, answer) -> bool:
    """Cheap comparison against the oracle, run after every timed request."""
    t, sig, contracted, forgotten, pi_t, key, pi, sigma, pairing, minus_k = answer
    return (
        tuple(p.part_b_mask for p in sig.partitions) == req.cuts
        and contracted.codimension == len(req.cuts) - 1
        and forgotten.codimension == len(req.forget_cuts)
        and (pi_t is None or pi_t.block_masks == req.curve_blocks)
        and pi.block_masks == req.block_masks
        and sigma.part_b_mask == req.part_b_mask
        and pairing == req.pairing
        and minus_k == req.minus_k
    )


def full_check(req: Request, answer, signature) -> list[str]:
    """Every oracle comparison for one answer; ``signature`` is the package's."""
    t, sig, contracted, forgotten, pi_t, key, pi, sigma, pairing, minus_k = answer
    problems = []
    if not quick_check(req, answer):
        problems.append("answer differs from the oracle")
    if t.codimension != len(req.edges) or t.n_vertices != len(req.tails):
        problems.append("make_tree changed the vertex or edge count")
    left = {p.part_b_mask for p in signature(contracted).partitions}
    if len(left) != len(req.cuts) - 1 or not left <= set(req.cuts):
        problems.append("contract_edge did not drop exactly one cut")
    kept = tuple(p.part_b_mask for p in signature(forgotten).partitions)
    if kept != req.forget_cuts or forgotten.label_set.n != req.n - len(req.forget):
        problems.append("forget_and_stabilize cuts differ from the restricted cuts")
    if key is not None:
        counts = [int(x) for x in key.replace("[", " ").replace("]", " ").replace(",", " ").split()]
        if sum(counts) != req.n or len(counts) != t.n_vertices:
            problems.append("unlabeled_type_key does not account for every tail and vertex")
    if minus_k.denominator != 1:
        problems.append("minus_k_expanded is not an integer")
    return problems


def answer_record(answer) -> tuple:
    """Canonical, package-independent form of an answer, for the digest."""
    t, sig, contracted, forgotten, pi_t, key, pi, sigma, pairing, minus_k = answer

    def tree(x):
        return (x.label_set.labels, x.vertex_tails, x.edges)

    return (
        tree(t),
        tuple(p.part_b_mask for p in sig.partitions),
        tree(contracted),
        tree(forgotten),
        None if pi_t is None else pi_t.block_masks,
        key,
        pi.block_masks,
        sigma.part_b_mask,
        pairing,
        (minus_k.numerator, minus_k.denominator),
    )
