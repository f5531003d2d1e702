"""Exact probabilities by exhaustive enumeration; the ground-truth oracle.

Configurations are bitmasks in lexicographic edge-id order.  Enumeration is
"sampling" with deterministic periodic columns, cut into blocks as Monte
Carlo cuts its samples: a block of 2^k masks fixes the high E - k edges, so
its low k edges are the periodic columns (bit m of the column of edge j is
bit j of m) and each high edge is a constant column, all 0 or all 1.  k is
the largest with 2^k mask × (vertex + edge) cells at most
``config.BLOCK_CELLS``, the constant that sizes Monte Carlo's blocks, so
memory stays flat in 2^E and a graph of up to 2^k masks is one block.
Events run on a block's columns through the column evaluator of ``events``,
the one Monte Carlo runs on sampled columns: a few big-integer AND/OR sweeps
per event instead of a cluster labelling or a max-flow per mask.  The events
a request needs that the graph has not cached are evaluated together, as
``mc_probs`` evaluates its events on one sample set: each reach source is
swept once per block, and npaths(u,v,n) for several n share one max-flow.

An event's hits are kept as packed bits over all masks, 2^E / 8 bytes.  A
probability is the exact sum of the weights they select, rounded once, by
one of two routes that give the same float.  When every edge has one p and
no product of the weight doubling rounds (``_level_numerators``: the
corpus's dyadic p qualify, the parallel family's √q does not), a mask's
weight depends only on its number j of open edges: the sum is
Σ_j N_j · nums[j] / 2^d over integer numerators cached per graph, where
N_j counts the hits with j open edges (the N-form of the reliability
polynomial).  Otherwise it is one ``math.fsum`` over the selected
weights, computed block by block: a block's weights are ``_measure`` of its
low edges times the high edges' factors in edge order, the same floats as
the doubling over every edge, so no 2^E float array is built.  fsum and int
division both round the exact sum once: the result depends only on the set
of weights summed, not their order or blocking, and the advertised 1e-12
tolerances are honest for the dyadic probabilities the built-in corpus
uses.  Pair sums and the prefix check read an event's truth table, a numpy
bool array indexed by mask; pairs of strategies that read c2 run Monte
Carlo's ``_pair_lanes`` on enumerated columns, and ``events.monotonicity``
compares the packed bits themselves.

A graph caches what later queries on it read again: hit bits, its level
numerators on the count route, and on the weight route the weights and the
low-edge measure of a block.  The measure of a mask that depends on S (the
complement of S) lives in the one pair query that builds it.  The splice
check holds its 2^E × 2^E joint table and one block of rows of pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import chain

import numpy as np

from . import config
from .errors import HypothesisError, SizeGuardError
from .events import (EventExpr, NPathsAtom, unparse, _columns, _evaluate_columns,
                     _evaluate_many, _lanes, _require_operands, _resolve, _split_occurs,
                     _from_byte_rows, _to_byte_rows, _transpose, _unpacked)
from .graphs import Graph
from .strategies import Strategy, splice_mask


def _check_size(g: Graph) -> None:
    if g.n_edges > config.MAX_EXACT_EDGES:
        raise SizeGuardError(f"exact enumeration limited to {config.MAX_EXACT_EDGES} edges")


def _check_pair_size(g: Graph) -> None:
    if g.n_edges > config.MAX_PAIR_EDGES:
        raise SizeGuardError(f"pair enumeration limited to {config.MAX_PAIR_EDGES} edges")


@cache
def _byte_subsets(byte: int) -> np.ndarray:
    """The submasks of an 8-bit mask in ascending order, as read-only int64."""
    subs = np.array([s for s in range(256) if s & byte == s], dtype=np.int64)
    subs.flags.writeable = False
    return subs


def _subsets(mask: int) -> np.ndarray:
    """The submasks of mask in ascending order, as int64 (read-only).

    Each byte of mask contributes its ``_byte_subsets``, ORed onto every
    submask of the bytes below it, so a mask of one byte costs a lookup.
    """
    subs = _byte_subsets(mask & 0xFF)
    for shift in range(8, mask.bit_length(), 8):
        subs = ((_byte_subsets(mask >> shift & 0xFF) << shift)[:, None] | subs).ravel()
    return subs


def _measure(g: Graph, mask: int) -> np.ndarray:
    """The probabilities of the ``_subsets`` of mask over the edges of mask,
    in their order: a doubling over the edges of mask in index order, where
    the second half of each step opens the edge with weight p and the first
    keeps it closed with 1 - p.
    """
    bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
    probs = np.ones(1 << len(bits))
    for k, i in enumerate(bits):
        np.multiply(probs[:1 << k], g.probs[i], out=probs[1 << k:2 << k])
        probs[:1 << k] *= 1.0 - g.probs[i]
    return probs


def _graph_measure(g: Graph, mask: int) -> np.ndarray:
    """``_measure`` of a mask that later queries on g read again, cached per
    graph: every edge (the weights) or the low edges of a block."""
    if mask not in g._measures:
        g._measures[mask] = _measure(g, mask)
    return g._measures[mask]


def weights(g: Graph) -> np.ndarray:
    """Probability of every configuration mask, index-aligned."""
    _check_size(g)
    return _graph_measure(g, (1 << g.n_edges) - 1)


def _fsum(a: np.ndarray) -> float:
    """fsum of a contiguous float64 array, read as Python floats without a list."""
    return math.fsum(memoryview(a))


def _block_bits(g: Graph, width: int) -> int:
    """The k of the blocks of 2^k masks that cut the 2^width masks: the
    largest with 2^k mask × (vertex + edge) cells at most
    ``config.BLOCK_CELLS``, but at least 3 (whole bytes of hit bits) and at
    most width."""
    cells = config.BLOCK_CELLS // (g.n_vertices + g.n_edges)
    return min(width, max(3, cells.bit_length() - 1))


def _blocks(width: int, k: int):
    """The edge columns of each block of 2^k of the 2^width masks, in mask
    order: the low k edges are the periodic ``_columns(k)``, and each higher
    edge is constant over the block, all 0 or all 1."""
    low, full = _columns(k), (1 << (1 << k)) - 1
    for b in range(1 << (width - k)):
        yield low + [full * (b >> j & 1) for j in range(width - k)]


def _block_weights(g: Graph, k: int):
    """The weights of each block of 2^k masks, in mask order: ``_measure``
    of the low k edges times each higher edge's factor, p open or 1 - p
    closed, in edge order.  The doubling of ``weights`` multiplies in the
    same order, so these are its floats."""
    low = _graph_measure(g, (1 << k) - 1)
    for b in range(1 << (g.n_edges - k)):
        w = low
        for j, p in enumerate(g.probs[k:]):
            w = w * (p if b >> j & 1 else 1.0 - p)
        yield w


def _split_any(tab_a: np.ndarray, tab_b: np.ndarray, fixed_a, rest: int, fixed_b):
    """Is there a witness split, a submask W of rest, with A on W | fixed_a
    and B on (rest & ~W) | fixed_b?

    tab_a and tab_b are truth tables.  fixed_a and fixed_b are each one mask
    or an array of them; the answer is a numpy bool of shape fixed_a's then
    fixed_b's, one per pair.  It is one boolean product, A on (fixed_a, W)
    times B on (W, fixed_b): numpy's bool matmul, exact and without BLAS.
    """
    ws = _subsets(rest)
    fixed_a, fixed_b = np.asarray(fixed_a), np.asarray(fixed_b)
    on_a = tab_a[fixed_a[..., None] | ws]
    on_b = tab_b[fixed_b.reshape(-1, 1) | (rest ^ ws)]  # one row per fixed_b
    return (on_a @ on_b.T).reshape(fixed_a.shape + fixed_b.shape)


def _submasks(masks: np.ndarray, p: int) -> np.ndarray:
    """The submasks of each of masks (all of p bits), a row each, ascending."""
    subs = np.zeros((len(masks), 1), np.int64)
    for _ in range(p):
        low = masks & -masks
        subs, masks = np.concatenate((subs, subs | low[:, None]), 1), masks ^ low
    return subs


def _hit_bits(g: Graph, events: list) -> list[np.ndarray]:
    """Indicator of each event over all configuration masks, as read-only
    packed little-endian bits cached per graph, keyed by the event's
    canonical text.  The uncached events are evaluated together, block by
    block, on the columns of ``_blocks``."""
    keys = [unparse(e) for e in events]
    todo = {key: e for key, e in zip(keys, events) if key not in g._event_tables}
    if todo:
        _check_size(g)
        for e in todo.values():
            _resolve(e, g)
        k = _block_bits(g, g.n_edges)
        rows = np.empty((len(todo), max(1, (1 << g.n_edges) >> 3)), dtype=np.uint8)
        step = rows.shape[1] >> (g.n_edges - k)  # bytes per block
        for b, cols in enumerate(_blocks(g.n_edges, k)):
            hits = _evaluate_many(list(todo.values()), g, cols, 1 << k)
            rows[:, b * step:(b + 1) * step] = _to_byte_rows(hits, 1 << k)
        rows.flags.writeable = False
        g._event_tables.update(zip(todo, rows))
    return [g._event_tables[key] for key in keys]


def truth_tables(g: Graph, events: list) -> list[np.ndarray]:
    """Indicator of each event over all configuration masks, as bool arrays
    indexed by mask: its ``_hit_bits``, unpacked."""
    n = 1 << g.n_edges
    return [np.unpackbits(bits, bitorder="little")[:n].view(np.bool_)
            for bits in _hit_bits(g, events)]


def truth_table(g: Graph, e: EventExpr) -> np.ndarray:
    """The truth table of one event (see ``truth_tables``)."""
    return truth_tables(g, [e])[0]


def _level_numerators(p: float, n_edges: int):
    """(nums, d) with nums[j] / 2^d the float weight of every mask with j of
    its n_edges edges open, each edge open with probability p; None unless
    the doubling of ``_measure`` rounds no product.

    p = a / 2^s and 1 - p = b / 2^t with a and b odd.  A product of the
    doubling is a^i b^l / 2^(si + tl) with i + l at most n_edges, so it is
    exact when max(a, b)^n_edges < 2^53 and no level p^j (1 - p)^(n_edges - j),
    the smallest product on its way, is subnormal.  Then a mask's weight is
    its level, whatever the order of the factors."""
    (a, s), (b, t) = p.as_integer_ratio(), (1.0 - p).as_integer_ratio()
    if not (a and b and max(a, b) ** n_edges < 1 << 53
            and (a ** n_edges << 1022) >= s ** n_edges
            and (b ** n_edges << 1022) >= t ** n_edges):
        return None
    s, t = s.bit_length() - 1, t.bit_length() - 1
    d = n_edges * max(s, t)
    return [a ** j * b ** (n_edges - j) << (d - s * j - t * (n_edges - j))
            for j in range(n_edges + 1)], d


def _graph_levels(g: Graph):
    """``_level_numerators`` of the one p of g's edges, or None when they
    differ in p.  Kept on the graph next to its weights, so it lives as long
    as the graph: E + 1 integers of at most 53 + d bits."""
    if "levels" not in g._measures:
        ps = set(g.probs)
        g._measures["levels"] = _level_numerators(ps.pop(), g.n_edges) if len(ps) == 1 else None
    return g._measures["levels"]


@cache
def _level_masks(k: int) -> tuple[int, ...]:
    """The k-edge masks by number of open edges: bit m of entry j is set
    iff mask m has j bits set.  Each edge doubles the masks, and the new
    half, with the edge open, moves up one level.  Cached per block width
    k: at most 2^k / 8 bytes per level, 136 KiB at k = 16."""
    levels = [1]
    for i in range(k):
        levels = [lo | hi << (1 << i) for lo, hi in zip(levels + [0], [0] + levels)]
    return tuple(levels)


def exact_probs(g: Graph, events: list) -> list[float]:
    """Probabilities of several events, from hit bits evaluated together.

    When every edge has one p whose doubling rounds no product
    (``_level_numerators``), a mask's weight depends on its number of open
    edges alone: a probability is the sum over j of N_j, the hits with j
    open edges, times the integer numerator of level j, over 2^d, rounded
    once by int division.  N_j comes block by block, as the popcount of the
    block's hits within each ``_level_masks`` of its low edges, shifted by
    the block's open high edges.  fsum of the weights rounds the same exact
    sum once, so the float is the same.  Otherwise each is one fsum over the
    weights its hit bits select, one block of weights at a time."""
    hits = _hit_bits(g, events)
    k = _block_bits(g, g.n_edges)
    n = 1 << k
    step = max(1, n >> 3)  # bytes per block
    levels = _graph_levels(g)
    if levels is not None:
        nums, d = levels
        masks = _level_masks(k)

        def prob(bits):
            total = 0
            for b in range(1 << (g.n_edges - k)):
                block = int.from_bytes(bits[b * step:(b + 1) * step], "little")
                total += sum(num * (block & mask).bit_count()
                             for num, mask in zip(nums[b.bit_count():], masks))
            return total / (1 << d)
    else:
        def selected(bits):
            for b, w in enumerate(_block_weights(g, k)):
                sel = np.unpackbits(bits[b * step:(b + 1) * step], bitorder="little")[:n]
                yield memoryview(w[sel.view(np.bool_)])

        def prob(bits):
            return math.fsum(chain.from_iterable(selected(bits)))

    return [prob(bits) for bits in hits]


def exact_prob(g: Graph, e: EventExpr) -> float:
    """Probability of the event under independent edge openings."""
    return exact_probs(g, [e])[0]


def exact_npaths(g: Graph, u: str, v: str, n: int) -> float:
    """Probability of n pairwise edge-disjoint open u-v paths."""
    return exact_prob(g, NPathsAtom(u, v, n))


# ---------------------------------------------------------------------------
# Pair queries


@dataclass(frozen=True)
class Joint:
    """P(c1 in A and the S-splice of (c1, c2) in B)."""
    A: EventExpr
    B: EventExpr


@dataclass(frozen=True)
class SqS:
    """P of the S-relative disjoint occurrence of A and B (both increasing)."""
    A: EventExpr
    B: EventExpr


def _s_masks(g: Graph, t: Strategy, n: int, cols1: list[int], cols2=None) -> np.ndarray:
    """The S mask of t on each of the n configuration pairs of the columns, as int64."""
    return (1 << np.arange(g.n_edges)) @ _unpacked(t._reveal_columns(g, cols1, n, cols2)[1], n)


def _check_prefix(g: Graph, t: Strategy, e: EventExpr) -> None:
    """Refuse a prefix t that reveals an edge into Sbar, or that does not
    decide e: e must be constant on the completions, over the complement of
    S, of every leaf (S, c1 ∩ S) of t."""
    n = 1 << g.n_edges
    queried, s_cols = t._reveal_columns(g, _columns(g.n_edges), n)
    if any(q & ~s for q, s in zip(queried, s_cols)):
        raise HypothesisError("prefix strategy must reveal everything into S")
    tab = truth_table(g, e)
    for s_mask, pinned in {(s, m1 & s) for m1, s in enumerate(_transpose(s_cols, n))}:
        on = tab[pinned | _subsets((n - 1) & ~s_mask)]
        if on.any() != on.all():
            raise HypothesisError("prefix strategy does not decide the conditioning event")


def _check_query(g: Graph, q) -> None:
    """Validate a pair query: a Joint, or an SqS of increasing operands, on g's vertices."""
    if isinstance(q, SqS):
        _require_operands(q.A, q.B, g)
    elif isinstance(q, Joint):
        _resolve(q.A, g)
        _resolve(q.B, g)
    else:
        raise TypeError(f"unknown pair query {q!r}")


def _pair_lanes(g: Graph, t: Strategy, q, cols1: list[int], cols2: list[int], n: int):
    """The ascending positions of the pairs where the query holds, of n
    configuration pairs given as the edge columns of c1 and c2.

    Neither query holds unless c1 is in A (for SqS, A is increasing), so S
    is revealed on the configurations in A, chosen by row, and B is read on
    the splice there.  SqS implies Joint, so only the Joint hits are
    searched for a witness split, one pair at a time.
    """
    in_a = _evaluate_columns(q.A, g, cols1, n)
    s_cols = t._reveal_columns(g, cols1, n, cols2, keep=in_a)[1]
    joint = in_a & _evaluate_columns(q.B, g, list(map(splice_mask, cols1, cols2, s_cols)), n)
    lanes = _lanes(joint, n)
    if isinstance(q, SqS):
        found = [_split_occurs(q.A, q.B, g, m1, m2, s_mask) for m1, m2, s_mask in
                 zip(*(_transpose(cols, n, joint) for cols in (cols1, cols2, s_cols)))]
        lanes = lanes[np.array(found, bool)]
    return lanes


def exact_pair(g: Graph, t: Strategy, q) -> float:
    """Exact probability of a pair query, with S read per configuration pair.

    Strategies that never read the second configuration admit a factorized
    sum: S of every c1 comes from one pass over the columns of the c1 that
    count, and c2 is summed over the complement of S.  The c1 are sorted
    into leaves (S, c1 ∩ S) within classes (S, number of split edges); per
    class, bool products of A on each c1 side outside S with each split W of
    c1 ∩ S and B on each c2 side with the rest decide every pair, in chunks
    of at most ``config.BLOCK_CELLS`` / 64 cells per array.  Joint splits
    nothing (W = ∅), SqS skips the leaves where the increasing B fails on
    c1 ∩ S and all of Sbar, and each c1 keeps its own inner sum, as a sum
    per c1 does.  Strategies that read c2 run ``_pair_lanes`` once per c1.
    """
    _check_pair_size(g)
    _check_query(g, q)
    w = weights(g)
    full = (1 << g.n_edges) - 1
    tab_a, tab_b = truth_tables(g, [q.A, q.B])
    # Joint asks for c1 in A; for SqS A is increasing, so no split of c1 has A
    # on its part unless c1 is in A
    m1s = np.flatnonzero((w != 0.0) & tab_a)
    terms = []
    if not t.uses_c2:
        sqs, e, w1 = isinstance(q, SqS), g.n_edges, w.tolist()  # w1: floats as numpy's
        bits = np.packbits(m1s >> np.arange(e)[:, None] & 1, axis=1, bitorder="little")
        s = _s_masks(g, t, len(m1s), _from_byte_rows(bits))
        pin = m1s & s
        size = np.unpackbits(pin.view(np.uint8)).reshape(-1, 64).sum(1, np.int64) if sqs else 0
        key = ((s << 5 | size) << e | pin) << e | m1s  # 3E + 5 bits, at most 63 to E = 19
        if sqs:  # B is increasing: a leaf has no hit unless B holds on c1 ∩ S | Sbar
            key = key[tab_b[pin | full & ~s]]
        key = np.array(sorted(key.tolist()), np.int64)  # class, leaf, c1; np.sort maps 0.25 MB
        leaf_of = key >> e  # the class and c1 ∩ S of each c1
        new_leaf = leaf_of != np.concatenate(([-1], leaf_of[:-1]))
        leaf_no, first = new_leaf.cumsum() - 1, np.flatnonzero(new_leaf)
        leaf = leaf_of[first]  # the class and c1 ∩ S of each leaf
        cls = leaf >> e
        bounds = np.flatnonzero(cls != np.concatenate(([-1], cls[:-1]))).tolist() + [len(cls)]
        c1s, first, cls = (key & full).tolist(), first.tolist() + [len(key)], cls.tolist()
        measured = None  # the complement of S whose measure m is, for this query alone
        for la, lb in zip(bounds, bounds[1:]):  # the leaves of a class
            c0, c1, out, p = first[la], first[lb], full & ~(cls[la] >> 5), cls[la] & 31
            if out != measured:  # c2 is summed over Sbar
                measured, m = out, _measure(g, out)
            c2s, pinned = _subsets(out), leaf[la:lb] & full
            rows = len(c2s) if sqs else 1  # an SqS row per c1 ∩ Sbar, a Joint row per leaf
            at = ((leaf_no[c0:c1] - la) * rows  # the row of each c1
                  + (np.searchsorted(c2s, key[c0:c1] & out) if sqs else 0)).tolist()
            step = 1 << max(0, config.BLOCK_CELLS.bit_length() - 7 - max(out.bit_count(), p))
            for i in dict.fromkeys(j - j % step for j in at):  # the chunks that hold a c1
                lo, hi = bisect_left(at, i), bisect_left(at, i + step)
                chunk = pinned[i // rows:max(i // rows + 1, (i + step) // rows)]  # its leaves
                ws = _submasks(chunk, p) if sqs else 0  # Joint splits nothing: W = 0
                hits = tab_b[(chunk[:, None] ^ ws)[..., None] | c2s]
                if sqs:
                    hits = tab_a[c2s[i % rows:i % rows + step, None] | ws[:, None]] @ hits
                hits, rows_at = hits.reshape(-1, len(c2s)), [j - i for j in at[lo:hi]]
                sums = {j: _fsum(m[hits[j]]) for j in dict.fromkeys(rows_at)}  # rows read
                terms += [w1[m1] * sums[j] for m1, j in zip(c1s[c0 + lo:c0 + hi], rows_at)]
        return math.fsum(terms)
    cols, every = _columns(g.n_edges), (1 << len(w)) - 1
    for m1 in m1s.tolist():
        c1_cols = [every * (m1 >> j & 1) for j in range(g.n_edges)]  # c1 = m1 in every pair
        terms += (w[m1] * w[_pair_lanes(g, t, q, c1_cols, cols, len(w))]).tolist()
    return math.fsum(terms)


def verify_splice_independence(g: Graph, t: Strategy) -> float:
    """Max deviation of the law of (splice, co-splice) from the product law.

    The two hybrids built from an adaptively revealed S are independent and
    each distributed as the base measure; this returns the largest absolute
    error of that claim over all outcome pairs.

    The joint law is one table over the 2^E × 2^E outcome pairs, filled by
    blocks of rows of c1.  A block's pairs hold four 64-bit words each: S,
    the splice, the co-splice and the product of their weights.  So a block
    of 2^k pairs is the largest with 2^k × 4 × 64 bits at most
    ``config.BLOCK_CELLS``, and at least one row.  ``np.add.at`` accumulates
    in (m1, m2) order whatever the blocks, so the deviation does not depend
    on them.
    """
    if g.n_edges > config.MAX_SPLICE_EDGES:
        raise SizeGuardError(
            f"splice-independence check limited to {config.MAX_SPLICE_EDGES} edges")
    w = weights(g)
    n = len(w)
    e = g.n_edges
    # pair m1·n + m2 has c2 in its low E bits and c1 in its high
    k = min(2 * e, max(e, (config.BLOCK_CELLS // (4 * 64)).bit_length() - 1))
    rows = 1 << (k - e)
    if t.uses_c2:
        s_rows = (_s_masks(g, t, rows * n, cols[e:], cols[:e]).reshape(rows, n)
                  for cols in _blocks(2 * e, k))
    else:  # one S per c1, n masks in all
        s_all = _s_masks(g, t, n, _columns(e))[:, None]
        s_rows = (s_all[r:r + rows] for r in range(0, n, rows))
    m2s = np.arange(n)
    joint = np.zeros((n, n))
    for r, s in zip(range(0, n, rows), s_rows):
        m1s = np.arange(r, r + rows)[:, None]
        cell = splice_mask(m1s, m2s, s) << e  # the flat index of (splice, co-splice)
        cell |= splice_mask(m2s, m1s, s)
        np.add.at(joint.reshape(-1), cell.ravel(),
                  np.outer(w[r:r + rows], w).ravel())  # accumulates in (m1, m2) order
    return max(float(np.abs(joint[r:r + rows] - np.outer(w[r:r + rows], w)).max())
               for r in range(0, n, rows))
