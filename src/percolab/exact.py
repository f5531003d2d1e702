"""Exact probabilities by exhaustive enumeration; the ground-truth oracle.

Configurations are bitmasks in lexicographic edge-id order.  Enumeration is
"sampling" with deterministic periodic columns: bit m of the column of edge
j is bit j of m, so the 2^E bits of the columns list every configuration
once.  Truth tables run these columns through the column evaluator of
``events``, the one Monte Carlo runs on sampled columns: a few big-integer
AND/OR sweeps per event instead of a cluster labelling per mask.

Disjoint-path counts come from Menger levels over the same columns.  Level
F_k is the bitmask of configurations with at least k pairwise edge-disjoint
open u-v paths.  Closing one open edge lowers the u-v max-flow by at most
one, and closing an edge of a minimum cut lowers it by exactly one, so

    F_1 = reach(u, v)
    F_k = F_1 & AND_j (~col_j | F_{k-1} << 2^j)

where shifting a table left by 2^j moves the value at m - 2^j (m with edge
j closed) to m.  The levels shrink to a fixed point: 0 by level
min(deg u, deg v) + 1, or every configuration when u == v.

Sums use math.fsum, which rounds the exact sum once, so the advertised 1e-12
tolerances are honest for the dyadic probabilities the built-in corpus uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import config
from .errors import SizeGuardError
from .events import (EventExpr, NPathsAtom, atoms, unparse, _columns,
                     _evaluate_columns, _reach_masks, _require_operands, _resolve)
from .graphs import Configuration, Graph
from .strategies import Strategy, run, splice_mask


def _check_size(g: Graph) -> None:
    if g.n_edges > config.MAX_EXACT_EDGES:
        raise SizeGuardError(f"exact enumeration limited to {config.MAX_EXACT_EDGES} edges")


def weights(g: Graph) -> list[float]:
    """Probability of every configuration mask, index-aligned."""
    if g._weights is not None:
        return g._weights
    _check_size(g)
    w = [1.0]
    for p in g.probs:
        q = 1.0 - p
        w = [x * q for x in w] + [x * p for x in w]
    g._weights = w
    return w


def _unpack(bits: int, n: int) -> bytearray:
    """One byte per mask m < n: 1 where bit m is set."""
    raw = np.frombuffer(bits.to_bytes(max(1, n >> 3), "little"), dtype=np.uint8)
    return bytearray(np.unpackbits(raw, bitorder="little")[:n])


def _level(levels: list[int], n: int) -> int:
    """Menger level F_n; levels past the stored fixed point equal the last."""
    return levels[min(n, len(levels)) - 1]


def truth_table(g: Graph, e: EventExpr) -> bytearray:
    """Indicator of the event over all configuration masks (cached per graph)."""
    key = unparse(e)
    tab = g._event_tables.get(key)
    if tab is not None:
        return tab
    _check_size(g)
    _resolve(e, g)
    n = 1 << g.n_edges
    npaths = {a: _level(flow_table(g, a.u, a.v), a.n)
              for a in atoms(e) if isinstance(a, NPathsAtom)}
    tab = _unpack(_evaluate_columns(e, g, _columns(g.n_edges), n, npaths), n)
    g._event_tables[key] = tab
    return tab


def flow_table(g: Graph, u: str, v: str) -> list[int]:
    """Menger levels between u and v (cached per graph).

    Entry k-1 is the bitmask of configuration masks with at least k pairwise
    edge-disjoint open u-v paths.  The list ends at the fixed point of the
    level recursion, and every deeper level equals its last entry: 0 when
    u != v, every mask when u == v.
    """
    key = (u, v)
    levels = g._flow_tables.get(key)
    if levels is not None:
        return levels
    _check_size(g)
    n = 1 << g.n_edges
    cols = _columns(g.n_edges)
    first = _reach_masks(g, cols, n, [u])[u][v]
    levels = [first]
    while levels[-1]:
        prev = levels[-1]
        nxt = first
        for j, col in enumerate(cols):
            nxt &= ~col | (prev << (1 << j))
        if nxt == prev:  # only when u == v: every level is every mask
            break
        levels.append(nxt)
    g._flow_tables[key] = levels
    return levels


def exact_prob(g: Graph, e: EventExpr) -> float:
    """Probability of the event under independent edge openings."""
    w = weights(g)
    return math.fsum(compress(w, truth_table(g, e)))


def exact_npaths(g: Graph, u: str, v: str, n: int) -> float:
    """Probability of n pairwise edge-disjoint open u-v paths."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _resolve(NPathsAtom(u, v, n), g)
    w = weights(g)
    return math.fsum(compress(w, _unpack(_level(flow_table(g, u, v), n), len(w))))


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


def _submask_weights(g: Graph, mask: int) -> list[tuple[int, float]]:
    """(submask, probability) for the edges selected by mask, cached."""
    cached = g._submask_cache.get(mask)
    if cached is not None:
        return cached
    pairs = [(0, 1.0)]
    i = 0
    m = mask
    while m:
        if m & 1:
            p = g.probs[i]
            bit = 1 << i
            pairs = [(sm, wt * (1.0 - p)) for sm, wt in pairs] + \
                    [(sm | bit, wt * p) for sm, wt in pairs]
        m >>= 1
        i += 1
    g._submask_cache[mask] = pairs
    return pairs


def _s_mask_for(g: Graph, t: Strategy, m1: int, m2: int = 0) -> int:
    trace = run(t, g, Configuration(g, m1), Configuration(g, m2))
    return trace.s_mask(g)


def _minimal_antichain(masks: list[int]) -> list[int]:
    masks = sorted(masks, key=lambda m: m.bit_count())
    keep: list[int] = []
    for m in masks:
        if not any(k & m == k for k in keep):
            keep.append(m)
    return keep


def exact_pair(g: Graph, t: Strategy, q) -> float:
    """Exact probability of a pair query, with S rebuilt per configuration pair.

    Strategies that never read the second configuration admit a factorized
    sum: enumerate c1, run the strategy once, and integrate the second
    configuration analytically over the complement of S.
    """
    if g.n_edges > config.MAX_PAIR_EDGES:
        raise SizeGuardError(f"pair enumeration limited to {config.MAX_PAIR_EDGES} edges")
    if isinstance(q, SqS):
        _require_operands(q.A, q.B, g)
    elif not isinstance(q, Joint):
        raise TypeError(f"unknown pair query {q!r}")
    if not t.uses_c2:
        return _pair_fast(g, t, q)
    return _pair_general(g, t, q)


def _pair_fast(g: Graph, t: Strategy, q) -> float:
    w = weights(g)
    full = (1 << g.n_edges) - 1
    tab_a = truth_table(g, q.A)
    tab_b = truth_table(g, q.B)
    terms = []
    for m1 in range(len(w)):
        w1 = w[m1]
        if w1 == 0.0:
            continue
        if isinstance(q, Joint) and not tab_a[m1]:
            continue
        s_mask = _s_mask_for(g, t, m1)
        sbar = full & ~s_mask
        if isinstance(q, Joint):
            pinned = m1 & s_mask
            inner = math.fsum(wt for sub, wt in _submask_weights(g, sbar)
                              if tab_b[pinned | sub])
        else:
            s_open = s_mask & m1
            fixed_a = sbar & m1
            ok_w = [wm for wm, _ in _submask_weights(g, s_open)
                    if tab_a[wm | fixed_a]]
            if not ok_w:
                continue
            ok_w = _minimal_antichain(ok_w)
            inner = math.fsum(
                wt for sub, wt in _submask_weights(g, sbar)
                if any(tab_b[(s_open & ~wm) | sub] for wm in ok_w))
        terms.append(w1 * inner)
    return math.fsum(terms)


def _pair_general(g: Graph, t: Strategy, q) -> float:
    w = weights(g)
    tab_a = truth_table(g, q.A)
    tab_b = truth_table(g, q.B)
    terms = []
    for m1 in range(len(w)):
        for m2 in range(len(w)):
            s_mask = _s_mask_for(g, t, m1, m2)
            if isinstance(q, Joint):
                ok = tab_a[m1] and tab_b[splice_mask(m1, m2, s_mask)]
            else:  # the witness splits of sq_s_occurrence, read from the tables
                s_open = s_mask & m1
                fixed_a, fixed_b = m1 & ~s_mask, m2 & ~s_mask
                ok = any(tab_a[wm | fixed_a] and tab_b[(s_open & ~wm) | fixed_b]
                         for wm, _ in _submask_weights(g, s_open))
            if ok:
                terms.append(w[m1] * w[m2])
    return math.fsum(terms)


def verify_splice_independence(g: Graph, t: Strategy) -> float:
    """Max deviation of the law of (splice, co-splice) from the product law.

    The two hybrids built from an adaptively revealed S are independent and
    each distributed as the base measure; this returns the largest absolute
    error of that claim over all outcome pairs.
    """
    if g.n_edges > config.MAX_SPLICE_EDGES:
        raise SizeGuardError(
            f"splice-independence check limited to {config.MAX_SPLICE_EDGES} edges")
    w = weights(g)
    n = len(w)
    joint: dict[tuple[int, int], float] = {}
    for m1 in range(n):
        s_row = ([_s_mask_for(g, t, m1, m2) for m2 in range(n)] if t.uses_c2
                 else [_s_mask_for(g, t, m1)] * n)
        w1 = w[m1]
        for m2, s_mask in enumerate(s_row):
            key = (splice_mask(m1, m2, s_mask), splice_mask(m2, m1, s_mask))
            joint[key] = joint.get(key, 0.0) + w1 * w[m2]
    dev = 0.0
    for x in range(n):
        wx = w[x]
        for y in range(n):
            dev = max(dev, abs(joint.get((x, y), 0.0) - wx * w[y]))
    return dev
