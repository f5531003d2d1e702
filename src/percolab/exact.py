"""Exact probabilities by exhaustive enumeration; the ground-truth oracle.

Configurations are bitmasks in lexicographic edge-id order.  Enumeration is
"sampling" with deterministic periodic columns: bit m of the column of edge
j is bit j of m, so the 2^E bits of the columns list every configuration
once.  Truth tables run these columns through the column evaluator of
``events``, the one Monte Carlo runs on sampled columns: a few big-integer
AND/OR sweeps per event instead of a cluster labelling or a max-flow per
mask.

Probabilities are float64 arrays indexed by mask, and truth tables are read
through zero-copy bool views, so a sum is one fancy-indexing step.  Sums use
math.fsum, which rounds the exact sum once: the result depends only on the
set of floats summed, not their order, and the advertised 1e-12 tolerances
are honest for the dyadic probabilities the built-in corpus uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import SizeGuardError
from .events import (EventExpr, NPathsAtom, unparse, _columns, _evaluate_columns,
                     _require_operands, _resolve)
from .graphs import Configuration, Graph
from .strategies import Strategy, run, splice_mask


def _check_size(g: Graph) -> None:
    if g.n_edges > config.MAX_EXACT_EDGES:
        raise SizeGuardError(f"exact enumeration limited to {config.MAX_EXACT_EDGES} edges")


def _check_pair_size(g: Graph) -> None:
    if g.n_edges > config.MAX_PAIR_EDGES:
        raise SizeGuardError(f"pair enumeration limited to {config.MAX_PAIR_EDGES} edges")


def _doubling(g: Graph, mask: int) -> tuple:
    """(submasks, probabilities) of mask over its edges, cached per graph.

    Built by doubling over the edges of mask in index order: the second half
    of each step sets the edge with weight p, the first keeps it closed with
    weight 1 - p.  The submasks of the full mask are 0 .. 2^E - 1 in order,
    so they are not built: their entry is None.
    """
    cached = g._submask_cache.get(mask)
    if cached is not None:
        return cached
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    whole = len(bits) == g.n_edges
    subs = None if whole else np.zeros(1 << len(bits), dtype=np.int64)
    probs = np.ones(1 << len(bits))
    h = 1
    for bit in bits:
        p = g.probs[bit.bit_length() - 1]
        np.multiply(probs[:h], p, out=probs[h:2 * h])
        probs[:h] *= 1.0 - p
        if not whole:
            np.bitwise_or(subs[:h], bit, out=subs[h:2 * h])
        h *= 2
    g._submask_cache[mask] = subs, probs
    return subs, probs


def _submasks(g: Graph, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """The submasks of mask and their probabilities over the edges of mask.

    The full mask's submasks are an index built on each call.
    """
    subs, probs = _doubling(g, mask)
    return (np.arange(len(probs)) if subs is None else subs), probs


def weights(g: Graph) -> np.ndarray:
    """Probability of every configuration mask, index-aligned."""
    _check_size(g)
    return _doubling(g, (1 << g.n_edges) - 1)[1]


def _view(tab: bytearray) -> np.ndarray:
    """A truth table as a bool array, without a copy."""
    return np.frombuffer(tab, dtype=np.bool_)


def _fsum(a: np.ndarray) -> float:
    """fsum of a contiguous float64 array, read as Python floats without a list."""
    return math.fsum(memoryview(a))


def _split_any(tab_a: np.ndarray, tab_b: np.ndarray, ws: np.ndarray, fixed_a: int,
               rest: int, fixed_b):
    """Is there a witness split W in ws with A on W | fixed_a and B on
    (rest & ~W) | fixed_b?

    tab_a and tab_b are truth tables read through ``_view``; ws holds
    submasks of rest.  fixed_b is one c2 side or an array of them; the
    answer is a numpy bool of the same shape, one per side.
    """
    b_side = rest ^ ws[tab_a[ws | fixed_a]]
    return tab_b[b_side | np.asarray(fixed_b)[..., None]].any(axis=-1)


def _unpack(bits: int, n: int) -> np.ndarray:
    """One bool per mask m < n: True where bit m is set."""
    raw = np.frombuffer(bits.to_bytes(max(1, n >> 3), "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n].view(np.bool_)


def truth_table(g: Graph, e: EventExpr) -> bytearray:
    """Indicator of the event over all configuration masks (cached per graph)."""
    key = unparse(e)
    tab = g._event_tables.get(key)
    if tab is not None:
        return tab
    _check_size(g)
    _resolve(e, g)
    n = 1 << g.n_edges
    tab = bytearray(_unpack(_evaluate_columns(e, g, _columns(g.n_edges), n), n))
    g._event_tables[key] = tab
    return tab


def exact_prob(g: Graph, e: EventExpr) -> float:
    """Probability of the event under independent edge openings."""
    w = weights(g)
    return _fsum(w[_view(truth_table(g, e))])


def exact_npaths(g: Graph, u: str, v: str, n: int) -> float:
    """Probability of n pairwise edge-disjoint open u-v paths."""
    if n < 1:
        raise ValueError("n must be >= 1")
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


def _s_mask_for(g: Graph, t: Strategy, m1: int, m2: int = 0) -> int:
    trace = run(t, g, Configuration(g, m1), Configuration(g, m2))
    return trace.s_mask(g)


def exact_pair(g: Graph, t: Strategy, q) -> float:
    """Exact probability of a pair query, with S rebuilt per configuration pair.

    Strategies that never read the second configuration admit a factorized
    sum: enumerate c1, run the strategy once, and integrate the second
    configuration analytically over the complement of S.
    """
    _check_pair_size(g)
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
    tab_a = _view(truth_table(g, q.A))
    tab_b = _view(truth_table(g, q.B))
    terms = []
    # A is increasing, so no split of c1 has A on its part unless c1 is in A
    for m1 in np.flatnonzero((w != 0.0) & tab_a).tolist():
        s_mask = _s_mask_for(g, t, m1)
        sbar = full & ~s_mask
        subs, probs = _submasks(g, sbar)  # c2 over the complement of S
        if isinstance(q, Joint):
            hit = tab_b[(m1 & s_mask) | subs]
        else:
            s_open = s_mask & m1
            hit = _split_any(tab_a, tab_b, _submasks(g, s_open)[0], sbar & m1, s_open, subs)
        terms.append(w[m1] * _fsum(probs[hit]))
    return math.fsum(terms)


def _pair_general(g: Graph, t: Strategy, q) -> float:
    w = weights(g)
    tab_a = _view(truth_table(g, q.A))
    tab_b = _view(truth_table(g, q.B))
    terms = []
    for m1 in np.flatnonzero(tab_a).tolist():
        for m2 in range(len(w)):
            s_mask = _s_mask_for(g, t, m1, m2)
            if isinstance(q, Joint):
                hit = tab_b[splice_mask(m1, m2, s_mask)]
            else:  # the witness splits of sq_s_occurrence, read from the tables
                s_open = s_mask & m1
                hit = _split_any(tab_a, tab_b, _submasks(g, s_open)[0], m1 & ~s_mask,
                                 s_open, m2 & ~s_mask)
            if hit:
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
    if t.uses_c2:
        s = np.array([[_s_mask_for(g, t, m1, m2) for m2 in range(n)] for m1 in range(n)])
    else:
        s = np.array([_s_mask_for(g, t, m1) for m1 in range(n)])[:, None]
    m1s, m2s = np.arange(n)[:, None], np.arange(n)
    product = np.outer(w, w)
    joint = np.zeros((n, n))
    np.add.at(joint, (splice_mask(m1s, m2s, s).ravel(), splice_mask(m2s, m1s, s).ravel()),
              product.ravel())  # accumulates in (m1, m2) order
    return float(np.abs(joint - product).max())
