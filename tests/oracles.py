"""Per-mask reference evaluation for the tests: the independent oracle.

``evaluate_mask`` walks an event tree on one configuration mask, reading
partition atoms from ``cluster_labels``, a union-find of its own, and npaths
atoms from ``open_maxflow``, a breadth-first augmenting-path max-flow.  They
use only ``Graph`` and the event node classes from ``percolab``, so they
share no code with the column evaluator of ``percolab.events`` that the
library runs, and the tests compare the two bit for bit.

``column_split`` is the reference for the witness search of disjoint
occurrence: it evaluates all 2^k witness splits at once on the column
evaluator.  It shares the evaluator with the library, which the oracles
above check, and none of the search.

``exact_pair_per_c1`` is the reference for the per-leaf sums of
``exact_pair``: it takes the inner sum over c2 once per c1 in A, reading
the Joint hits from B's truth table and the SqS hits from one
``_split_any`` product per c1, not once per leaf (S, c1 ∩ S).  It shares
the tables, the weights, the strategies and the split product with the
library, and none of the grouping.

``mc_pair_all_lanes`` is the reference for the lane restriction of
``mc_pair``: it reveals S on every sample pair, not only on those with A on
c1.  It shares the sampler, the evaluator, the strategies and the witness
search with the library, and none of the restriction.
"""

from __future__ import annotations

import math

import numpy as np

from percolab.events import (Complement, EventExpr, Intersect, NPathsAtom,
                             PartitionAtom, Union, _columns, _evaluate_columns,
                             _split_occurs, _transpose)
from percolab.exact import (Joint, SqS, _check_query, _fsum, _measure, _s_masks, _split_any,
                            _subsets, truth_tables, weights)
from percolab.graphs import Graph
from percolab.mc import Estimate, _blocks, _edge_bit_columns


# ---------------------------------------------------------------------------
# Cluster labels by union-find


def cluster_labels(g: Graph, mask: int) -> list[int]:
    """Connected-component label per vertex index under the open edges of mask."""
    parent = list(range(g.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    m = mask
    i = 0
    while m:
        if m & 1:
            ru = find(g._u_arr[i])
            rv = find(g._v_arr[i])
            if ru != rv:
                parent[rv] = ru
        m >>= 1
        i += 1
    return [find(x) for x in range(g.n_vertices)]


# ---------------------------------------------------------------------------
# Unit-capacity max-flow on the open subgraph (edge-disjoint paths)


def open_maxflow(g: Graph, mask: int, u: str, v: str, cap: int | None = None) -> int:
    """Number of pairwise edge-disjoint open u-v paths (stops early at cap).

    For u == v the empty path repeats without limit: the count is cap, or
    1 << 30 without one.
    """
    if u == v:
        return 1 << 30 if cap is None else cap
    s = g.vertex_index(u)
    t = g.vertex_index(v)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n_vertices)]
    m = mask
    i = 0
    while m:
        if m & 1:
            a, b = g._u_arr[i], g._v_arr[i]
            adj[a].append((i, b))
            adj[b].append((i, a))
        m >>= 1
        i += 1
    # flow state per edge: 0 unused, +1 used u->v, -1 used v->u
    state = [0] * g.n_edges
    flow = 0
    while cap is None or flow < cap:
        prev = [-1] * g.n_vertices
        prev_edge = [-1] * g.n_vertices
        prev[s] = s
        queue = [s]
        qi = 0
        found = False
        while qi < len(queue) and not found:
            x = queue[qi]
            qi += 1
            for eidx, y in adj[x]:
                if prev[y] != -1:
                    continue
                direction = 1 if x == g._u_arr[eidx] else -1
                # traversable if unused, or undoing the opposite direction
                if state[eidx] == 0 or state[eidx] == -direction:
                    prev[y] = x
                    prev_edge[y] = eidx
                    if y == t:
                        found = True
                        break
                    queue.append(y)
        if not found:
            break
        y = t
        while y != s:
            eidx = prev_edge[y]
            x = prev[y]
            direction = 1 if x == g._u_arr[eidx] else -1
            state[eidx] = 0 if state[eidx] == -direction else direction
            y = x
        flow += 1
    return flow


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_mask(e: EventExpr, g: Graph, mask: int) -> bool:
    """The per-mask reference of the column evaluator, walking the tree itself."""
    if isinstance(e, PartitionAtom):
        labels = cluster_labels(g, mask)
        reps = []
        for grp in e.groups:
            first = labels[g.vertex_index(grp[0])]
            for v in grp[1:]:
                if labels[g.vertex_index(v)] != first:
                    return False
            reps.append(first)
        return len(set(reps)) == len(reps)
    if isinstance(e, NPathsAtom):
        return open_maxflow(g, mask, e.u, e.v, cap=e.n) >= e.n
    if isinstance(e, Union):
        return any(evaluate_mask(x, g, mask) for x in e.items)
    if isinstance(e, Intersect):
        return all(evaluate_mask(x, g, mask) for x in e.items)
    if isinstance(e, Complement):
        return not evaluate_mask(e.item, g, mask)
    raise TypeError(f"not an event expression: {e!r}")


# ---------------------------------------------------------------------------
# Witness splits of disjoint occurrence, all 2^k at once


def column_split(A: EventExpr, B: EventExpr, g: Graph, m1: int, m2: int,
                 s_mask: int) -> bool:
    """The witness split of ``sq_s_occurrence`` on masks, operands validated.

    Column i of the split set is periodic over the i-th open S-edge of c1.
    A reads those columns plus the open c1 edges outside S; B reads their
    complements plus the open c2 edges outside S.
    """
    s_open = s_mask & m1
    k = s_open.bit_count()
    n = 1 << k
    full = (1 << n) - 1
    fixed_a, fixed_b = m1 & ~s_mask, m2 & ~s_mask
    cols_a = [full if fixed_a >> j & 1 else 0 for j in range(g.n_edges)]
    cols_b = [full if fixed_b >> j & 1 else 0 for j in range(g.n_edges)]
    for j, col in zip([j for j in range(g.n_edges) if s_open >> j & 1], _columns(k)):
        cols_a[j], cols_b[j] = col, full ^ col
    t_a = _evaluate_columns(A, g, cols_a, n)
    return bool(t_a) and bool(t_a & _evaluate_columns(B, g, cols_b, n))


# ---------------------------------------------------------------------------
# Exact pair queries of strategies that read c1 alone, one sum per c1


def exact_pair_per_c1(g: Graph, t, q) -> float:
    """``exact_pair`` of a strategy that never reads c2, with the inner sum
    over c2 outside S taken anew for every c1 in A."""
    _check_query(g, q)
    w = weights(g)
    full = (1 << g.n_edges) - 1
    tab_a, tab_b = truth_tables(g, [q.A, q.B])
    m1s = np.flatnonzero((w != 0.0) & tab_a).tolist()
    terms = []
    for m1, s_mask in zip(m1s, _s_masks(g, t, len(m1s), _transpose(m1s, g.n_edges))):
        out = full & ~s_mask
        if isinstance(q, Joint):
            hits = tab_b[(m1 & s_mask) | _subsets(out)]
        else:
            hits = _split_any(tab_a, tab_b, m1 & out, m1 & s_mask, _subsets(out))
        terms.append(w[m1] * _fsum(_measure(g, out)[hits]))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Monte Carlo pair queries with S revealed on every sample


def mc_pair_all_lanes(g: Graph, t, q, n: int, seed: int):
    """``mc_pair`` with the strategy run on every sample pair of each block."""
    _check_query(g, q)
    hits = 0
    for first, m in _blocks(g, n):
        cols1 = _edge_bit_columns(g, m, seed, 2 * g.n_edges, 0, first)
        cols2 = _edge_bit_columns(g, m, seed, 2 * g.n_edges, g.n_edges, first)
        s_cols = t._reveal_columns(g, cols1, m, cols2)[1]
        spliced = [(c1 & s) | (c2 & ~s) for c1, c2, s in zip(cols1, cols2, s_cols)]
        joint = _evaluate_columns(q.A, g, cols1, m) & _evaluate_columns(q.B, g, spliced, m)
        if isinstance(q, SqS):
            hits += sum(_split_occurs(q.A, q.B, g, m1, m2, s_mask) for m1, m2, s_mask in
                        zip(*(_transpose(cols, m, joint) for cols in (cols1, cols2, s_cols))))
        else:
            hits += joint.bit_count()
    return Estimate.from_count(hits, n, seed)
