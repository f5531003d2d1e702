"""Bit-sliced enumeration against the per-mask oracle.

Truth tables and Menger flow levels are built from periodic edge columns by
the shared bit-parallel evaluator; these tests compare them, bit for bit,
with ``evaluate_mask`` and ``open_maxflow`` run on every configuration mask.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolab import (Graph, exact_npaths, exact_prob, generate,
                      graph_from_spec, parse_event)
from percolab.events import (Complement, Intersect, NPathsAtom, PartitionAtom,
                             Union, evaluate_mask, open_maxflow)
from percolab.exact import _columns, _level, flow_table, truth_table

_VERTS = ("a", "b", "c", "d", "e")
_MAX_EDGES = 9


@st.composite
def _graphs(draw):
    """Connected simple graphs on 2..5 vertices with 1..9 edges."""
    nv = draw(st.integers(2, len(_VERTS)))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, nv)]
    others = [(i, j) for i in range(nv) for j in range(i + 1, nv)
              if (i, j) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True,
                          max_size=_MAX_EDGES - len(tree))) if others else []
    edges = [(f"e{k}", _VERTS[i], _VERTS[j])
             for k, (i, j) in enumerate(tree + extra)]
    probs = {eid: draw(st.sampled_from((0.25, 0.5, 0.75))) for eid, _, _ in edges}
    return Graph(_VERTS[:nv], edges, probs, ("a", "b"))


def _disjoint_groups(groups):
    seen = set()
    out = []
    for grp in groups:
        grp = tuple(v for v in grp if v not in seen)
        if not grp:
            return None
        seen.update(grp)
        out.append(grp)
    return PartitionAtom(tuple(out))


def _events(names):
    name = st.sampled_from(names)
    partition = st.lists(st.lists(name, min_size=1, max_size=2, unique=True),
                         min_size=1, max_size=3).map(_disjoint_groups).filter(bool)
    npaths = st.builds(NPathsAtom, name, name, st.integers(1, 3))
    self_paths = st.builds(lambda v, n: NPathsAtom(v, v, n), name, st.integers(1, 3))
    return st.recursive(
        st.one_of(partition, npaths, self_paths),
        lambda sub: st.one_of(
            st.lists(sub, min_size=2, max_size=3).map(lambda xs: Union(tuple(xs))),
            st.lists(sub, min_size=2, max_size=3).map(lambda xs: Intersect(tuple(xs))),
            sub.map(Complement)),
        max_leaves=5)


@st.composite
def _graph_and_event(draw):
    g = draw(_graphs())
    return g, draw(_events(g.vertices))


def _oracle_table(g, e):
    return bytearray(evaluate_mask(e, g, m) for m in range(1 << g.n_edges))


@given(_graph_and_event())
@settings(max_examples=150, deadline=None)
def test_truth_table_matches_per_mask_oracle(ge):
    g, e = ge
    assert truth_table(g, e) == _oracle_table(g, e)


@given(_graphs())
@settings(max_examples=40, deadline=None)
def test_flow_levels_match_maxflow(g):
    depth = max(g.degree(v) for v in g.vertices) + 2
    for u in g.vertices:
        for v in g.vertices:
            levels = flow_table(g, u, v)
            for m in range(1 << g.n_edges):
                flow = open_maxflow(g, m, u, v)
                for k in range(1, depth + 1):
                    assert (_level(levels, k) >> m & 1) == (flow >= k), (u, v, m, k)


@pytest.mark.parametrize("n_edges", [1, 2, 3, 4])
def test_columns_are_mask_bits(n_edges):
    # columns of 1 and 2 edges are shorter than one byte
    cols = _columns(n_edges)
    for j, col in enumerate(cols):
        assert col == sum(1 << m for m in range(1 << n_edges) if m >> j & 1)


@pytest.mark.parametrize("n", [1, 2])
def test_short_paths_match_oracle(n):
    g = generate("path", n, p=0.5)
    for text in ("a,b", "a|b", "!(a,b)", "npaths(a,b,1)", "npaths(a,b,2)",
                 "npaths(a,a,2)", "a,b U npaths(b,b,3)"):
        e = parse_event(text)
        assert truth_table(g, e) == _oracle_table(g, e), text


def test_self_pair_always_holds():
    g = generate("cycle", 4, p=0.5)
    full = (1 << (1 << g.n_edges)) - 1
    assert flow_table(g, "a", "a") == [full]
    assert exact_npaths(g, "a", "a", 5) == pytest.approx(1.0, abs=1e-12)
    assert exact_prob(g, parse_event("npaths(a,a,7)")) == pytest.approx(1.0, abs=1e-12)


def test_npaths_independent_of_call_order():
    spec = "family:parallel:9,q=0.5"
    g = graph_from_spec(spec)
    up = [exact_npaths(g, "a", "b", 1), exact_npaths(g, "a", "b", 9)]
    g = graph_from_spec(spec)
    down = [exact_npaths(g, "a", "b", 9), exact_npaths(g, "a", "b", 1)]
    assert up == down[::-1]
    assert up[1] == pytest.approx(0.5 ** 9, abs=1e-12)
    assert up[0] == pytest.approx(1.0 - 0.5 ** 9, abs=1e-12)
