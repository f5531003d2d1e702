"""Bit-sliced enumeration against the per-mask oracle.

Truth tables, flow levels, monotonicity and the witness splits of disjoint
occurrence are all read from edge columns by the shared column evaluator;
these tests compare them, bit for bit, with the per-mask oracle of
``tests/oracles.py``: ``evaluate_mask``, which walks the tree itself on
cluster labels, and ``open_maxflow``, run on one configuration mask at a
time.  The witness search of disjoint occurrence is compared with the
column split over all 2^k splits (``column_split``), and the table split
test and the submask probability arrays of the exact engine with plain
Python loops.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percolab import (Configuration, Graph, Monotonicity, disjoint_occurrence,
                      evaluate, events, exact_npaths, exact_prob, generate,
                      graph_from_spec, monotonicity, parse_event, sq_s_occurrence)
from percolab.events import (Complement, Intersect, NPathsAtom, PartitionAtom,
                             Union, _columns, _flow_levels, _split_occurs, _transpose)
from percolab.exact import _split_any, _submasks, truth_table, weights

from oracles import column_split, evaluate_mask, open_maxflow

_VERTS = ("a", "b", "c", "d", "e")
_MAX_EDGES = 9


@st.composite
def _graphs(draw, max_edges=_MAX_EDGES, probs=(0.25, 0.5, 0.75)):
    """Connected simple graphs on 2..5 vertices with 1..max_edges edges.

    A spanning tree, mostly completed to a K4 core on the first four
    vertices, where every pair carries three edge-disjoint paths, plus as
    many further edges as fit less a drawn number that shrinks to 0, so
    that dense graphs are common.
    """
    nv = draw(st.integers(2, len(_VERTS)))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, nv)]
    others = [(i, j) for i in range(nv) for j in range(i + 1, nv)
              if (i, j) not in tree]
    core = [(i, j) for i, j in others if j < 4]
    if nv < 4 or len(tree) + len(core) > max_edges or draw(st.integers(0, 3)) == 0:
        core = []
    rest = [pair for pair in others if pair not in core]
    room = max(0, min(len(rest), max_edges - len(tree) - len(core)))
    extra = core + draw(st.permutations(rest))[:room - draw(st.integers(0, room))]
    edges = [(f"e{k}", _VERTS[i], _VERTS[j])
             for k, (i, j) in enumerate(tree + extra)]
    probs = {eid: draw(st.sampled_from(probs)) for eid, _, _ in edges}
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
    want = _oracle_table(g, e)
    assert bytes(truth_table(g, e)) == want
    for m in range(0, len(want), max(1, len(want) // 16)):
        assert evaluate(e, g, Configuration(g, m)) == want[m], m


def _level(levels, k, u, v, n):
    """Level k of ``_flow_levels``: entries past the end are 0, or every
    configuration when u == v."""
    return levels[k - 1] if k <= len(levels) else (1 << n) - 1 if u == v else 0


@given(_graphs())
@settings(max_examples=40, deadline=None)
def test_flow_levels_match_maxflow(g):
    depth = max(g.degree(v) for v in g.vertices) + 2
    n = 1 << g.n_edges
    for u in g.vertices:
        for v in g.vertices:
            levels = _flow_levels(g, _columns(g.n_edges), n, u, v, depth)
            for m in range(n):
                flow = open_maxflow(g, m, u, v)
                for k in range(1, depth + 1):
                    assert (_level(levels, k, u, v, n) >> m & 1) == (flow >= k), (u, v, m, k)


@st.composite
def _samples(draw):
    """A graph, sampled configuration masks (not a whole number of bytes,
    each vertex with every edge closed in one of them), a cap up to the
    largest degree + 2, and the indices of the masks to check."""
    g = draw(_graphs())
    n = draw(st.integers(1, 60).filter(lambda n: n % 8))
    masks = draw(st.lists(st.integers(0, (1 << g.n_edges) - 1), min_size=n, max_size=n))
    for i, w in enumerate(g.vertices[:n]):
        masks[i] &= ~sum(1 << g.edge_index(eid) for eid in g.incident[w])
    cap = draw(st.integers(1, max(g.degree(v) for v in g.vertices) + 2))
    return g, masks, cap, range(n)


def _block_boundary_samples():
    # 2^17 + 5 samples, across the 2^16-sample block boundaries that an
    # implementation working one block at a time would cross
    g = graph_from_spec("family:grid:2,3,p=0.5")
    n = (1 << 17) + 5
    rng = random.Random(3)
    masks = [rng.getrandbits(g.n_edges) for _ in range(n)]
    picked = set(rng.sample(range(n), 300)) | {0, 65535, 65536, n - 1}
    return g, masks, 3, sorted(picked)


@given(_samples())
@example(_block_boundary_samples())
@settings(max_examples=60, deadline=None)
def test_flow_levels_on_samples_match_maxflow(case):
    g, masks, cap, checked = case
    n = len(masks)
    cols = _transpose(masks, g.n_edges)
    for u in g.vertices:
        for v in g.vertices:
            levels = _flow_levels(g, cols, n, u, v, cap)
            assert len(levels) <= min(cap, g.degree(u), g.degree(v))
            for i in checked:
                flow = open_maxflow(g, masks[i], u, v, cap=cap)
                got = [_level(levels, k, u, v, n) >> i & 1 for k in range(1, cap + 1)]
                assert got == [flow >= k for k in range(1, cap + 1)], (u, v, i)


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
        assert bytes(truth_table(g, e)) == _oracle_table(g, e), text


def test_self_pair_always_holds():
    g = generate("cycle", 4, p=0.5)
    n = 1 << g.n_edges
    # every level up to deg a = 2 holds everywhere; deeper ones read the same
    assert _flow_levels(g, _columns(g.n_edges), n, "a", "a", 5) == [(1 << n) - 1] * 2
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


# --- monotonicity from one truth table ----------------------------------------


def _flip_flags(e, g):
    """(no single-edge opening turns the event off, none turns it on), from
    every single-edge flip of every configuration, one evaluate_mask each."""
    inc = dec = True
    for mask in range(1 << g.n_edges):
        val = evaluate_mask(e, g, mask)
        for i in range(g.n_edges):
            if mask >> i & 1:
                continue
            up = evaluate_mask(e, g, mask | (1 << i))
            inc = inc and not (val and not up)
            dec = dec and not (up and not val)
    return inc, dec


def _monotonicity_oracle(e, g):
    inc, dec = _flip_flags(e, g)
    if inc:
        return Monotonicity.INCREASING
    if dec:
        return Monotonicity.DECREASING
    return Monotonicity.NONE


@st.composite
def _small_graph_and_event(draw):
    g = draw(_graphs(max_edges=8))
    return g, draw(_events(g.vertices))


@given(_small_graph_and_event())
@settings(max_examples=100, deadline=None)
def test_monotonicity_matches_flip_oracle(ge):
    g, e = ge
    syntactic = monotonicity(e)
    want = _monotonicity_oracle(e, g) if syntactic is Monotonicity.NONE else syntactic
    assert monotonicity(e, g) is want


@given(_small_graph_and_event())
@settings(max_examples=150, deadline=None)
def test_syntactic_monotonicity_is_sound(ge):
    # a syntactic verdict is trusted without a table, so it must never
    # claim a direction that some single-edge opening contradicts
    g, e = ge
    inc, dec = _flip_flags(e, g)
    syntactic = monotonicity(e)
    if syntactic is Monotonicity.INCREASING:
        assert inc
    elif syntactic is Monotonicity.DECREASING:
        assert dec


@pytest.mark.parametrize("text", ["a,b|c", "!(a,b U b,c)", "a,b|c U a,b,c",
                                  "npaths(a,b,2) & !(a|c)", "npaths(a,c,1) U a|b"])
def test_monotonicity_named_events(text):
    g = graph_from_spec("family:grid:2,3,p=0.5")
    e = parse_event(text)
    assert monotonicity(e, g) is _monotonicity_oracle(e, g)


# --- witness splits of S-relative disjoint occurrence -------------------------


def _split_oracle(A, B, g, m1, m2, s_mask):
    """The witness-split loop: each W inside the open S-edges of c1 in turn."""
    full = (1 << g.n_edges) - 1
    s_open = s_mask & m1
    fixed_a = full & ~s_mask & m1
    fixed_b = full & ~s_mask & m2
    w = s_open
    while True:
        if evaluate_mask(A, g, w | fixed_a) and \
           evaluate_mask(B, g, (s_open & ~w) | fixed_b):
            return True
        if w == 0:
            return False
        w = (w - 1) & s_open


def _increasing_events(names):
    name = st.sampled_from(names)
    connect = st.lists(name, min_size=1, max_size=3, unique=True).map(
        lambda grp: PartitionAtom((tuple(grp),)))
    npaths = st.builds(NPathsAtom, name, name, st.integers(1, 3))
    # !(x|y|..): two of the named vertices connected, the complement of a
    # decreasing atom
    not_apart = st.lists(name, min_size=2, max_size=3, unique=True).map(
        lambda vs: Complement(PartitionAtom(tuple((v,) for v in vs))))
    return st.recursive(
        st.one_of(connect, npaths, not_apart),
        lambda sub: st.one_of(
            st.lists(sub, min_size=2, max_size=3).map(lambda xs: Union(tuple(xs))),
            st.lists(sub, min_size=2, max_size=3).map(lambda xs: Intersect(tuple(xs)))),
        max_leaves=4)


@st.composite
def _split_case(draw):
    g = draw(_graphs())
    full = (1 << g.n_edges) - 1
    masks = st.integers(0, full)
    A = draw(_increasing_events(g.vertices))
    B = draw(_increasing_events(g.vertices))
    s_mask = draw(st.one_of(st.just(0), st.just(full), masks))
    return g, A, B, draw(masks), draw(masks), s_mask


@given(_split_case())
@settings(max_examples=200, deadline=None)
def test_sq_s_occurrence_matches_split_loop(case):
    g, A, B, m1, m2, s_mask = case
    s_edges = [eid for eid in g.edge_ids if s_mask >> g.edge_index(eid) & 1]
    got = sq_s_occurrence(A, B, g, Configuration(g, m1), Configuration(g, m2), s_edges)
    assert got == _split_oracle(A, B, g, m1, m2, s_mask)


@st.composite
def _dense_split_case(draw):
    """A split case whose operands join at most two connections or path
    counts between the first three vertices, and whose c1 is often fully
    open.  The operands then often need paths from a common vertex, and
    splits often succeed: there the cut bound and the forced edges decide."""
    g = draw(_graphs())
    full = (1 << g.n_edges) - 1
    masks = st.integers(0, full)
    ends = st.lists(st.sampled_from(g.vertices[:3]), min_size=2, max_size=2, unique=True)
    atom = st.one_of(ends.map(lambda uv: PartitionAtom((tuple(uv),))),
                     st.builds(lambda uv, n: NPathsAtom(*uv, n), ends, st.integers(2, 3)))
    pairs = st.lists(atom, min_size=2, max_size=2).map(tuple)
    operand = st.one_of(atom, pairs.map(Union), pairs.map(Intersect))
    A, B = draw(operand), draw(operand)
    m1 = draw(st.one_of(st.just(full), masks))
    s_mask = draw(st.one_of(st.just(0), st.just(full), masks))
    return g, A, B, m1, draw(masks), s_mask


@given(st.one_of(_split_case(), _dense_split_case()))
@settings(max_examples=300, deadline=None)
def test_witness_search_matches_column_split(case):
    """The bounded search against the column split over all 2^k splits.

    The leaf split takes over at 0 or 2 undecided edges, so that the search
    itself runs on these small graphs, and at its default size.  S = every
    edge is plain disjoint occurrence.
    """
    g, A, B, m1, m2, s_mask = case
    want = column_split(A, B, g, m1, m2, s_mask)
    for leaf in (0, 2, events._LEAF_OPEN):
        with mock.patch.object(events, "_LEAF_OPEN", leaf):
            assert _split_occurs(A, B, g, m1, m2, s_mask) == want, leaf
            if s_mask == (1 << g.n_edges) - 1:
                assert disjoint_occurrence(A, B, g, Configuration(g, m1)) == want, leaf


def _submask_list(mask):
    return [w for w in range(mask + 1) if w & ~mask == 0]


@st.composite
def _table_split_case(draw):
    n_edges = draw(st.integers(1, 8))
    n = 1 << n_edges
    tables = st.lists(st.booleans(), min_size=n, max_size=n).map(bytearray)
    masks = st.integers(0, n - 1)
    sides = st.lists(masks, min_size=1, max_size=6)
    return (draw(tables), draw(tables), draw(masks), draw(masks), draw(masks),
            draw(sides))


@given(_table_split_case())
@settings(max_examples=200, deadline=None)
def test_split_any_matches_per_split_loop(case):
    tab_a, tab_b, rest, fixed_a, fixed_b, sides = case

    def loop(fb):
        return any(tab_a[w | fixed_a] and tab_b[(rest & ~w) | fb]
                   for w in _submask_list(rest))

    ws = np.array(_submask_list(rest), dtype=np.int64)
    a, b = (np.frombuffer(t, dtype=np.bool_) for t in (tab_a, tab_b))
    one = _split_any(a, b, ws, fixed_a, rest, fixed_b)
    assert one.shape == () and one == loop(fixed_b)
    got = _split_any(a, b, ws, fixed_a, rest, np.array(sides, dtype=np.int64))
    assert got.tolist() == [loop(fb) for fb in sides]


@given(_graphs(probs=(0.1, 0.3, 1 / 3, 0.7, 0.9)), st.data())
@settings(max_examples=100, deadline=None)
def test_submasks_match_list_doubling(g, data):
    """Same submasks, order and floats as doubling Python lists edge by edge
    (the probabilities are not dyadic, so the products round)."""
    mask = data.draw(st.integers(0, (1 << g.n_edges) - 1))
    pairs = [(0, 1.0)]
    for i in range(g.n_edges):
        if mask >> i & 1:
            p = g.probs[i]
            pairs = [(sm, wt * (1.0 - p)) for sm, wt in pairs] + \
                    [(sm | 1 << i, wt * p) for sm, wt in pairs]
    subs, probs = _submasks(g, mask)
    assert subs.tolist() == [sm for sm, _ in pairs]
    assert probs.tolist() == [wt for _, wt in pairs]
    assert weights(g).tolist() == _submasks(g, (1 << g.n_edges) - 1)[1].tolist()
