from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolab import (Configuration, EventSyntaxError, Monotonicity,
                      MonotonicityError, SizeGuardError, disjoint_occurrence, evaluate,
                      exact_prob, generate, graph_from_spec, monotonicity,
                      parse_event, sq_s_occurrence, unparse)
from percolab import config
from percolab.events import Complement, Intersect, NPathsAtom, PartitionAtom, Union

from oracles import evaluate_mask, open_maxflow


def test_parse_atoms():
    e = parse_event("a,b|c")
    assert e == PartitionAtom((("a", "b"), ("c",)))
    e = parse_event("a,b U a,c")
    assert e == Union((PartitionAtom((("a", "b"),)), PartitionAtom((("a", "c"),))))
    assert parse_event("npaths(a,b,2)") == NPathsAtom("a", "b", 2)


def test_parse_precedence():
    e = parse_event("a,b|c & d,e U !f,g")
    assert isinstance(e, Union)
    assert isinstance(e.items[0], Intersect)
    assert isinstance(e.items[1], Complement)


@pytest.mark.parametrize("text", [
    "a,,b", "a |", "npaths(a,b,0)", "npaths(a,b)", "a,b | a,c", "(a,b", "a,b )x", "U", ""
])
def test_parse_errors(text):
    with pytest.raises(EventSyntaxError):
        parse_event(text)


@pytest.mark.parametrize("head, tail", [("(" * 100, ")" * 100), ("!" * 100, ""),
                                        ("!(" * 50, ")" * 50)])
def test_parse_bounds_nesting_at_100(head, tail):
    parse_event(head + "a,b" + tail)
    for deeper in ("(a,b)", "!a,b"):
        with pytest.raises(EventSyntaxError, match="more than 100 nested") as got:
            parse_event(head + deeper + tail)
        assert got.value.pos == len(head)


_names = st.sampled_from(["a", "b", "c", "x1", "v2"])


def _atoms():
    partition = st.lists(
        st.lists(_names, min_size=1, max_size=2, unique=True),
        min_size=1, max_size=3).map(
            lambda gs: _dedupe_partition(gs)).filter(lambda x: x is not None)
    npaths = st.tuples(_names, _names, st.integers(1, 3)).map(
        lambda t: NPathsAtom(t[0], t[1], t[2]))
    return st.one_of(partition, npaths)


def _dedupe_partition(groups):
    seen = set()
    out = []
    for grp in groups:
        grp = tuple(v for v in grp if v not in seen)
        if not grp:
            return None
        seen.update(grp)
        out.append(grp)
    return PartitionAtom(tuple(out))


def _exprs(depth=2):
    if depth == 0:
        return _atoms()
    sub = _exprs(depth - 1)
    return st.one_of(
        _atoms(),
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: Union(tuple(xs))),
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: Intersect(tuple(xs))),
        sub.map(Complement),
    )


@given(_exprs())
@settings(max_examples=200, deadline=None)
def test_roundtrip(e):
    assert parse_event(unparse(e)) == e


def test_evaluate_examples():
    g = generate("cycle", 3, p=0.5)
    only_ab = g.config(["e0"])
    assert evaluate(parse_event("a,b|c"), g, only_ab)
    all_open = g.config(g.edge_ids)
    assert not evaluate(parse_event("a|b|c"), g, all_open)
    gp = generate("parallel", 2, p=1.0)
    assert evaluate(parse_event("npaths(a,b,2)"), g=gp, c=gp.config(gp.edge_ids))


def test_monotonicity_syntactic():
    assert monotonicity(parse_event("a,b,c")) is Monotonicity.INCREASING
    assert monotonicity(parse_event("a|b|c")) is Monotonicity.DECREASING
    assert monotonicity(parse_event("npaths(a,b,2)")) is Monotonicity.INCREASING
    assert monotonicity(parse_event("!a,b")) is Monotonicity.DECREASING
    assert monotonicity(parse_event("a,b U a,c")) is Monotonicity.INCREASING
    assert monotonicity(parse_event("a,b|c")) is Monotonicity.NONE


def test_monotonicity_brute_force():
    g = generate("cycle", 3, p=0.5)
    # opening bc destroys a,b|c when it held with only ab open
    assert monotonicity(parse_event("a,b|c"), g) is Monotonicity.NONE
    # a,b U b,c is a union of increasing atoms, so its complement is
    # DECREASING by syntax alone, without a truth table
    assert monotonicity(parse_event("!(a,b U b,c)"), g) is Monotonicity.DECREASING
    # the union inside is a|b, NONE by syntax: its complement is settled by
    # the truth table, as the complement of a decreasing event
    e = parse_event("!(a|b U (a|b & a,c))")
    assert monotonicity(e) is Monotonicity.NONE
    assert monotonicity(e, g) is Monotonicity.INCREASING


def test_monotonicity_settled_by_the_truth_table():
    # the union is a|b itself: NONE by syntax, DECREASING by its table
    e = parse_event("a|b U (a|b & a,c)")
    assert monotonicity(e) is Monotonicity.NONE
    assert monotonicity(e, generate("cycle", 3, p=0.5)) is Monotonicity.DECREASING


def test_increasing_evaluate_monotone():
    g = generate("cycle", 4, p=0.5)
    for text in ("a,b", "a,b,c", "npaths(a,b,2)"):
        e = parse_event(text)
        for mask in range(1 << g.n_edges):
            v = evaluate_mask(e, g, mask)
            for i in range(g.n_edges):
                assert evaluate_mask(e, g, mask | (1 << i)) >= v


# --- max-flow vs brute-force path packing (Menger) ---------------------------


def _all_simple_open_paths(g, mask, u, v):
    out = []

    def dfs(vertex, used, seen):
        if vertex == v:
            out.append(frozenset(used))
            return
        for e in g.incident[vertex]:
            if not mask >> g.edge_index(e) & 1 or e in used:
                continue
            w = g.other_end(e, vertex)
            if w in seen:
                continue
            dfs(w, used | {e}, seen | {w})

    dfs(u, frozenset(), {u})
    return out


def _max_disjoint_packing(paths):
    best = 0

    def rec(i, used, count):
        nonlocal best
        best = max(best, count)
        for j in range(i, len(paths)):
            if not paths[j] & used:
                rec(j + 1, used | paths[j], count + 1)

    rec(0, frozenset(), 0)
    return best


@pytest.mark.parametrize("spec", [
    "family:parallel:3,p=0.5", "family:theta:3,p=0.5", "family:cycle:4,p=0.5",
    "family:grid:2,3,p=0.5",
])
def test_maxflow_matches_menger_packing(spec):
    from percolab import graph_from_spec
    g = graph_from_spec(spec)
    u, v = g.marks[0], g.marks[1]
    for mask in range(1 << g.n_edges):
        flow = open_maxflow(g, mask, u, v)
        packing = _max_disjoint_packing(_all_simple_open_paths(g, mask, u, v))
        assert flow == packing, (spec, bin(mask))


def test_npaths_from_a_vertex_to_itself_holds_for_every_n():
    # the empty path repeats without limit: no n is too large
    g = graph_from_spec("family:cycle:3,p=0.5")
    e = NPathsAtom("a", "a", 2 ** 31)
    for m in range(1 << g.n_edges):
        assert evaluate_mask(e, g, m)
        assert evaluate(e, g, Configuration(g, m))
    assert exact_prob(g, e) == 1.0


# --- disjoint occurrence ------------------------------------------------------


def test_disjoint_occurrence_examples():
    gp = generate("parallel", 2, p=0.5)
    ab = parse_event("a,b")
    assert disjoint_occurrence(ab, ab, gp, gp.config(gp.edge_ids))
    gpath = generate("path", 2, p=0.5)
    assert not disjoint_occurrence(ab, ab, gpath, gpath.config(gpath.edge_ids))
    g = generate("cycle", 3, p=0.5)
    assert disjoint_occurrence(ab, ab, g, g.config(g.edge_ids))


def test_witness_search_refuses_past_its_node_budget(monkeypatch):
    g = generate("grid", 5, 5, p=0.5)
    every = g.config(g.edge_ids)  # k = 40 open edges in S, no bridge, no dangling edge
    ab, bc = parse_event("a,b"), parse_event("b,c")
    # two edge-disjoint paths a-b and b-c: found well within the budget
    assert sq_s_occurrence(ab, bc, g, every, every, g.edge_ids) is True
    # the root settles nothing, so the search needs a second node
    monkeypatch.setattr(config, "MAX_WITNESS_NODES", 1)
    with pytest.raises(SizeGuardError, match="witness search needs more than 1 nodes"):
        sq_s_occurrence(ab, bc, g, every, every, g.edge_ids)


def test_disjoint_occurrence_requires_increasing():
    g = generate("cycle", 3, p=0.5)
    with pytest.raises(MonotonicityError):
        disjoint_occurrence(parse_event("a|b"), parse_event("a,b"),
                            g, g.config(g.edge_ids))


def _witness_pair_oracle(g, mask, A, B):
    """Explicit witness pairs: I certifies A whatever happens off I."""
    full = (1 << g.n_edges) - 1

    def is_witness(w, e):
        rest = full & ~w
        sub = rest
        while True:
            if not evaluate_mask(e, g, w | sub):
                return False
            if sub == 0:
                return True
            sub = (sub - 1) & rest

    subs = []
    s = mask
    while True:
        subs.append(s)
        if s == 0:
            break
        s = (s - 1) & mask
    for i in subs:
        if not is_witness(i, A):
            continue
        for j in subs:
            if i & j == 0 and is_witness(j, B):
                return True
    return False


def test_disjoint_occurrence_matches_witness_oracle():
    g = generate("cycle", 3, p=0.5)
    gp = generate("parallel", 2, p=0.5)
    ab = parse_event("a,b")
    abc = parse_event("a,b,c")
    for graph, A, B in ((g, ab, ab), (g, ab, abc), (gp, ab, ab)):
        for mask in range(1 << graph.n_edges):
            c = Configuration(graph, mask)
            got = disjoint_occurrence(A, B, graph, c)
            want = _witness_pair_oracle(graph, mask, A, B)
            assert got == want, (graph.name, bin(mask))


def test_disjoint_occurrence_implies_both():
    g = generate("cycle", 4, p=0.5)
    ab = parse_event("a,b")
    bc = parse_event("b,c")
    for mask in range(1 << g.n_edges):
        c = Configuration(g, mask)
        if disjoint_occurrence(ab, bc, g, c):
            assert evaluate(ab, g, c) and evaluate(bc, g, c)


def test_sq_s_extremes():
    g = generate("cycle", 3, p=0.5)
    ab = parse_event("a,b")
    bc = parse_event("b,c")
    for m1 in range(8):
        for m2 in range(8):
            c1, c2 = Configuration(g, m1), Configuration(g, m2)
            # S = E reduces to plain disjoint occurrence on c1
            assert sq_s_occurrence(ab, bc, g, c1, c2, g.edge_ids) == \
                disjoint_occurrence(ab, bc, g, c1)
            # S = empty reduces to the product event
            assert sq_s_occurrence(ab, bc, g, c1, c2, []) == \
                (evaluate(ab, g, c1) and evaluate(bc, g, c2))


def test_sq_s_triangle_case():
    g = generate("cycle", 3, p=0.5)
    ab = parse_event("a,b")
    c1 = g.config(g.edge_ids)   # all open
    c2 = g.config([])           # all closed
    # S = {ab-edge}: A must use the direct edge or the detour (off S, open in
    # c1); B gets the leftover of S plus open c2 edges outside S.
    assert sq_s_occurrence(ab, ab, g, c1, c2, ["e0"]) is True


def test_exact_prob_matches_fraction_oracle():
    # independent rational-arithmetic enumeration for the triangle
    from percolab import exact_prob
    g = generate("cycle", 3, p=0.5)
    p = Fraction(1, 2)
    want = Fraction(0)
    e = parse_event("a,b,c")
    for mask in range(8):
        w = Fraction(1)
        for i in range(3):
            w *= p if mask >> i & 1 else 1 - p
        if evaluate_mask(e, g, mask):
            want += w
    assert exact_prob(g, e) == pytest.approx(float(want), abs=1e-15)
    assert want == Fraction(1, 2)
