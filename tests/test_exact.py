import math
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percolab import (Configuration, Graph, Monotonicity, SizeGuardError, exact_npaths,
                      exact_pair, exact_prob, generate, graph_from_spec, monotonicity,
                      parse_event, parse_strategy, run, run_check, scan_conjectures,
                      verify_splice_independence)
from percolab import config, events, exact
from percolab.exact import (Joint, SqS, _block_bits, _level_numerators, exact_probs,
                            truth_table, truth_tables, weights)
from percolab.strategies import S, SBAR, Strategy, extend_with_rest, splice_mask
from percolab.events import NPathsAtom, PartitionAtom

from oracles import column_split, exact_pair_per_c1
from test_enumeration import _events, _graphs, _increasing_events
from test_strategies import _Delegate, _FromC2

TOL = 1e-12


def test_exact_prob_examples():
    g1 = generate("path", 1, p=0.3)
    assert exact_prob(g1, parse_event("a,b")) == pytest.approx(0.3, abs=TOL)
    g = generate("cycle", 3, p=0.5)
    assert exact_prob(g, parse_event("a,b,c")) == pytest.approx(0.5, abs=TOL)
    assert exact_prob(g, parse_event("a|b|c")) == pytest.approx(0.125, abs=TOL)
    assert exact_prob(g, parse_event("a,b")) == pytest.approx(0.625, abs=TOL)


def test_complement_sums_to_one():
    g = generate("grid", 3, 2, p=0.25)
    for text in ("a,b", "a,b,c", "a|b|c", "a,b U a,c", "npaths(a,b,2)"):
        e = parse_event(text)
        ne = parse_event(f"!({text})")
        assert exact_prob(g, e) + exact_prob(g, ne) == pytest.approx(1.0, abs=TOL)


def test_weights_sum_to_one():
    g = generate("theta", 3, p=0.75)
    assert math.fsum(weights(g)) == pytest.approx(1.0, abs=TOL)


def test_monotone_in_p():
    e = parse_event("a,b,c")
    vals = [exact_prob(generate("cycle", 4, p=p), e)
            for p in (0.125, 0.25, 0.5, 0.75, 0.875)]
    assert vals == sorted(vals)


def test_pair_stop_factorizes():
    g = generate("cycle", 3, p=0.5)
    A, B = parse_event("a,b"), parse_event("b,c")
    got = exact_pair(g, parse_strategy("stop"), Joint(A, B))
    assert got == pytest.approx(exact_prob(g, A) * exact_prob(g, B), abs=TOL)


def test_pair_all_s_is_diagonal():
    g = generate("cycle", 3, p=0.5)
    A = parse_event("a,b")
    got = exact_pair(g, parse_strategy("reveal_all:S"), Joint(A, A))
    assert got == pytest.approx(exact_prob(g, A), abs=TOL)


def test_pair_triangle_bfs_value():
    # frozen from the 4^3-pair oracle below
    g = generate("cycle", 3, p=0.5)
    got = exact_pair(g, parse_strategy("bfs_cluster:a"),
                     Joint(parse_event("a,b"), parse_event("b,c")))
    assert got == pytest.approx(0.5, abs=TOL)
    assert got >= 0.625 * 0.625 - TOL


def _pair_oracle(g, t, q):
    """Direct sum over all configuration pairs, no factorization tricks."""
    w = weights(g)
    tab_a = truth_table(g, q.A)
    tab_b = truth_table(g, q.B)
    acc = []
    for m1 in range(len(w)):
        for m2 in range(len(w)):
            c1, c2 = Configuration(g, m1), Configuration(g, m2)
            s_mask = run(t, g, c1, c2).s_mask(g)
            if isinstance(q, Joint):
                ok = tab_a[m1] and tab_b[splice_mask(m1, m2, s_mask)]
            else:  # all witness splits at once, not the library's search
                ok = column_split(q.A, q.B, g, m1, m2, s_mask)
            if ok:
                acc.append(w[m1] * w[m2])
    return math.fsum(acc)


@pytest.mark.parametrize("spec", [
    "bfs_cluster:a", "dfs:a,id,S", "dfs_stop_at:a,b,c",
    "seq:[dfs:c,id,S;dfs:a,id,Sbar;dfs:b,id,S]", "dfs:a,right_hand,until:c",
])
@pytest.mark.parametrize("gspec", ["family:cycle:3,p=0.5", "family:cycle:4,p=0.25"])
def test_pair_fast_path_matches_oracle(spec, gspec):
    g = graph_from_spec(gspec)
    t = parse_strategy(spec)
    for Atxt, Btxt in (("a,b", "b,c"), ("a,b,c", "a,b,c")):
        A, B = parse_event(Atxt), parse_event(Btxt)
        assert exact_pair(g, t, Joint(A, B)) == \
            pytest.approx(_pair_oracle(g, t, Joint(A, B)), abs=TOL)
        assert exact_pair(g, t, SqS(A, B)) == \
            pytest.approx(_pair_oracle(g, t, SqS(A, B)), abs=TOL)


@st.composite
def _c2_case(draw):
    """A graph of non-dyadic p with 2..5 edges, a strategy that reads c2 and
    two drawn increasing events."""
    g = draw(_graphs(max_edges=5, probs=_NON_DYADIC).filter(lambda g: g.n_edges >= 2))
    t = draw(st.sampled_from((_FromC2(), _C2Steered(), extend_with_rest(_C2Steered(), S))))
    A, B = (draw(_increasing_events(g.vertices)) for _ in range(2))
    return g, t, A, B


@given(_c2_case())
@settings(max_examples=40, deadline=None)
def test_pair_general_path_with_c2_reading_strategy(case):
    # the same products of weights, summed by one fsum, give the same float
    g, t, A, B = case
    for query in (Joint, SqS):
        assert exact_pair(g, t, query(A, B)) == _pair_oracle(g, t, query(A, B))


@st.composite
def _joint_case(draw):
    """A graph of non-dyadic p, a catalog strategy (none reads c2) and a
    Joint of two drawn events."""
    g = draw(_graphs(max_edges=8, probs=_NON_DYADIC))
    v = st.sampled_from(g.vertices)
    spec = draw(st.sampled_from(("bfs_cluster:{}", "dfs:{},id,S", "dfs:{},id,Sbar",
                                 "dfs:{},id,until:{}", "dfs_stop_at:{},{},{}", "stop",
                                 "seq:[dfs:{},id,Sbar;dfs:{},id,S]")))
    t = parse_strategy(spec.format(*(draw(v) for _ in range(spec.count("{}")))))
    return g, t, Joint(draw(_events(g.vertices)), draw(_events(g.vertices)))


_GRID_PINS = [(graph_from_spec(f"family:grid:3,3,p={p}"), parse_strategy(spec))
              for spec in ("bfs_cluster:a", "dfs:a,right_hand,until:c") for p in (0.5, 0.3)]


def _pinned(query):
    """@example pins on the 12-edge grid:3,3, whose leaf classes hold many
    leaves: a query of a,b and b,c for each strategy and p of _GRID_PINS."""
    def pin(test):
        for g, t in _GRID_PINS:
            test = example((g, t, query(parse_event("a,b"), parse_event("b,c"))))(test)
        return test
    return pin


@given(_joint_case())
@_pinned(Joint)
@settings(max_examples=80, deadline=None)
def test_joint_sum_per_leaf_equals_sum_per_c1(case):
    g, t, q = case
    assert exact_pair(g, t, q) == exact_pair_per_c1(g, t, q)


@st.composite
def _sqs_case(draw):
    """A graph of at most 8 edges, a catalog strategy (none reads c2) and an
    SqS of two drawn increasing events.  ``stop`` reveals nothing: every c1
    shares the one leaf, and every c2 edge is free."""
    g = draw(_graphs(max_edges=8, probs=draw(st.sampled_from(((0.5,), _NON_DYADIC)))))
    v = st.sampled_from(g.vertices)
    spec = draw(st.sampled_from(("bfs_cluster:{}", "dfs:{},id,S", "dfs:{},id,Sbar",
                                 "dfs:{},id,until:{}", "dfs_stop_at:{},{},{}", "stop",
                                 "seq:[dfs:{},id,Sbar;dfs:{},id,S]")))
    t = parse_strategy(spec.format(*(draw(v) for _ in range(spec.count("{}")))))
    return g, t, SqS(draw(_increasing_events(g.vertices)), draw(_increasing_events(g.vertices)))


@given(_sqs_case())
@_pinned(SqS)
@example((graph_from_spec("family:grid:2,3,p=0.5"), parse_strategy("stop"),
          SqS(parse_event("a,b"), parse_event("b,c"))))
@example((graph_from_spec("family:grid:2,3,p=0.5"), parse_strategy("dfs_stop_at:a,b,c"),
          SqS(parse_event("a,b"), parse_event("npaths(a,c,2)"))))
@settings(max_examples=80, deadline=None)
def test_sqs_sum_per_leaf_equals_sum_per_c1(case):
    g, t, q = case
    assert exact_pair(g, t, q) == exact_pair_per_c1(g, t, q)


@given(_sqs_case(), st.sampled_from((1 << 3, 1 << 6, 1 << 9)))
@settings(max_examples=40, deadline=None)
def test_sqs_runs_of_c1_equal_whole_leaves(case, cells):
    """A block size forced small cuts a leaf's c1 into runs of 1, 2, 4 ...
    products; the sum equals that of whole leaves."""
    g, t, q = case
    want = exact_pair(g, t, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "BLOCK_CELLS", cells)
        assert exact_pair(g, t, q) == want


def test_splice_independence_with_c2_reading_strategy():
    for g in (generate("cycle", 3, p=0.5), generate("theta", 3, p=0.25)):
        assert verify_splice_independence(g, _FromC2()) <= TOL


def test_pair_size_guard():
    g = generate("grid", 4, 4, p=0.5)  # 24 edges
    with pytest.raises(SizeGuardError):
        exact_pair(g, parse_strategy("stop"),
                   Joint(parse_event("a,b"), parse_event("a,b")))


def test_splice_independence_size_guard():
    with pytest.raises(SizeGuardError, match="splice-independence"):
        verify_splice_independence(generate("cycle", 11, p=0.5), parse_strategy("bfs_cluster:a"))


def test_splice_independence_examples():
    g1 = generate("path", 1, p=0.5)
    assert verify_splice_independence(g1, parse_strategy("bfs_cluster:a")) <= TOL
    g2 = generate("path", 2, p=0.5)
    assert verify_splice_independence(g2, parse_strategy("bfs_cluster:a")) <= TOL
    g3 = generate("cycle", 3, p=0.5)
    assert verify_splice_independence(g3, parse_strategy("dfs:a,id,S")) <= TOL


def test_splice_independence_nonuniform_p():
    g = graph_from_spec("family:cycle:3,p=0.75")
    assert verify_splice_independence(g, parse_strategy("bfs_cluster:b")) <= TOL


def test_exact_npaths_examples():
    # two 2-edge routes with route probability q each: both survive with q^2
    g = generate("parallel", 2, q=0.25)
    assert exact_npaths(g, "a", "b", 2) == pytest.approx(0.0625, abs=1e-9)
    gfull = generate("parallel", 3, p=1.0)
    assert exact_npaths(gfull, "a", "b", 3) == pytest.approx(1.0, abs=TOL)
    g3 = generate("parallel", 3, q=0.5)
    assert exact_npaths(g3, "a", "b", 2) == pytest.approx(0.5, abs=1e-9)
    assert exact_npaths(g3, "a", "b", 3) == pytest.approx(0.125, abs=1e-9)


def test_hk_inequality_over_small_corpus():
    events = [parse_event(t) for t in ("a,b", "b,c", "a,c", "a,b,c", "npaths(a,b,2)")]
    for gspec in ("family:cycle:3,p=0.5", "family:theta:3,p=0.5"):
        g = graph_from_spec(gspec)
        for spec in ("bfs_cluster:a", "dfs_stop_at:a,b,c"):
            t = parse_strategy(spec)
            for A in events:
                for B in events:
                    joint = exact_pair(g, t, Joint(A, B))
                    assert joint >= exact_prob(g, A) * exact_prob(g, B) - TOL


def test_vdbk_inequality_over_small_corpus():
    events = [parse_event(t) for t in ("a,b", "b,c", "a,b,c")]
    for gspec in ("family:cycle:3,p=0.5", "family:cycle:4,p=0.75"):
        g = graph_from_spec(gspec)
        for spec in ("bfs_cluster:a", "seq:[dfs:c,id,S;dfs:a,id,Sbar;dfs:b,id,S]"):
            t = parse_strategy(spec)
            for A in events:
                for B in events:
                    sqs = exact_pair(g, t, SqS(A, B))
                    assert sqs <= exact_prob(g, A) * exact_prob(g, B) + TOL


def test_vdbk_classical_anchor():
    # with everything revealed into S the pair query is the classical
    # disjoint-occurrence probability, bounded by the product
    g = generate("parallel", 2, p=0.5)
    A = parse_event("a,b")
    t = parse_strategy("reveal_all:S")
    sqs = exact_pair(g, t, SqS(A, A))
    assert sqs <= exact_prob(g, A) ** 2 + TOL
    # and it matches a direct sum of the witness-split indicator
    w = weights(g)
    from percolab import disjoint_occurrence
    direct = math.fsum(
        w[m] for m in range(len(w))
        if disjoint_occurrence(A, A, g, Configuration(g, m)))
    assert sqs == pytest.approx(direct, abs=TOL)


def _increasing(names):
    return _events(names).filter(lambda e: monotonicity(e) is Monotonicity.INCREASING)


@st.composite
def _column_vs_run_case(draw):
    g = draw(_graphs(max_edges=7))
    v = st.sampled_from(g.vertices)
    spec = draw(st.sampled_from((
        "stop", "reveal_all:S", "reveal_all:Sbar", "bfs_cluster:{}", "dfs:{},id,S",
        "dfs:{},id,Sbar", "seq:[dfs:{},id,S;dfs:{},id,Sbar]",
        "seq:[dfs:{},id,Sbar;dfs:{},id,S;dfs:{},id,S]", "dfs:{},id,until:{}",
        "dfs:{},id,untilany:{}+{}", "dfs_stop_at:{},{},{}",
        "seq:[dfs:{},id,Sbar;dfs:{},id,until:{};dfs:{},id,S]")))
    spec = spec.format(*(draw(v) for _ in range(spec.count("{}"))))
    return (g, spec, draw(_events(g.vertices)), draw(_events(g.vertices)),
            draw(_increasing(g.vertices)), draw(_increasing(g.vertices)))


@given(_column_vs_run_case())
@settings(max_examples=40, deadline=None)
def test_column_form_equals_run_fallback_exactly(case):
    g, spec, A, B, A_inc, B_inc = case
    t = parse_strategy(spec)
    runs = _Delegate(t)
    assert exact_pair(g, t, Joint(A, B)) == exact_pair(g, runs, Joint(A, B))
    assert exact_pair(g, t, SqS(A_inc, B_inc)) == exact_pair(g, runs, SqS(A_inc, B_inc))
    assert verify_splice_independence(g, t) == verify_splice_independence(g, runs)


@st.composite
def _table_batch(draw):
    """A graph, a batch of events, and the positions of the events whose
    tables are built before the batch.

    Besides random events, every batch holds npaths(u,v,n) for several n on
    one (u, v), an npaths atom with u == v, and two partition atoms whose
    groups start at the same vertex.
    """
    g = draw(_graphs())
    name = st.sampled_from(g.vertices)
    u, v, w = draw(name), draw(name), draw(name)
    others = st.sampled_from([x for x in g.vertices if x != u])
    batch = [NPathsAtom(u, v, n) for n in draw(st.lists(st.integers(1, 4), min_size=2,
                                                           max_size=3, unique=True))]
    batch += [NPathsAtom(w, w, draw(st.integers(1, 3))),
              PartitionAtom(((u, draw(others)),)), PartitionAtom(((u,), (draw(others),)))]
    batch = draw(st.permutations(batch + draw(st.lists(_events(g.vertices), max_size=3))))
    return g, batch, draw(st.sets(st.sampled_from(range(len(batch)))))


@given(_table_batch())
@example((generate("complete", 4, p=0.5),
          [parse_event(t) for t in ("npaths(a,b,2)", "npaths(a,b,3)", "npaths(c,c,2)",
                                    "a,b", "a|c", "a,d U npaths(b,d,2)")], {2, 3}))
@settings(max_examples=100, deadline=None)
def test_truth_tables_equal_one_table_per_fresh_graph(case):
    g, batch, cached = case
    for i in sorted(cached):
        truth_table(g, batch[i])
    for e, tab in zip(batch, truth_tables(g, batch), strict=True):
        fresh = Graph(g.vertices, g.edges, g.edge_prob, g.marks)
        assert bytes(tab) == bytes(truth_table(fresh, e))


# ---------------------------------------------------------------------------
# Blocks of masks: a block size forced small gives the floats of one block

_NON_DYADIC = (0.1, 0.3, 1 / 3, 0.7, 0.9)


@contextmanager
def _blocks_of(g: Graph, k: int, width: int | None = None):
    """A fresh copy of g whose 2^width masks (2^E by default) run in blocks
    of 2^k while the context lasts."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "BLOCK_CELLS", (g.n_vertices + g.n_edges) << k)
        fresh = Graph(g.vertices, g.edges, g.edge_prob, g.marks)
        assert _block_bits(fresh, width or g.n_edges) == k
        yield fresh


@st.composite
def _blocked_case(draw):
    """A graph of non-dyadic p, events that include an npaths atom, and a
    block size of 2^3 masks up to the whole graph."""
    g = draw(_graphs(probs=_NON_DYADIC))
    name = st.sampled_from(g.vertices)
    evs = [NPathsAtom(draw(name), draw(name), draw(st.integers(1, 3)))]
    evs = draw(st.permutations(evs + draw(st.lists(_events(g.vertices), min_size=1,
                                                   max_size=3))))
    return g, evs, draw(st.integers(min(3, g.n_edges), g.n_edges))


@given(_blocked_case())
@example((generate("complete", 4, p=0.3), [parse_event("npaths(a,b,3)"),
                                           parse_event("a,b U npaths(c,d,2)")], 3))
@settings(max_examples=80, deadline=None)
def test_blocked_probabilities_equal_one_block(case):
    g, evs, k = case
    want = exact_probs(g, evs)
    with _blocks_of(g, k) as fresh:
        assert exact_probs(fresh, evs) == want


@given(_blocked_case())
@settings(max_examples=60, deadline=None)
def test_blocked_truth_tables_equal_one_block(case):
    g, evs, k = case
    want = [bytes(tab) for tab in truth_tables(g, evs)]
    with _blocks_of(g, k) as fresh:
        assert [bytes(tab) for tab in truth_tables(fresh, evs)] == want


class _C2Steered(Strategy):
    """Queries the edges in index order until one is closed in c1; an edge
    goes into S when the edge before it is open in c2, else into Sbar (the
    first goes into S)."""
    name = "c2steered"
    uses_c2 = True

    def policy(self, g):
        into = S
        for eid in g.edge_ids:
            b1, b2 = yield (eid, into)
            if not b1:
                return
            into = S if b2 else SBAR


@st.composite
def _splice_case(draw):
    """A graph of non-dyadic p with 2..6 edges, a strategy (some read c2),
    and a pair block size: rows of c1 down to one row of 2^E pairs."""
    g = draw(_graphs(max_edges=6, probs=_NON_DYADIC).filter(lambda g: g.n_edges >= 2))
    v = st.sampled_from(g.vertices)
    spec = draw(st.sampled_from(("fromc2", "c2steered", "bfs_cluster:{}", "dfs:{},id,S",
                                 "dfs:{},id,Sbar", "seq:[dfs:{},id,Sbar;dfs:{},id,S]",
                                 "dfs:{},id,until:{}", "dfs_stop_at:{},{},{}")))
    t = {"fromc2": _FromC2(), "c2steered": _C2Steered()}.get(spec) or parse_strategy(
        spec.format(*(draw(v) for _ in range(spec.count("{}")))))
    return g, t, draw(st.integers(min(3, 2 * g.n_edges), 2 * g.n_edges))


@given(_splice_case())
@settings(max_examples=60, deadline=None)
def test_row_blocked_splice_check_equals_one_block(case):
    g, t, k = case
    want = verify_splice_independence(g, t)
    with _blocks_of(g, k, 2 * g.n_edges) as fresh:
        assert verify_splice_independence(fresh, t) == want


# p = 2^-10 has 1 - p = 1023/1024: exact levels on 5 edges (1023^5 < 2^53),
# not on 6.  p = 2^-600 is exact on one edge; on two its level 2^-1200 is
# subnormal.
_LEVEL_PROBS = (0.5, 0.25, 0.75, 0.125, 2 ** -10, 1 - 2 ** -10, 2 ** -600) + _NON_DYADIC


def test_open_edge_levels_straddle_the_exactness_rule():
    assert _level_numerators(2 ** -10, 5) is not None
    assert _level_numerators(2 ** -10, 6) is None
    assert _level_numerators(2 ** -600, 2) is None
    assert _level_numerators(0.3, 2) is None
    assert _level_numerators(0.0, 2) is _level_numerators(1.0, 2) is None
    assert _level_numerators(0.25, 3) == ([27, 9, 3, 1], 6)  # (3/4)^3 ... (1/4)^3
    # 1 - 2^-600 rounds to 1: the levels 1 and 2^-600 share the denominator
    assert _level_numerators(2 ** -600, 1) == ([1 << 600, 1], 600)


@st.composite
def _one_p_case(draw):
    """A graph whose edges share one p, dyadic or not, events and a block
    size of 2^3 masks up to the whole graph."""
    g = draw(_graphs(probs=(draw(st.sampled_from(_LEVEL_PROBS)),)))
    evs = draw(st.lists(_events(g.vertices), min_size=1, max_size=3))
    return g, evs, draw(st.integers(min(3, g.n_edges), g.n_edges))


@given(_one_p_case())
@example((generate("cycle", 5, p=2 ** -10), [parse_event("a,b"), parse_event("a|b")], 3))
@example((generate("cycle", 6, p=2 ** -10), [parse_event("a,b"), parse_event("a|b")], 6))
@settings(max_examples=100, deadline=None)
def test_open_edge_counts_equal_weight_sums(case):
    """Summing by open-edge counts gives the weight route's floats, bit for
    bit, whatever the blocks; graphs whose levels are not exact take the
    weight route."""
    g, evs, k = case
    with _blocks_of(g, k) as fresh:
        got = exact_probs(fresh, evs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_level_numerators", lambda p, n: None)
        want = exact_probs(Graph(g.vertices, g.edges, g.edge_prob, g.marks), evs)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_pair_query_with_no_configuration_in_a():
    # A is empty, so no configuration goes through the lock-step scan
    g = graph_from_spec("family:cycle:4,p=0.5")
    q = Joint(parse_event("a,b & a|b"), parse_event("b,c"))
    assert exact_pair(g, parse_strategy("dfs_stop_at:a,b,c"), q) == 0.0


def test_check_tables_built_in_one_evaluator_pass(monkeypatch):
    calls = []
    inner = events._reach_masks

    def counted(*args):
        calls.append(args[0])
        return inner(*args)

    def fresh(text):
        return exact_prob(graph_from_spec("family:grid:3,3,p=0.5"), parse_event(text))

    # tables of one graph asked in turn equal tables of fresh graphs
    g = graph_from_spec("family:grid:3,3,p=0.5")
    assert exact_npaths(g, "a", "c", 2) == fresh("npaths(a,c,2)")
    assert exact_npaths(g, "a", "c", 3) == fresh("npaths(a,c,3)")
    for text in ("npaths(v1_1,v0_1,2)", "npaths(v1_1,v0_1,3)", "npaths(v1_1,v0_1,2) U a,c"):
        assert exact_prob(g, parse_event(text)) == fresh(text)
    # the four terms of planar_dv2 share one reach sweep
    monkeypatch.setattr(events, "_reach_masks", counted)
    g = graph_from_spec("family:grid:3,4,p=0.5")
    assert run_check("planar_dv2", g).verdict == "holds"
    assert [c for c in calls if c is g] == [g]


def test_ascending_npaths_scan_builds_flow_levels_once(monkeypatch):
    calls = []
    inner = events._flow_levels

    def counted(*args):
        calls.append(args[3:])
        return inner(*args)

    monkeypatch.setattr(events, "_flow_levels", counted)
    # the marks have degree 5, and the scan asks n = 1, 2, ..., 5 in one pass
    reps = scan_conjectures("logconcave", graph_from_spec("family:parallel:5,q=0.5"),
                            {"nmax": 5})
    assert reps and all(r.verdict == "holds" for r in reps)
    assert calls == [("a", "b", 5)]


def test_npaths_one_beside_a_deeper_level_sweeps_no_reach(monkeypatch):
    """npaths(a,b,1) asked with npaths(a,b,2) takes level 1 of their flow
    levels, which is a-b reach: no reach sweep, and the float of the atom
    asked alone."""
    alone = exact_prob(graph_from_spec("family:grid:2,3,p=0.3"), parse_event("npaths(a,b,1)"))
    sources = []
    inner = events._reach_masks

    def counted(g, cols, n, srcs, *rest):
        sources.extend(srcs)
        return inner(g, cols, n, srcs, *rest)

    monkeypatch.setattr(events, "_reach_masks", counted)
    g = graph_from_spec("family:grid:2,3,p=0.3")
    one, _two = exact_probs(g, [parse_event("npaths(a,b,1)"), parse_event("npaths(a,b,2)")])
    assert one == alone
    assert sources == []
