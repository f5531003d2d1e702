import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolab import (Configuration, SizeGuardError, StrategyError, generate,
                      graph_from_spec, make_strategy, parse_strategy, run, splice,
                      verify_continuation)
from percolab import strategies
from percolab.events import _columns, _transpose
from percolab.mc import _edge_bit_columns
from percolab.strategies import S, SBAR, Strategy, extend_with_rest
from percolab.graphs import faces

from test_enumeration import _graphs


def _all_closed(g):
    return Configuration(g, 0)


def _all_open(g):
    return Configuration(g, (1 << g.n_edges) - 1)


def test_stop_strategy_empty_s():
    g = generate("cycle", 3, p=0.5)
    tr = run(parse_strategy("stop"), g, _all_open(g), _all_closed(g))
    assert tr.s_edges == frozenset()
    assert tr.steps == ()


def test_reveal_all():
    g = generate("cycle", 3, p=0.5)
    tr = run(parse_strategy("reveal_all:S"), g, _all_open(g), _all_closed(g))
    assert tr.s_edges == frozenset(g.edge_ids)
    assert tr.queried == g.edge_ids


def test_bfs_cluster_reveals_cluster_boundary():
    g = generate("cycle", 3, p=0.5)
    # only the a-b edge open: the cluster {a,b} touches every triangle edge
    c1 = g.config(["e0"])
    tr = run(make_strategy("bfs_cluster", "a"), g, c1, _all_closed(g))
    assert tr.s_edges == frozenset(g.edge_ids)
    assert all(st.decision == S for st in tr.steps)


def test_bfs_cluster_stops_at_closed_boundary():
    g = generate("path", 3, p=0.5)  # a - x1 - x2 - b
    c1 = g.config([])
    tr = run(make_strategy("bfs_cluster", "a"), g, c1, _all_closed(g))
    assert tr.s_edges == {g.edge_ids[0]}  # only a's incident edge


def test_splice_examples():
    g = generate("path", 2, p=0.5)
    c1 = g.config(["e0"])
    c2 = g.config(["e1"])
    assert splice(c1, c2, g.edge_ids).mask == c1.mask
    assert splice(c1, c2, []).mask == c2.mask
    # S = {e0}: take e0 from c1, e1 from c2 -> both open
    assert splice(c1, c2, ["e0"]).mask == 0b11


def test_splice_complement_identity():
    g = generate("cycle", 4, p=0.5)
    for m1 in range(16):
        for m2 in range(16):
            c1, c2 = Configuration(g, m1), Configuration(g, m2)
            s = ["e0", "e2"]
            sbar = ["e1", "e3"]
            assert splice(c2, c1, s).mask == splice(c1, c2, sbar).mask


def test_seq_s1_on_all_closed_triangle():
    g = generate("cycle", 3, p=0.5)
    t = parse_strategy("seq:[dfs:c,id,S;dfs:a,id,Sbar;dfs:b,id,S]")
    tr = run(t, g, _all_closed(g), _all_closed(g))
    # pass from c queries its incident edges (e1, e2) into S; pass from a
    # queries the leftover edge e0 into the complement; pass from b is spent
    assert [(st.edge, st.decision) for st in tr.steps] == \
        [("e1", S), ("e2", S), ("e0", SBAR)]
    assert tr.s_edges == {"e1", "e2"}


def test_right_hand_walk_triangle_all_open():
    g = generate("cycle", 3, p=0.5)
    tr = run(parse_strategy("dfs:a,right_hand,until:c"), g, _all_open(g),
             _all_closed(g))
    # walks straight along the boundary away from b; e2 is the a-c edge
    assert tr.s_edges == {"e2"}


def test_right_hand_walk_detours_when_closed():
    g = generate("cycle", 3, p=0.5)
    c1 = g.config(["e0", "e1"])  # a-c edge closed
    tr = run(parse_strategy("dfs:a,right_hand,until:c"), g, c1, _all_closed(g))
    assert [st.edge for st in tr.steps] == ["e2", "e0", "e1"]
    assert tr.s_edges == frozenset(g.edge_ids)


def _outer_backward_path(g, start, target):
    """Edges of the outer cycle walked against its orientation, start->target."""
    cyc = faces(g).outer
    verts = [tail for _, tail in cyc]
    i = verts.index(start)
    path = []
    n = len(cyc)
    while verts[i] != target:
        j = (i - 1) % n
        path.append(cyc[j][0])
        i = j
    return path


@pytest.mark.parametrize("spec,target", [
    ("family:cycle:3,p=0.5", "c"),
    ("family:cycle:5,p=0.5", "c"),
    ("family:grid:3,3,p=0.5", "b"),
    ("family:grid:3,2,p=0.5", "b"),
])
def test_right_hand_walk_follows_boundary_when_all_open(spec, target):
    from percolab import graph_from_spec
    g = graph_from_spec(spec)
    tr = run(parse_strategy(f"dfs:a,right_hand,until:{target}"), g,
             _all_open(g), Configuration(g, 0))
    assert sorted(tr.s_edges) == sorted(_outer_backward_path(g, "a", target))


def test_right_hand_walk_contains_rightmost_arc_on_cycles():
    # on a cycle the walk's set S must contain the boundary arc a->c whenever
    # that arc is fully open, regardless of the rest
    g = generate("cycle", 5, p=0.5)
    arc = set(_outer_backward_path(g, "a", "c"))
    t = parse_strategy("dfs:a,right_hand,until:c")
    for mask in range(1 << g.n_edges):
        c1 = Configuration(g, mask)
        if all(c1[e] for e in arc):
            tr = run(t, g, c1, Configuration(g, 0))
            assert arc <= tr.s_edges


def test_rhw_walks_zero_is_empty():
    g = generate("parallel", 3, p=0.5)
    tr = run(parse_strategy("rhw_walks:a,b,0"), g, _all_open(g), _all_closed(g))
    assert tr.s_edges == frozenset()


def test_rhw_walks_peel_disjoint_routes():
    g = generate("parallel", 3, p=1.0)
    tr = run(parse_strategy("rhw_walks:a,b,2"), g, _all_open(g), _all_closed(g))
    # two walks, each a two-edge route
    assert len(tr.steps) == 4
    assert tr.s_edges == frozenset(st.edge for st in tr.steps)


def test_rhw_walks_from_a_to_itself_end_after_one_walk(monkeypatch):
    # a == b: every walk stops before its first query, so the run ends at
    # the first walk instead of looping k times
    scans = []
    inner = strategies._scan

    def counted(*args):
        scans.append(1)
        return (yield from inner(*args))

    monkeypatch.setattr(strategies, "_scan", counted)
    g = generate("cycle", 4, p=0.5)
    tr = run(parse_strategy("rhw_walks:a,a,1000000"), g, _all_open(g), _all_closed(g))
    assert tr.steps == ()
    assert len(scans) == 1


@pytest.mark.parametrize("spec", ["dfs:a,id,S", "dfs:a,id,until:b", "dfs:a,right_hand,until:b",
                                  "rhw_walks:a,b,1", "bfs_cluster:a"])
def test_passes_walk_a_1500_edge_open_path(spec):
    # a depth-first pass is 1500 vertices deep here; the scan holds them in
    # its frontier, not in nested frames
    g = graph_from_spec("family:path:1500,p=0.5")
    tr = run(parse_strategy(spec), g, _all_open(g), _all_closed(g))
    assert tr.queried == g.edge_ids
    assert len(tr.steps) == 1500


def test_right_hand_requires_rotation():
    g = generate("complete", 4, p=0.5)
    with pytest.raises(StrategyError, match="rotation"):
        run(parse_strategy("dfs:a,right_hand,S"), g, _all_open(g), _all_closed(g))


def test_run_rejects_requery():
    class Bad(Strategy):
        name = "bad"

        def policy(self, g):
            _ = yield (g.edge_ids[0], S)
            _ = yield (g.edge_ids[0], S)

    g = generate("cycle", 3, p=0.5)
    with pytest.raises(StrategyError, match="re-queried"):
        run(Bad(), g, _all_open(g), _all_closed(g))


def test_run_rejects_unknown_edge():
    class Bad(Strategy):
        name = "bad"

        def policy(self, g):
            _ = yield ("nope", S)

    g = generate("cycle", 3, p=0.5)
    with pytest.raises(StrategyError, match="unknown edge"):
        run(Bad(), g, _all_open(g), _all_closed(g))


def test_verify_continuation():
    g = generate("cycle", 3, p=0.5)
    t1 = parse_strategy("dfs_stop_at:a,b,c")
    t2 = extend_with_rest(t1, SBAR)
    assert verify_continuation(t1, t1, g)
    assert verify_continuation(t1, t2, g)
    assert not verify_continuation(parse_strategy("reveal_all:S"),
                                   parse_strategy("bfs_cluster:a"), g)


def test_verify_continuation_general_path():
    g = generate("cycle", 3, p=0.5)
    t1 = _FromC2()
    t2 = extend_with_rest(t1, SBAR)
    assert t2.uses_c2
    assert verify_continuation(t1, t2, g)

    class SbarFromC2(Strategy):
        """Queries e0; then e1 into Sbar only when e0 is open in c2."""
        name = "sbarfromc2"
        uses_c2 = True

        def policy(self, g):
            _b1, b2 = yield (g.edge_ids[0], S)
            if b2:
                _ = yield (g.edge_ids[1], SBAR)

    # the traces part only where e0 is open in c2, so every c2 is needed
    assert not verify_continuation(SbarFromC2(), parse_strategy("reveal_all:S"), g)


def test_continuation_refuses_more_than_2_16_pairs():
    t = parse_strategy("dfs_stop_at:a,b,c")
    with pytest.raises(SizeGuardError, match="continuation"):
        verify_continuation(t, t, graph_from_spec("family:grid:3,4,p=0.5"))  # 17 edges
    # a strategy that reads c2 runs 4^E pairs: 12 edges are 2^24
    g = graph_from_spec("family:grid:3,3,p=0.5")
    t0 = time.perf_counter()
    with pytest.raises(SizeGuardError, match="continuation"):
        verify_continuation(_FromC2(), extend_with_rest(_FromC2(), SBAR), g)
    assert time.perf_counter() - t0 < 1.0


def test_adaptedness_same_prefix_same_next():
    # strategies are functions of the revealed trace: runs whose traces agree
    # step for step up to k agree on the next query and decision
    g = generate("cycle", 3, p=0.5)
    for spec in ("bfs_cluster:a", "dfs:a,id,S", "dfs:a,right_hand,until:c"):
        t = parse_strategy(spec)
        traces = []
        for m1 in range(8):
            for m2 in range(8):
                tr = run(t, g, Configuration(g, m1), Configuration(g, m2))
                traces.append([(s.edge, s.decision, s.bit1, s.bit2) for s in tr.steps])
        for ta in traces:
            for tb in traces:
                for k in range(min(len(ta), len(tb))):
                    if ta[:k] == tb[:k]:
                        assert ta[k][0] == tb[k][0] and ta[k][1] == tb[k][1]
                    else:
                        break


def test_parse_strategy_rejects_unknown():
    with pytest.raises(StrategyError, match="unknown strategy kind 'warp'"):
        parse_strategy("warp:a")


@pytest.mark.parametrize("spec", [
    "dfs:a,id", "dfs:a,bogus,until:a", "dfs:,id,S", "dfs:a,id,S,b", "dfs:a,id,until:",
    "dfs:a,id,until:b+c", "dfs:a,id,untilany:b+", "dfs:a,id,within:b", "dfs",
    "seq:dfs:a,id,S", "seq:[]", "seq:[dfs:a,id,S;]", "seq:[bfs_cluster:a]",
    "seq:[dfs:a,bogus,S]", "rhw_walks:a,b", "rhw_walks:a,b,x", "rhw_walks:a,b,-1",
    "rhw_walks:a,b,1,2", "bfs_cluster", "bfs_cluster:", "bfs_cluster:a,b", "stop:x",
    "reveal_all", "reveal_all:bogus", "dfs_stop_at:a", "dfs_stop_at:a,,c",
])
def test_parse_strategy_refuses_malformed_spec_when_built(spec):
    with pytest.raises(StrategyError, match="malformed strategy spec") as exc:
        parse_strategy(spec)
    assert repr(spec) in str(exc.value)


@pytest.mark.parametrize("kind,args", [
    ("bfs_cluster", ()), ("stop", ("x",)), ("dfs", ("a", "id")), ("rhw_walks", ("a", "b")),
    ("rhw_walks", ("a", "b", "x")), ("dfs_stop_at", ("a",)), ("reveal_all", ("S", "Sbar")),
    ("seq", (["dfs:a,id,S"], ["dfs:b,id,S"])), ("seq", ()),
])
def test_make_strategy_refuses_wrong_arguments(kind, args):
    with pytest.raises(StrategyError, match=f"malformed strategy spec '{kind}"):
        make_strategy(kind, *args)


def test_make_strategy_builds_the_spec_text():
    assert make_strategy("dfs", "a", "right_hand", "untilany:b+c").name == \
        "dfs:a,right_hand,untilany:b+c"
    assert make_strategy("rhw_walks", "a", "b", 2).name == "rhw_walks:a,b,2"
    assert make_strategy("stop").name == "stop"
    t = make_strategy("seq", ["dfs:c,id,S", "dfs:a,id,Sbar", "dfs:b,id,S"])
    assert t.name == "seq:[dfs:c,id,S;dfs:a,id,Sbar;dfs:b,id,S]"
    assert repr(t) == f"<Strategy {t.name}>"


def test_extend_with_rest_refuses_bad_decision():
    with pytest.raises(StrategyError, match="bad decision 'bogus'"):
        extend_with_rest(parse_strategy("stop"), "bogus")


def test_reveal_all_is_the_continuation_of_stop():
    g = generate("cycle", 4, p=0.5)
    for dec in (S, SBAR):
        t = parse_strategy(f"reveal_all:{dec}")
        assert verify_continuation(parse_strategy("stop"), t, g)
        assert verify_continuation(t, extend_with_rest(parse_strategy("stop"), dec), g)
        assert verify_continuation(extend_with_rest(parse_strategy("stop"), dec), t, g)


# ---------------------------------------------------------------------------
# Column form of cluster-revealing strategies


def _run_masks(t, g, m1):
    """(queried, S) masks of one run against c1 = m1 and an empty c2."""
    tr = run(t, g, Configuration(g, m1), Configuration(g, 0))
    return (sum(1 << g.edge_index(e) for e in tr.queried), tr.s_mask(g))


def _assert_columns_match_runs(t, g, cols, n):
    queried, s = t._reveal_columns(g, cols, n)
    assert len(queried) == len(s) == g.n_edges
    got = list(zip(_transpose(queried, n), _transpose(s, n)))
    assert got == [_run_masks(t, g, m1) for m1 in _transpose(cols, n)]


@st.composite
def _covered_case(draw):
    """A random graph, a catalog strategy on its vertices (possibly behind a
    continuation), and its periodic columns or sampled ones."""
    g = draw(_graphs())
    vertex = st.sampled_from(g.vertices)
    decision = st.sampled_from((S, SBAR))

    def dfs():
        dec = draw(st.sampled_from((S, SBAR, "until", "untilany")))
        if dec == "until":
            dec = f"until:{draw(vertex)}"
        elif dec == "untilany":
            dec = f"untilany:{draw(vertex)}+{draw(vertex)}"
        return f"dfs:{draw(vertex)},id,{dec}"

    kind = draw(st.sampled_from(("stop", "reveal_all", "bfs_cluster", "dfs", "seq",
                                 "dfs_stop_at")))
    if kind == "stop":
        spec = "stop"
    elif kind == "reveal_all":
        spec = f"reveal_all:{draw(decision)}"
    elif kind == "bfs_cluster":
        spec = f"bfs_cluster:{draw(vertex)}"
    elif kind == "dfs":
        spec = dfs()
    elif kind == "dfs_stop_at":
        spec = f"dfs_stop_at:{draw(vertex)},{draw(vertex)},{draw(vertex)}"
    else:
        spec = "seq:[" + ";".join(dfs() for _ in range(draw(st.integers(1, 3)))) + "]"
    t = parse_strategy(spec)
    if draw(st.booleans()):
        t = extend_with_rest(t, draw(decision))
    if draw(st.booleans()):
        n = 1 << g.n_edges
        cols = _columns(g.n_edges)
    else:
        n = draw(st.integers(1, 200))
        cols = _edge_bit_columns(g, n, draw(st.integers(0, 2 ** 32)), g.n_edges, 0)
    return t, g, cols, n


@given(_covered_case())
@settings(max_examples=200, deadline=None)
def test_reveal_columns_equal_runs(case):
    _assert_columns_match_runs(*case)


@pytest.mark.parametrize("spec", [
    "bfs_cluster:b", "dfs:a,right_hand,S", "dfs:c,left_hand,Sbar",
    "seq:[dfs:c,id,S;dfs:a,id,Sbar;dfs:b,id,S]",
    "seq:[dfs:b,right_hand,S;dfs:a,left_hand,Sbar;dfs:c,id,S]",
    "dfs:a,right_hand,until:c", "dfs:a,left_hand,until:b", "rhw_walks:a,c,2",
    "rhw_walks:a,b,1000000", "dfs:b,right_hand,until:b",
])
def test_reveal_columns_equal_runs_on_grids(spec):
    # every configuration of grid:3,3, and samples of grid:5,5 (hand orders
    # need the families' rotations)
    t = parse_strategy(spec)
    g = graph_from_spec("family:grid:3,3,p=0.5")
    _assert_columns_match_runs(t, g, _columns(g.n_edges), 1 << g.n_edges)
    g = graph_from_spec("family:grid:5,5,p=0.5")
    _assert_columns_match_runs(t, g, _edge_bit_columns(g, 500, 3, g.n_edges, 0), 500)


@pytest.mark.parametrize("gspec, spec", [
    ("family:grid:5,5,p=0.5", "dfs:a,right_hand,until:c"),
    ("family:grid:5,5,p=0.5", "seq:[dfs:c,id,until:b;dfs:a,left_hand,S]"),
    # a and b have degree 200, past the 8-bit candidate positions
    ("family:parallel:200,q=0.9", "rhw_walks:a,b,3"),
])
def test_reveal_columns_equal_runs_in_small_blocks(gspec, spec):
    g = graph_from_spec(gspec)
    n = 101
    cols = _edge_bit_columns(g, n, 5, g.n_edges, 0)
    _assert_columns_match_runs(parse_strategy(spec), g, cols, n)


class _Delegate(Strategy):
    """The policy of another strategy behind a plain subclass, which keeps
    the base class's column form: one run per configuration pair."""

    def __init__(self, inner):
        self.inner = inner

    def policy(self, g):
        return self.inner.policy(g)


class _FromC2(Strategy):
    """Queries e0; continues to e1 only when e0 is open in c2."""
    name = "fromc2"
    uses_c2 = True

    def policy(self, g):
        _b1, b2 = yield (g.edge_ids[0], S)
        if b2:
            _ = yield (g.edge_ids[1], S)


def test_lockstep_scans_serve_every_number_of_configurations(monkeypatch):
    rows = []
    inner = strategies._scan_columns

    def counted(*args):
        rows.append(len(args[-1]))
        return inner(*args)

    monkeypatch.setattr(strategies, "_scan_columns", counted)
    t = parse_strategy("dfs:a,right_hand,until:c")
    g = graph_from_spec("family:grid:3,3,p=0.5")
    for n in (1, 7, 63, 64):
        cols = _edge_bit_columns(g, n, 1, g.n_edges, 0)
        assert t._reveal_columns(g, cols, n) == _Delegate(t)._reveal_columns(g, cols, n)
    assert rows == [1, 7, 63, 64]


def test_passes_sharing_start_and_order_share_one_pass_table(monkeypatch):
    tables = []
    inner = strategies._pass_table

    def counted(*args):
        tables.append(args[1:])
        return inner(*args)

    monkeypatch.setattr(strategies, "_pass_table", counted)
    t = parse_strategy("seq:[dfs:a,id,until:b;dfs:a,id,until:c]")
    g = graph_from_spec("family:grid:3,3,p=0.5")
    _assert_columns_match_runs(t, g, _columns(g.n_edges), 1 << g.n_edges)
    assert tables == [("a", "id")]


def test_rhw_walks_scan_at_most_one_walk_per_edge_and_one_more(monkeypatch):
    # a walk that reaches b != a queries a new edge, so k far past E costs
    # no more than E + 1 walks, in runs and in columns alike
    g = graph_from_spec("family:grid:3,3,p=0.5")
    t = parse_strategy("rhw_walks:a,b,1000000000")
    n = 1 << g.n_edges
    calls = []
    inner_columns = strategies._scan_columns

    def counted_columns(*args):
        calls.append(1)
        return inner_columns(*args)

    monkeypatch.setattr(strategies, "_scan_columns", counted_columns)
    t._reveal_columns(g, _columns(g.n_edges), n)
    assert 1 <= len(calls) <= g.n_edges + 1
    scans = []
    inner_scan = strategies._scan

    def counted_scan(*args):
        scans.append(1)
        return (yield from inner_scan(*args))

    monkeypatch.setattr(strategies, "_scan", counted_scan)
    for m1 in range(n):
        scans.clear()
        run(t, g, Configuration(g, m1), _all_closed(g))
        assert 1 <= len(scans) <= g.n_edges + 1


@pytest.mark.parametrize("t", [
    parse_strategy("dfs_stop_at:a,b,c"),
    parse_strategy("dfs:a,id,until:c"),
    parse_strategy("seq:[dfs:a,id,S;dfs:b,id,untilany:c+a]"),
    parse_strategy("rhw_walks:a,b,2"),
    extend_with_rest(parse_strategy("dfs:a,right_hand,until:c"), S),
], ids=repr)
def test_order_dependent_strategies_have_a_column_form(t):
    g = graph_from_spec("family:grid:3,3,p=0.5")
    _assert_columns_match_runs(t, g, _columns(g.n_edges), 1 << g.n_edges)


def test_user_subclasses_compose_on_the_runs_columns():
    g = graph_from_spec("family:grid:3,3,p=0.5")
    n = 1 << g.n_edges
    cols = _columns(g.n_edges)
    for spec in ("bfs_cluster:a", "dfs:a,right_hand,until:c"):
        t = parse_strategy(spec)
        assert _Delegate(t)._reveal_columns(g, cols, n) == t._reveal_columns(g, cols, n)
        for dec in (S, SBAR):
            assert extend_with_rest(_Delegate(t), dec)._reveal_columns(g, cols, n) == \
                _Delegate(extend_with_rest(t, dec))._reveal_columns(g, cols, n)
    # a strategy that reads c2, on sampled pairs
    g = graph_from_spec("family:cycle:4,p=0.5")
    n = 300
    cols1 = _edge_bit_columns(g, n, 2, 2 * g.n_edges, 0)
    cols2 = _edge_bit_columns(g, n, 2, 2 * g.n_edges, g.n_edges)
    for dec in (S, SBAR):
        t = extend_with_rest(_FromC2(), dec)
        assert t._reveal_columns(g, cols1, n, cols2) == \
            _Delegate(t)._reveal_columns(g, cols1, n, cols2)


@st.composite
def _keep_case(draw):
    """A family graph with every vertex on its outer face (so the hand
    orders run), a spec of any catalog kind with its vertex slots, their
    vertices, a wrapper (none, the base class's runs per pair, or a
    continuation), sampled c1 and c2 columns and a mask of pairs to keep."""
    g = graph_from_spec(draw(st.sampled_from(
        ("family:cycle:4,p=0.5", "family:grid:2,3,p=0.5", "family:grid:2,4,p=0.5"))))

    def dfs():
        order = draw(st.sampled_from(("id", "right_hand", "left_hand")))
        return "dfs:{}," + order + "," + draw(st.sampled_from(
            (S, SBAR, "until:{}", "untilany:{}+{}")))

    kinds = {
        "stop": lambda: "stop",
        "reveal_all": lambda: "reveal_all:" + draw(st.sampled_from((S, SBAR))),
        "bfs_cluster": lambda: "bfs_cluster:{}",
        "dfs": dfs,
        "seq": lambda: "seq:[" + ";".join(dfs() for _ in range(draw(st.integers(1, 3)))) + "]",
        "dfs_stop_at": lambda: "dfs_stop_at:{},{},{}",
        "rhw_walks": lambda: "rhw_walks:{},{}," + str(draw(st.integers(0, 3))),
    }
    spec = kinds[draw(st.sampled_from(sorted(kinds)))]()
    vertices = [draw(st.sampled_from(g.vertices)) for _ in range(spec.count("{}"))]
    wrap = draw(st.sampled_from((lambda t: t, _Delegate, lambda t: extend_with_rest(t, S),
                                 lambda t: extend_with_rest(t, SBAR))))
    n, seed = draw(st.integers(1, 200)), draw(st.integers(0, 2 ** 32))
    cols1 = _edge_bit_columns(g, n, seed, 2 * g.n_edges, 0)
    cols2 = _edge_bit_columns(g, n, seed, 2 * g.n_edges, g.n_edges)
    bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    keep = sum(bit << i for i, bit in enumerate(bits))
    return g, spec, vertices, wrap, cols1, cols2, n, keep


def _raised(call):
    """The message of the StrategyError that call raises, or None."""
    try:
        call()
    except StrategyError as err:
        return str(err)
    return None


@given(_keep_case())
@settings(max_examples=150, deadline=None)
def test_reveal_columns_on_kept_pairs_equal_every_pair(case):
    g, spec, vertices, wrap, cols1, cols2, n, keep = case
    t = wrap(parse_strategy(spec.format(*vertices)))
    every = t._reveal_columns(g, cols1, n, cols2)
    kept = t._reveal_columns(g, cols1, n, cols2, keep)
    assert [[col & keep for col in half] for half in kept] == \
        [[col & keep for col in half] for half in every]
    if vertices and wrap is not _Delegate:
        # an unknown first vertex raises what a run raises, even on no pair
        t = wrap(parse_strategy(spec.format("zz", *vertices[1:])))
        assert _raised(lambda: t._reveal_columns(g, cols1, n, cols2, 0)) == \
            _raised(lambda: run(t, g, _all_open(g), _all_closed(g)))


@pytest.mark.parametrize("spec, gspec, match", [
    ("bfs_cluster:zz", "family:cycle:3,p=0.5", "unknown start vertex 'zz'"),
    ("dfs:zz,id,S", "family:cycle:3,p=0.5", "unknown start vertex 'zz'"),
    ("seq:[dfs:a,id,S;dfs:zz,id,Sbar]", "family:cycle:3,p=0.5", "unknown start vertex 'zz'"),
    ("dfs:a,right_hand,S", "family:complete:4,p=0.5", "rotation"),
    ("seq:[dfs:a,id,S;dfs:b,left_hand,S]", "family:complete:4,p=0.5", "rotation"),
    ("dfs:v1_1,right_hand,S", "family:grid:3,3,p=0.5", "outer face"),
    ("dfs:a,id,until:zz", "family:cycle:3,p=0.5", "unknown target vertex 'zz'"),
    ("dfs_stop_at:a,b,zz", "family:cycle:3,p=0.5", "unknown target vertex 'zz'"),
    ("rhw_walks:zz,b,1", "family:cycle:3,p=0.5", "unknown start vertex 'zz'"),
    ("rhw_walks:a,b,1", "family:complete:4,p=0.5", "rotation"),
    ("dfs:v1_1,right_hand,until:c", "family:grid:3,3,p=0.5", "outer face"),
])
def test_reveal_columns_raise_what_runs_raise(spec, gspec, match):
    g = graph_from_spec(gspec)
    t = parse_strategy(spec)
    with pytest.raises(StrategyError, match=match):
        run(t, g, _all_open(g), _all_closed(g))
    with pytest.raises(StrategyError, match=match):
        t._reveal_columns(g, _columns(g.n_edges), 1 << g.n_edges)


@pytest.mark.parametrize("spec, gspec", [
    ("rhw_walks:zz,b,0", "family:cycle:3,p=0.5"),
    ("rhw_walks:a,b,0", "family:complete:4,p=0.5"),
    ("dfs:v1_1,right_hand,until:v1_1", "family:grid:3,3,p=0.5"),
])
def test_passes_that_query_nothing_raise_nothing(spec, gspec):
    # k = 0 walks never look at their vertices, and a pass that starts on
    # its target stops before it scans the start's candidates
    g = graph_from_spec(gspec)
    t = parse_strategy(spec)
    assert run(t, g, _all_open(g), _all_closed(g)).steps == ()
    assert t._reveal_columns(g, _columns(g.n_edges), 1 << g.n_edges) == \
        ([0] * g.n_edges, [0] * g.n_edges)


def test_column_form_checks_passes_that_no_configuration_reaches():
    # the first pass stops every run at once, so runs never check the second
    # pass's start; the column form checks every pass before it scans
    g = graph_from_spec("family:cycle:3,p=0.5")
    t = parse_strategy("seq:[dfs:a,id,until:a;dfs:zz,id,S]")
    assert run(t, g, _all_open(g), _all_closed(g)).steps == ()
    with pytest.raises(StrategyError, match="unknown start vertex 'zz'"):
        t._reveal_columns(g, _columns(g.n_edges), 1 << g.n_edges)


class _BadDecision(Strategy):
    """Queries the first edge with a decision that is neither S nor Sbar."""
    name = "baddecision"

    def policy(self, g):
        yield g.edge_ids[0], "maybe"


@pytest.mark.parametrize("call, exc, fragment", [
    (lambda g, other: run(parse_strategy("bfs_cluster:a"), g, Configuration(other, 0),
                          Configuration(g, 0)),
     StrategyError, "configurations belong to a different graph"),
    (lambda g, other: run(parse_strategy("bfs_cluster:a"), g, Configuration(g, 0),
                          Configuration(other, 0)),
     StrategyError, "configurations belong to a different graph"),
    (lambda g, other: run(_BadDecision(), g, Configuration(g, 0), Configuration(g, 0)),
     StrategyError, "bad decision 'maybe'"),
    (lambda g, other: splice(Configuration(g, 0), Configuration(other, 0), []),
     ValueError, "configurations belong to different graphs"),
])
def test_strategy_refusals(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call(generate("cycle", 3, p=0.5), generate("cycle", 3, p=0.5))
