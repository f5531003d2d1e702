import math

import pytest

from percolab import (PercolabError, SizeGuardError, exact_pair, exact_prob, generate,
                      graph_from_spec, parse_event, parse_strategy)
from percolab.exact import Joint, SqS
from percolab.strategies import S
from percolab.zipper import (AdaptiveChoice, BowtieEvent, ConstChoice, DualSpace,
                             GeneralStrategy, ProductEvent, SplitChoice,
                             build_preset, check_gen_inequality,
                             check_zipper_condition, event_probability,
                             gen_enumerate)

TOL = 1e-12


def test_preset_measures_normalized():
    for name, p in (("hk", 0.3), ("vdbk", 0.6), ("strongbk", 0.25),
                    ("colored", None), ("richards", None)):
        ds = build_preset(name, p)
        assert math.fsum(ds.mu1) == pytest.approx(1.0, abs=TOL)
        assert math.fsum(ds.mu2) == pytest.approx(1.0, abs=TOL)


def test_presets_need_p():
    with pytest.raises(PercolabError):
        build_preset("strongbk")
    with pytest.raises(PercolabError):
        build_preset("hk", 1.5)
    with pytest.raises(PercolabError):
        build_preset("nope", 0.5)


def test_strongbk_case_table():
    for p in (0.25, 0.5, 0.75):
        ds = build_preset("strongbk", p)
        assert ds.measure1([]) == 0.0
        assert ds.measure1(["2"]) == pytest.approx(p * p, abs=TOL)
        assert ds.measure1(["1", "2"]) == pytest.approx(p, abs=TOL)
        assert ds.measure1(["0", "1", "2"]) == pytest.approx(1.0, abs=TOL)
        # paired-space values the single space must dominate or match
        assert ds.measure2(["11"]) == pytest.approx(p * p, abs=TOL)
        assert ds.measure2(["01", "11"]) == pytest.approx(p, abs=TOL)


def test_colored_case_table():
    ds = build_preset("colored")
    pairs = [((), (), 0.0, 0.0),
             ((), ("111",), 0.0, 1 / 8),
             (("110",), ("111", "110"), 1 / 4, 1 / 4),
             (("110", "101"), ("111", "110", "101", "100"), 1 / 2, 1 / 2)]
    for x1, x2, want1, want2 in pairs:
        assert ds.measure1(x1) == pytest.approx(want1, abs=TOL)
        assert ds.measure2(x2) == pytest.approx(want2, abs=TOL)
    assert ds.measure1(ds.omega1) == pytest.approx(1.0, abs=TOL)


def test_richards_case_table():
    ds = build_preset("richards")
    assert ds.measure1(["111"]) == pytest.approx(9 / 24, abs=TOL)
    assert ds.measure2(["111"]) == pytest.approx(6 / 24, abs=TOL)
    assert ds.measure1(["111", "110"]) == pytest.approx(10 / 24, abs=TOL)
    assert ds.measure2(["111", "110"]) == pytest.approx(8 / 24, abs=TOL)
    assert ds.measure1(["111", "110", "101", "100"]) == pytest.approx(0.5, abs=TOL)
    assert ds.measure2(["111", "110", "101", "100"]) == pytest.approx(0.5, abs=TOL)


def test_gen_enumerate_weights_sum_to_one():
    g = generate("path", 2, p=0.5)
    for name, p in (("strongbk", 0.5), ("colored", None), ("richards", None)):
        ds = build_preset(name, p)
        for strat in (ConstChoice(1), ConstChoice(2),
                      SplitChoice(g.edge_ids[:1]),
                      AdaptiveChoice(ds.union_symbols[:1])):
            dist = gen_enumerate(g, ds, strat)
            assert math.fsum(dist.values()) == pytest.approx(1.0, abs=TOL)


def test_gen_enumerate_const_trees_are_products():
    g = generate("path", 1, p=0.5)
    ds = build_preset("strongbk", 0.5)
    d1 = gen_enumerate(g, ds, ConstChoice(1))
    assert {k[0][2]: v for k, v in d1.items()} == \
        {"0": 0.5, "1": 0.25, "2": 0.25}
    d2 = gen_enumerate(g, ds, ConstChoice(2))
    assert all(abs(v - 0.25) < TOL for v in d2.values())
    assert len(d2) == 4


def test_gen_enumerate_rejects_partial_strategy():
    class Lazy(GeneralStrategy):
        def choose(self, prefix, g):
            return None

    g = generate("path", 2, p=0.5)
    ds = build_preset("vdbk", 0.5)
    with pytest.raises(PercolabError, match="every edge"):
        gen_enumerate(g, ds, Lazy())


def _bowtie_factory(ds, A, B):
    return lambda g: BowtieEvent(g, [(A, B)], ds.caps)


def test_vdbk_preset_reproduces_classical_inequality():
    # all-first = both witnesses inside one configuration; all-second = the
    # independent product.  The sandwich is the disjoint-occurrence bound.
    g = generate("parallel", 2, p=0.5)
    ds = build_preset("vdbk", 0.5)
    ab = parse_event("a,b")
    rep = check_gen_inequality(g, ds, SplitChoice(g.edge_ids[:2]),
                               _bowtie_factory(ds, ab, ab))
    assert rep.ok
    assert rep.p_all2 == pytest.approx(exact_prob(g, ab) ** 2, abs=TOL)
    from percolab import disjoint_occurrence, Configuration
    from percolab.exact import weights
    w = weights(g)
    direct = math.fsum(w[m] for m in range(len(w))
                       if disjoint_occurrence(ab, ab, g, Configuration(g, m)))
    assert rep.p_all1 == pytest.approx(direct, abs=TOL)


@pytest.mark.parametrize("gspec", ["family:path:2,p=0.5", "family:cycle:3,p=0.5",
                                   "family:parallel:2,p=0.5"])
def test_strongbk_direction_and_condition(gspec):
    g = graph_from_spec(gspec)
    ds = build_preset("strongbk", 0.5)
    ab = parse_event("a,b")
    factory = _bowtie_factory(ds, ab, ab)
    assert check_zipper_condition(ds, factory, g).ok
    for mid in (SplitChoice(g.edge_ids[:1]), AdaptiveChoice(("0",))):
        assert check_gen_inequality(g, ds, mid, factory).ok


def test_strongbk_union_of_pairs():
    g = generate("cycle", 3, p=0.5)
    ds = build_preset("strongbk", 0.5)
    ab, bc, ac = (parse_event(t) for t in ("a,b", "b,c", "a,c"))

    def factory(gg):
        return BowtieEvent(gg, [(ab, bc), (bc, ac)], ds.caps)

    assert check_zipper_condition(ds, factory, g).ok
    assert check_gen_inequality(g, ds, SplitChoice(g.edge_ids[:2]), factory).ok


def test_colored_directions_and_pairwise_equalities():
    ds = build_preset("colored")
    U = parse_event("a,b")
    for gspec in ("family:path:1,p=0.5", "family:path:2,p=0.5"):
        g = graph_from_spec(gspec)
        factory = lambda gg: ProductEvent(gg, (U, U, U))
        rep = check_gen_inequality(g, ds, SplitChoice(g.edge_ids[:1]), factory)
        assert rep.ok
        assert rep.extras["two_factor_max_delta"] <= TOL
        assert check_zipper_condition(ds, factory, g).ok


def test_colored_single_edge_values():
    # one edge: even-parity triples make all three layers open impossible
    ds = build_preset("colored")
    g = generate("path", 1, p=0.5)
    U = parse_event("a,b")
    ev = ProductEvent(g, (U, U, U))
    p1 = event_probability(gen_enumerate(g, ds, ConstChoice(1)), ev)
    p2 = event_probability(gen_enumerate(g, ds, ConstChoice(2)), ev)
    assert p1 == pytest.approx(0.0, abs=TOL)
    assert p2 == pytest.approx(1 / 8, abs=TOL)


def test_colored_guards_refuse_seven_edges():
    # 8 colored symbols per edge: 8^7 states to enumerate, 7 * 8^6 contexts
    g = generate("path", 7, p=0.5)
    ds = build_preset("colored")
    ab = parse_event("a,b")
    with pytest.raises(SizeGuardError, match="enumeration too large"):
        gen_enumerate(g, ds, ConstChoice(1))
    with pytest.raises(SizeGuardError, match="condition check too large"):
        check_zipper_condition(ds, lambda gg: ProductEvent(gg, (ab, ab, ab)), g)


def test_product_event_without_a_layer():
    g = generate("path", 1, p=0.5)
    U = parse_event("a,b")
    ev = ProductEvent(g, (U, U, U))
    (eid,) = g.edge_ids
    assert not ev({eid: (1, "101")})
    assert ev.without(1)({eid: (1, "101")})
    assert not ev.without(0)({eid: (1, "101")})
    with pytest.raises(PercolabError, match="too short"):
        ev.without(0)({eid: (1, "1")})


def test_richards_reversed_direction():
    ds = build_preset("richards")
    U = parse_event("a,b")
    for gspec in ("family:path:1,p=0.5", "family:path:2,p=0.5"):
        g = graph_from_spec(gspec)
        factory = lambda gg: ProductEvent(gg, (U, U, U))
        cond = check_zipper_condition(ds, factory, g)
        assert cond.ok and cond.direction == "reversed"
        rep = check_gen_inequality(g, ds, SplitChoice(g.edge_ids[:1]), factory)
        assert rep.ok
        assert rep.p_all1 >= rep.p_mid >= rep.p_all2


def test_richards_single_edge_values():
    ds = build_preset("richards")
    g = generate("path", 1, p=0.5)
    U = parse_event("a,b")
    ev = ProductEvent(g, (U, U, U))
    p1 = event_probability(gen_enumerate(g, ds, ConstChoice(1)), ev)
    p2 = event_probability(gen_enumerate(g, ds, ConstChoice(2)), ev)
    assert p1 == pytest.approx(9 / 24, abs=TOL)
    assert p2 == pytest.approx(6 / 24, abs=TOL)


class _TreeAdapter(GeneralStrategy):
    """Replay a catalog reveal strategy on the first-layer bits drawn so far:
    the edges it puts in S draw from measure ``s_measure``, every other edge,
    revealed or not, from the other one.  Catalog strategies read the first
    configuration only, so the replay feeds them no second bit."""

    def __init__(self, strategy, s_measure):
        self.strategy = strategy
        self.s_measure = s_measure
        self.name = f"adapter:{strategy.name}"

    def choose(self, prefix, g):
        drawn = {eid: sym for eid, _which, sym in prefix}
        gen = self.strategy.policy(g)
        try:
            edge, dec = next(gen)
            while edge in drawn:
                edge, dec = gen.send((drawn[edge][0] == "1", False))
            return edge, self.s_measure if dec == S else 3 - self.s_measure
        except StopIteration:
            pass
        rest = [eid for eid in g.edge_ids if eid not in drawn]
        return (rest[0], 3 - self.s_measure) if rest else None


@pytest.mark.parametrize("spec", ["bfs_cluster:a", "dfs_stop_at:a,b,c", "stop"])
def test_hk_preset_specializes_to_pair_engine(spec):
    # first digits = one configuration, second digits = splice; so the mixed
    # tree probability of a two-layer product event equals the pair engine's
    # joint probability for the mirrored reveal strategy
    g = generate("cycle", 3, p=0.5)
    ds = build_preset("hk", 0.5)
    t = parse_strategy(spec)
    A, B = parse_event("a,b"), parse_event("b,c")
    ev = lambda gg: ProductEvent(gg, (A, B))
    pm = event_probability(gen_enumerate(g, ds, _TreeAdapter(t, 2)), ev(g))
    want = exact_pair(g, t, Joint(A, B))
    assert pm == pytest.approx(want, abs=TOL)
    # and the whole sandwich agrees with the product / intersection endpoints
    rep = check_gen_inequality(g, ds, _TreeAdapter(t, 2), ev)
    assert rep.ok
    assert rep.p_all1 == pytest.approx(exact_prob(g, A) * exact_prob(g, B), abs=TOL)


@pytest.mark.parametrize("spec", ["bfs_cluster:a", "dfs:a,right_hand,until:c",
                                  "dfs_stop_at:a,b,c", "stop", "reveal_all:S"])
@pytest.mark.parametrize("gspec, p", [("family:cycle:4,p=0.5", 0.5),
                                      ("family:grid:3,2,p=0.5", 0.5),
                                      ("family:theta:3,p=0.25", 0.25)])
def test_tree_pair_queries_are_dual_measure_trees(gspec, p, spec):
    # the tree HK and vdBK bounds as zipper trees: hk draws S from the
    # diagonal pair (the splice copies c1 there), vdbk draws S as one bit
    # that may serve only one witness, and both draw the rest as two bits
    g = graph_from_spec(gspec)
    t = parse_strategy(spec)
    A, B = parse_event("a,b"), parse_event("b,c")
    hk, vdbk = build_preset("hk", p), build_preset("vdbk", p)
    joint = event_probability(gen_enumerate(g, hk, _TreeAdapter(t, 2)), ProductEvent(g, (A, B)))
    assert joint == pytest.approx(exact_pair(g, t, Joint(A, B)), abs=TOL)
    sqs = event_probability(gen_enumerate(g, vdbk, _TreeAdapter(t, 1)),
                            BowtieEvent(g, [(A, B)], vdbk.caps))
    assert sqs == pytest.approx(exact_pair(g, t, SqS(A, B)), abs=TOL)


def test_condition_worst_case_is_reported():
    ds = build_preset("strongbk", 0.5)
    g = generate("path", 2, p=0.5)
    ab = parse_event("a,b")
    rep = check_zipper_condition(ds, _bowtie_factory(ds, ab, ab), g)
    assert rep.ok
    assert rep.worst_edge in g.edge_ids


def test_gen_inequality_enumerates_each_tree_once(monkeypatch):
    import percolab.zipper as zipper
    g = graph_from_spec("family:path:2,p=0.5")
    ds = build_preset("colored")
    ab = parse_event("a,b")
    calls = []
    enumerate_tree = zipper.gen_enumerate
    monkeypatch.setattr(zipper, "gen_enumerate",
                        lambda *a: calls.append(a[2].name) or enumerate_tree(*a))
    rep = check_gen_inequality(g, ds, SplitChoice(g.edge_ids[:1]),
                               lambda gg: ProductEvent(gg, (ab, ab, ab)))
    assert calls == ["all-1", f"split:{g.edge_ids[0]}", "all-2"]
    assert rep.extras["two_factor_max_delta"] == 0.0


def test_bowtie_event_matches_split_loop():
    # the table split test against every pick of the free (CAP_ONE) edges
    g = graph_from_spec("family:cycle:3,p=0.5")
    ds = build_preset("strongbk", 0.5)
    A, B = parse_event("a,b"), parse_event("b,c")
    ev = BowtieEvent(g, [(A, B)], ds.caps)
    from itertools import product as cartesian
    from percolab.exact import truth_table
    from percolab.zipper import CAP_A, CAP_B, CAP_BOTH, CAP_ONE
    ta, tb = truth_table(g, A), truth_table(g, B)
    for combo in cartesian(ds.union_symbols, repeat=g.n_edges):
        symbols = {eid: (0, s) for eid, s in zip(g.edge_ids, combo)}
        base_a = base_b = 0
        free = []
        for eid, s in zip(g.edge_ids, combo):
            bit, cap = 1 << g.edge_index(eid), ds.caps[s]
            if cap in (CAP_A, CAP_BOTH):
                base_a |= bit
            if cap in (CAP_B, CAP_BOTH):
                base_b |= bit
            if cap == CAP_ONE:
                free.append(bit)
        want = any(ta[base_a | sum(b for i, b in enumerate(free) if pick >> i & 1)] and
                   tb[base_b | sum(b for i, b in enumerate(free) if not pick >> i & 1)]
                   for pick in range(1 << len(free)))
        assert ev(symbols) is want


def test_bowtie_event_refuses_unknown_capability():
    # a capability outside the CAP_* table used to serve no witness, silently
    g = graph_from_spec("family:path:2,p=0.5")
    ab = parse_event("a,b")
    with pytest.raises(PercolabError, match="symbol '1'.*capability 9"):
        BowtieEvent(g, [(ab, ab)], {"0": 0, "1": 9})


class _Picks(GeneralStrategy):
    """Assigns the first edge with measure 1, then returns ``then``."""

    def __init__(self, then):
        self.then = then

    def choose(self, prefix, g):
        return (g.edge_ids[0], 1) if not prefix else self.then(g)


_HALF = (0.5, 0.5)


@pytest.mark.parametrize("call, fragment", [
    (lambda: DualSpace("x", ("0", "1"), (1.0,), ("0", "1"), _HALF),
     "measure length mismatch"),
    (lambda: DualSpace("x", ("0", "1"), _HALF, ("0", "1"), (1.5, -0.5)),
     "negative probability"),
    (lambda: DualSpace("x", ("0", "1"), (0.5, 0.25), ("0", "1"), _HALF),
     "measure does not sum to 1 in preset x"),
    (lambda: BowtieEvent(generate("path", 2, p=0.5), [], None),
     "no paired-witness capability table"),
    (lambda: gen_enumerate(generate("path", 2, p=0.5), build_preset("vdbk", 0.5),
                           _Picks(lambda g: ("nowhere", 1))),
     "strategy chose unknown edge 'nowhere'"),
    (lambda: gen_enumerate(generate("path", 2, p=0.5), build_preset("vdbk", 0.5),
                           _Picks(lambda g: (g.edge_ids[0], 2))),
     "strategy re-assigned edge"),
    (lambda: gen_enumerate(generate("path", 2, p=0.5), build_preset("vdbk", 0.5),
                           _Picks(lambda g: (g.edge_ids[1], 3))),
     "bad measure index 3"),
])
def test_zipper_refusals(call, fragment):
    with pytest.raises(PercolabError, match=fragment):
        call()
