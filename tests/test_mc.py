import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolab import (Configuration, Estimate, EvaluationError, Graph,
                      MonotonicityError, SizeGuardError, StrategyError, exact_pair,
                      exact_prob, generate, graph_from_spec, mc_npaths, mc_pair, mc_prob,
                      parse_event, parse_strategy)
from percolab.events import NPathsAtom
from percolab.exact import Joint, SqS, exact_npaths
from percolab import config, events, mc
from percolab.checks import run_check
from percolab.mc import _edge_bit_columns, mc_probs
from percolab.strategies import S, Strategy, extend_with_rest, run, splice_mask

from oracles import evaluate_mask, mc_pair_all_lanes
from test_enumeration import _events, _graphs, _increasing_events
from test_strategies import _Delegate, _FromC2


def test_determinism_bit_for_bit():
    g = generate("cycle", 3, p=0.5)
    e = parse_event("a,b,c")
    a = mc_prob(g, e, 20000, 7)
    b = mc_prob(g, e, 20000, 7)
    assert a == b
    c = mc_prob(g, e, 20000, 8)
    assert a != c


def test_single_edge_bernoulli():
    g = generate("path", 1, p=0.3)
    est = mc_prob(g, parse_event("a,b"), 10 ** 6, 42)
    assert abs(est.mean - 0.3) < 4 * est.std_error


def test_sure_event_is_exactly_one():
    g = generate("cycle", 3, p=1.0)
    assert mc_prob(g, parse_event("a,b"), 5000, 1).mean == 1.0


def test_triangle_against_exact():
    g = generate("cycle", 3, p=0.5)
    e = parse_event("a,b,c")
    est = mc_prob(g, e, 10 ** 6, 11)
    assert abs(est.mean - 0.5) < 4 * est.std_error


def test_wilson_interval_inside_unit_and_covers_mean():
    g = generate("cycle", 3, p=0.5)
    for text, seed in (("a|b|c", 3), ("a,b,c", 4)):
        est = mc_prob(g, parse_event(text), 5000, seed)
        assert 0.0 <= est.ci_low <= est.mean <= est.ci_high <= 1.0


def test_oracle_consistency_many_seeds():
    # coverage: the exact value within four standard errors in >= 95 of 100 runs
    g = generate("cycle", 3, p=0.5)
    e = parse_event("a,b")
    exact = exact_prob(g, e)
    hits = 0
    for seed in range(100):
        est = mc_prob(g, e, 2000, seed)
        if abs(est.mean - exact) <= 4 * max(est.std_error, 1e-9):
            hits += 1
    assert hits >= 95


def test_oracle_consistency_mixed_events():
    for gspec, text in (("family:theta:3,p=0.5", "a|b|c"),
                        ("family:grid:3,2,p=0.25", "a,b U a,c"),
                        ("family:parallel:3,q=0.5", "npaths(a,b,2)")):
        g = graph_from_spec(gspec)
        e = parse_event(text)
        exact = exact_prob(g, e)
        est = mc_prob(g, e, 200_000, 5)
        assert abs(est.mean - exact) < 4 * max(est.std_error, 1e-9), (gspec, text)


def test_monotone_streams_common_randomness():
    # same seed, increasing p: an increasing event can only gain frequency
    e = parse_event("a,b,c")
    means = [mc_prob(generate("cycle", 4, p=p), e, 20000, 99).mean
             for p in (0.2, 0.4, 0.6, 0.8)]
    assert means == sorted(means)


def test_mc_npaths_matches_exact():
    g = generate("parallel", 3, q=0.5)
    est = mc_npaths(g, "a", "b", 2, 200_000, 13)
    assert abs(est.mean - 0.5) < 4 * est.std_error
    est3 = mc_npaths(g, "a", "b", 3, 200_000, 14)
    assert abs(est3.mean - 0.125) < 4 * est3.std_error


def test_mc_npaths_one_equals_connectivity_event():
    g = generate("theta", 3, p=0.5)
    a = mc_npaths(g, "a", "b", 1, 30000, 21)
    b = mc_prob(g, parse_event("npaths(a,b,1)"), 30000, 21)
    assert a.mean == b.mean  # same indicator, same stream


def _npaths_tail(g, u, v, n_max, samples, seed):
    """Estimates of npaths(u,v,1..n_max) from one shared sample set."""
    return mc_probs(g, [NPathsAtom(u, v, k) for k in range(1, n_max + 1)], samples, seed)[0]


def test_shared_npaths_tail_consistent():
    g = generate("parallel", 3, q=0.5)
    tails = _npaths_tail(g, "a", "b", 3, 50000, 17)
    assert tails[0].mean >= tails[1].mean >= tails[2].mean
    for k, est in enumerate(tails, start=1):
        assert abs(est.mean - exact_npaths(g, "a", "b", k)) < \
            4 * max(est.std_error, 1e-9)


def test_mc_pair_factorization_and_oracle():
    g = generate("cycle", 3, p=0.5)
    A, B = parse_event("a,b"), parse_event("b,c")
    stop = parse_strategy("stop")
    est = mc_pair(g, stop, Joint(A, B), 100_000, 31)
    want = exact_prob(g, A) * exact_prob(g, B)
    assert abs(est.mean - want) < 4 * est.std_error
    bfs = parse_strategy("bfs_cluster:a")
    est2 = mc_pair(g, bfs, Joint(A, B), 100_000, 32)
    want2 = exact_pair(g, bfs, Joint(A, B))
    assert abs(est2.mean - want2) < 4 * est2.std_error


def test_submultiplicativity_at_three_sigma():
    g = graph_from_spec("family:grid:2,6,p=0.7")
    f1 = mc_npaths(g, "a", "b", 1, 30000, 41)
    f2 = mc_npaths(g, "a", "b", 2, 30000, 42)
    slack = f1.mean ** 2 - f2.mean
    se = (4 * (f1.mean * f1.std_error) ** 2 + f2.std_error ** 2) ** 0.5
    assert slack > -3 * se


def test_estimate_fields():
    est = Estimate.from_count(50, 100, 9)
    assert est.mean == 0.5
    assert est.n == 100 and est.seed == 9
    assert 0.4 < est.ci_low < 0.5 < est.ci_high < 0.6


def test_pair_bound_on_grid_at_three_sigma():
    # cluster-reveal coupling from the first mark, stopped at the others: the
    # coupled joint of the triple connection is at most twice the
    # union-times-pair product (checked statistically on a 5x5 grid)
    g = graph_from_spec("family:grid:5,5,p=0.5")
    t = parse_strategy("dfs_stop_at:a,b,c")
    abc = parse_event("a,b,c")
    joint = mc_pair(g, t, Joint(abc, abc), 20000, 61)
    pu = mc_prob(g, parse_event("a,b U a,c"), 200_000, 62)
    pbc = mc_prob(g, parse_event("b,c"), 200_000, 63)
    rhs = 2 * pu.mean * pbc.mean
    se = (joint.std_error ** 2 + (2 * pbc.mean * pu.std_error) ** 2 +
          (2 * pu.mean * pbc.std_error) ** 2) ** 0.5
    assert rhs - joint.mean > -3 * se


def test_eighty_four_edges_run_on_columns():
    # 84 edges: more than one uint64 per configuration, no size limit applies
    g = graph_from_spec("family:grid:7,7,p=0.5")
    assert g.n_edges == 84
    ab = parse_event("a,b")
    est = mc_prob(g, ab, 2000, 3)
    assert 0.0 < est.mean < 1.0
    # one open path is connectivity: the same hits from the same stream
    assert mc_prob(g, parse_event("npaths(a,b,1)"), 2000, 3) == est
    assert mc_npaths(g, "a", "b", 1, 2000, 3) == est
    tails = _npaths_tail(g, "a", "b", 2, 2000, 3)
    assert tails[0] == est and tails[1].mean <= tails[0].mean
    joint = mc_pair(g, parse_strategy("bfs_cluster:a"), Joint(ab, ab), 500, 3)
    assert 0.0 < joint.mean < 1.0


@pytest.mark.parametrize("call", [
    lambda g: exact_npaths(g, "a", "zz", 1),
    lambda g: mc_npaths(g, "a", "zz", 1, 100, 1),
    lambda g: _npaths_tail(g, "zz", "b", 2, 100, 1),
])
def test_unknown_vertex_in_npaths_is_an_evaluation_error(call):
    with pytest.raises(EvaluationError):
        call(generate("cycle", 3, p=0.5))


@pytest.mark.parametrize("engine", [exact_pair, lambda g, t, q: mc_pair(g, t, q, 100, 1)],
                         ids=["exact", "mc"])
@pytest.mark.parametrize("query, error", [
    ("nope", TypeError),
    (Joint(parse_event("a,zz"), parse_event("a,b")), EvaluationError),
    (SqS(parse_event("a|b"), parse_event("a,b")), MonotonicityError),
], ids=["not-a-query", "unknown-vertex", "decreasing-operand"])
def test_both_engines_refuse_malformed_pair_queries(engine, query, error):
    with pytest.raises(error):
        engine(generate("cycle", 3, p=0.5), parse_strategy("bfs_cluster:a"), query)


@pytest.mark.parametrize("engine", [exact_pair, lambda g, t, q: mc_pair(g, t, q, 100, 1)],
                         ids=["exact", "mc"])
@pytest.mark.parametrize("query", [Joint, SqS])
@pytest.mark.parametrize("spec", ["bfs_cluster:zz", "dfs:zz,id,S",
                                  "seq:[dfs:a,id,S;dfs:zz,id,S]"])
def test_both_engines_refuse_an_unknown_start_vertex(engine, query, spec):
    g = generate("cycle", 3, p=0.5)
    t = parse_strategy(spec)
    with pytest.raises(StrategyError, match="unknown start vertex 'zz'"):
        run(t, g, Configuration(g, 0), Configuration(g, 0))
    with pytest.raises(StrategyError, match="unknown start vertex 'zz'"):
        engine(g, t, query(parse_event("a,b"), parse_event("b,c")))


@pytest.mark.parametrize("engine", [exact_pair, lambda g, t, q: mc_pair(g, t, q, 100, 1)],
                         ids=["exact", "mc"])
@pytest.mark.parametrize("query", [Joint, SqS])
@pytest.mark.parametrize("spec, match", [("dfs:z,id,S", "unknown start vertex 'z'"),
                                         ("dfs:a,id,until:z", "unknown target vertex 'z'")])
def test_both_engines_refuse_a_strategy_when_no_configuration_is_in_a(engine, query, spec,
                                                                      match):
    # at p = 0 no configuration has a,b, so neither engine runs the strategy
    # on a single pair: revealing on none must still refuse it
    g = generate("cycle", 3, p=0.0)
    with pytest.raises(StrategyError, match=match):
        engine(g, parse_strategy(spec), query(parse_event("a,b"), parse_event("b,c")))


@pytest.mark.parametrize("call", [
    lambda g: mc_prob(g, parse_event("a,b"), 0, 1),
    lambda g: mc_npaths(g, "a", "b", 1, 0, 1),
    lambda g: _npaths_tail(g, "a", "b", 2, 0, 1),
    lambda g: mc_probs(g, [NPathsAtom("a", "b", 0)], 100, 1),
    lambda g: mc_pair(g, parse_strategy("bfs_cluster:a"),
                      Joint(parse_event("a,b"), parse_event("b,c")), 0, 1),
    lambda g: mc_pair(g, parse_strategy("bfs_cluster:a"),
                      SqS(parse_event("a,b"), parse_event("b,c")), -1, 1),
    lambda g: exact_npaths(g, "a", "b", 0),
])
def test_no_samples_or_no_levels_refused(call):
    with pytest.raises(ValueError):
        call(generate("cycle", 3, p=0.5))


@pytest.mark.parametrize("call", [
    lambda g, n: mc_prob(g, parse_event("a,b"), n, 1),
    lambda g, n: mc_pair(g, parse_strategy("bfs_cluster:a"),
                         Joint(parse_event("a,b"), parse_event("b,c")), n, 1),
])
def test_samples_past_the_cap_refused(call, monkeypatch):
    g = generate("cycle", 3, p=0.5)
    with pytest.raises(SizeGuardError, match="exceed the cap"):
        call(g, config.MAX_SAMPLES + 1)
    monkeypatch.setattr(config, "MAX_SAMPLES", 64)
    assert call(g, 64).n == 64
    with pytest.raises(SizeGuardError, match="65 samples exceed the cap of 64"):
        call(g, 65)


def test_seeded_hit_counts_pinned():
    # hit counts of the bit-sliced draw: masks transposed from the edge
    # columns, and the npaths tail of one sample set, must reproduce them exactly
    g = graph_from_spec("family:grid:2,6,p=0.5")
    assert g.n_edges == 16
    assert [round(mc_npaths(g, "a", "b", k, 2000, 5).mean * 2000) for k in (1, 2, 3)] == \
        [1188, 133, 0]
    assert [round(e.mean * 2000) for e in _npaths_tail(g, "a", "b", 3, 2000, 5)] == \
        [1188, 133, 0]
    g = graph_from_spec("family:grid:3,4,p=0.5")
    A, B = parse_event("a,b"), parse_event("b,c")
    for spec, joint, sqs in (("bfs_cluster:a", 305, 19), ("dfs_stop_at:a,b,c", 264, 16)):
        t = parse_strategy(spec)
        assert round(mc_pair(g, t, Joint(A, B), 2000, 7).mean * 2000) == joint, spec
        assert round(mc_pair(g, t, SqS(A, B), 400, 8).mean * 400) == sqs, spec


@pytest.mark.parametrize("spec, seed, joint, sqs", [
    ("bfs_cluster:a", 1, 176, 50), ("bfs_cluster:a", 2, 136, 45),
    ("dfs:a,id,S", 1, 176, 50), ("dfs:a,id,S", 2, 136, 45),
    ("dfs_stop_at:a,b,c", 1, 130, 66), ("dfs_stop_at:a,b,c", 2, 127, 58),
])
def test_seeded_sqs_hit_counts_pinned(spec, seed, joint, sqs):
    # counts of the column split over every sample: searching only the Joint
    # hits, by the bounded witness search, must give them exactly
    g = graph_from_spec("family:grid:3,4,p=0.5")
    t = parse_strategy(spec)
    A, B = parse_event("a,b"), parse_event("b,c")
    assert round(mc_pair(g, t, Joint(A, B), 1000, seed).mean * 1000) == joint
    assert round(mc_pair(g, t, SqS(A, B), 1000, seed).mean * 1000) == sqs


def test_mc_sqs_check_repeats_with_warm_event_caches():
    """The same MC vdbk_tree check twice in one process: first with the
    per-event caches of the evaluator and the witness search emptied, then
    with them filled by the first run."""
    for cached in (events._plan, events._syntactic, events._vertex_needs,
                   events._leaf_columns):
        cached.cache_clear()
    g = graph_from_spec("family:grid:3,4,p=0.5")
    params = {"strategy": parse_strategy("bfs_cluster:a"), "events": ("a,b", "b,c")}
    cold = run_check("vdbk_tree", g, params, "mc", samples=500, seed=3)
    warm = run_check("vdbk_tree", g, params, "mc", samples=500, seed=3)
    assert events._plan.cache_info().hits and events._leaf_columns.cache_info().hits
    assert (cold.lhs, cold.rhs, cold.verdict) == (warm.lhs, warm.rhs, warm.verdict)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("gspec, spec, query, n", [
    ("family:grid:5,5,p=0.5", "dfs:a,right_hand,until:c", Joint, 2000),
    ("family:grid:3,4,p=0.5", "dfs_stop_at:a,b,c", SqS, 300),
])
def test_target_stopped_columns_give_the_runs_estimate(gspec, spec, query, n, seed):
    g = graph_from_spec(gspec)
    t = parse_strategy(spec)
    q = query(parse_event("a,b"), parse_event("b,c"))
    assert mc_pair(g, t, q, n, seed) == mc_pair(g, _Delegate(t), q, n, seed)


_GAMMA, _MASK = 0x9E3779B97F4A7C15, 2 ** 64 - 1


def _mix(z):
    """The SplitMix64 finalizer on a Python int word."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _lane_uniform(seed, i, j, stride, offset):
    """The 53-bit uniform of edge j in sample i, in Python ints: bit 52 - k is
    lane i mod 64 of level word k of group i // 64."""
    base = _mix((seed + _GAMMA) & _MASK)
    w, lane = divmod(i, 64)
    u = 0
    for k in range(53):
        word = _mix((base + ((w * 53 + k) * stride + offset + j + 1) * _GAMMA) & _MASK)
        u = u << 1 | word >> lane & 1
    return u


def _mix_array(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniforms(seed, n, j, stride, offset):
    """The 53-bit uniforms of edge j in samples 0..n-1 as uint64, every lane
    assembled from all 53 level words of its group (no early exit)."""
    w = np.arange(-(-n // 64), dtype=np.uint64)[:, None]
    lanes = np.arange(64, dtype=np.uint64)
    base = np.uint64(_mix((seed + _GAMMA) & _MASK))
    u = np.zeros((len(w), 64), dtype=np.uint64)
    for k in range(53):
        word = _mix_array(base + ((w * 53 + k) * stride + offset + j + 1) * np.uint64(_GAMMA))
        u = u << np.uint64(1) | word >> lanes & np.uint64(1)
    return u.ravel()[:n]


def _columns_oracle(g, n, seed, stride, offset):
    """Edge columns packed from the uniforms: bit i where u·2^-53 < p, compared
    as floats (u < 2^53 converts exactly)."""
    return [int.from_bytes(np.packbits(
                _uniforms(seed, n, j, stride, offset).astype(np.float64) * 2.0 ** -53 < p,
                bitorder="little").tobytes(), "little")
            for j, p in enumerate(g.probs)]


def test_lane_uniforms_agree_with_python_ints():
    for seed, stride, offset in ((0, 3, 0), (2 ** 64 - 1, 8, 4), (12345, 8, 0)):
        u = _uniforms(seed, 200, 2, stride, offset)
        assert [int(u[i]) for i in (0, 1, 63, 64, 130, 199)] == \
            [_lane_uniform(seed, i, 2, stride, offset) for i in (0, 1, 63, 64, 130, 199)]


_EDGE_PROBS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 0.25, 1 / 3, 2 ** -20, 5e-324, 1 - 2 ** -53,
                     math.nextafter(0.5, 0), math.nextafter(0.5, 1)]),
    st.floats(0.0, 1.0))

_SAMPLE_COUNTS = st.one_of(st.sampled_from([1, 7, 8, 9, 63, 64, 65, 65535, 65536, 65537, 131085]),
                           st.integers(1, 300))


@st.composite
def _column_case(draw):
    """A graph of at most four edges, a sample count around word and 2^16-sample
    boundaries or small, any 64-bit seed, and the stride and offset of mc_prob
    or of either mc_pair set.  An edge probability is special, any float in
    [0, 1], or the uniform that the edge draws in some sample, or one ulp either
    side of it, where rounding the threshold the wrong way shows."""
    shape = draw(_graphs(max_edges=4))
    e = shape.n_edges
    n = draw(_SAMPLE_COUNTS)
    stride, offset = draw(st.sampled_from([(e, 0), (2 * e, 0), (2 * e, e)]))
    seed = draw(st.integers(0, 2 ** 64 - 1))
    probs = {}
    for j, eid in enumerate(shape.edge_ids):
        if draw(st.booleans()):
            probs[eid] = draw(_EDGE_PROBS)
        else:
            u = _lane_uniform(seed, draw(st.integers(0, n - 1)), j, stride, offset) * 2.0 ** -53
            probs[eid] = draw(st.sampled_from([u, math.nextafter(u, 0), math.nextafter(u, 1)]))
    return Graph(shape.vertices, shape.edges, probs, shape.marks), n, seed, stride, offset


@given(_column_case())
@settings(max_examples=80, deadline=None)
def test_edge_columns_equal_float_reference(case):
    g, n, seed, stride, offset = case
    assert _edge_bit_columns(g, n, seed, stride, offset) == \
        _columns_oracle(g, n, seed, stride, offset)


@pytest.mark.parametrize("p", [0.5, 1 / 3, 5e-324, 1 - 2 ** -53])
def test_threshold_word_is_the_first_closed_word(p):
    # the lane whose uniform u lies nearest p·2^53 of 4096: a threshold P = u
    # closes it and P = u + 1 opens it, as u·2^-53 < p does on the float reference
    n, seed = 4096, 2 ** 64 - 1
    us = _uniforms(seed, n, 0, 1, 0)
    i = int(np.argmin(np.abs(us.astype(np.float64) - p * 2.0 ** 53)))
    u = _lane_uniform(seed, i, 0, 1, 0)
    assert u == us[i]
    for q, bit in ((u * 2.0 ** -53, 0), ((u + 1) * 2.0 ** -53, 1)):
        g = generate("path", 1, p=q)
        col, = _edge_bit_columns(g, n, seed, 1, 0)
        assert col >> i & 1 == bit and [col] == _columns_oracle(g, n, seed, 1, 0)


@st.composite
def _prefix_case(draw):
    shape = draw(_graphs(max_edges=4))
    probs = {eid: draw(_EDGE_PROBS) for eid in shape.edge_ids}
    g = Graph(shape.vertices, shape.edges, probs, shape.marks)
    n = draw(_SAMPLE_COUNTS)
    return g, n, n + draw(st.integers(0, 200)), draw(st.integers(0, 2 ** 64 - 1))


@given(_prefix_case())
@settings(max_examples=60, deadline=None)
def test_columns_of_fewer_samples_are_a_prefix(case):
    g, n, more, seed = case
    low = (1 << n) - 1
    assert _edge_bit_columns(g, n, seed, g.n_edges, 0) == \
        [c & low for c in _edge_bit_columns(g, more, seed, g.n_edges, 0)]


@st.composite
def _monotone_case(draw):
    shape = draw(_graphs(max_edges=5))
    lo, hi = {}, {}
    for eid in shape.edge_ids:
        lo[eid], hi[eid] = sorted((draw(_EDGE_PROBS), draw(_EDGE_PROBS)))
    return (Graph(shape.vertices, shape.edges, lo, shape.marks),
            Graph(shape.vertices, shape.edges, hi, shape.marks),
            draw(_SAMPLE_COUNTS), draw(st.integers(0, 2 ** 64 - 1)))


@given(_monotone_case())
@settings(max_examples=60, deadline=None)
def test_raising_p_only_opens_edges(case):
    # the monotone coupling, column by column: p1 <= p2 at one seed opens a subset
    g1, g2, n, seed = case
    for c1, c2 in zip(_edge_bit_columns(g1, n, seed, g1.n_edges, 0),
                      _edge_bit_columns(g2, n, seed, g2.n_edges, 0)):
        assert c1 & ~c2 == 0


@st.composite
def _block_case(draw):
    """A graph of at most four edges, a block of m samples from group first
    on, any 64-bit seed, and the stride and offset of mc_prob or of either
    mc_pair set."""
    shape = draw(_graphs(max_edges=4))
    probs = {eid: draw(_EDGE_PROBS) for eid in shape.edge_ids}
    g = Graph(shape.vertices, shape.edges, probs, shape.marks)
    e = g.n_edges
    stride, offset = draw(st.sampled_from([(e, 0), (2 * e, 0), (2 * e, e)]))
    first = draw(st.one_of(st.integers(0, 40), st.sampled_from([1023, 1024, 2047])))
    return g, first, draw(st.integers(1, 300)), draw(st.integers(0, 2 ** 64 - 1)), stride, offset


@given(_block_case())
@settings(max_examples=60, deadline=None)
def test_block_columns_are_bits_of_the_whole_draw(case):
    g, first, m, seed, stride, offset = case
    whole = _edge_bit_columns(g, 64 * first + m, seed, stride, offset)
    assert _edge_bit_columns(g, m, seed, stride, offset, first) == \
        [col >> 64 * first & (1 << m) - 1 for col in whole]


@pytest.mark.parametrize("groups", [1, 3, 64])
def test_estimates_do_not_depend_on_blocking(monkeypatch, groups):
    # blocks of 1, 3 and 64 groups against one block of every sample, the
    # last block partial; edges of equal p are drawn together, and the
    # target-stopped strategy runs its lock-step scan block by block
    shape = graph_from_spec("family:grid:3,4,p=0.5")
    probs = {eid: (0.5, 0.37, 1 / 3)[k % 3] for k, eid in enumerate(shape.edge_ids)}
    g = Graph(shape.vertices, shape.edges, probs, shape.marks)
    events = [parse_event(text) for text in ("a,b", "b,c", "a,b,c", "npaths(a,c,2)")]
    t = parse_strategy("dfs_stop_at:a,b,c")
    A, B = parse_event("a,b"), parse_event("b,c")
    n = 64 * 70 + 5

    def estimates():
        return (mc_probs(g, events, n, 9), mc_pair(g, t, Joint(A, B), n, 9),
                mc_pair(g, t, SqS(A, B), n, 9))

    assert len(mc._blocks(g, n)) == 1
    want = estimates()
    monkeypatch.setattr(config, "BLOCK_CELLS", 64 * (g.n_vertices + g.n_edges) * groups)
    assert len(mc._blocks(g, n)) > 1
    assert estimates() == want


@pytest.mark.parametrize("seed", [2 ** 63 + 11, 2 ** 64 - 1])
def test_high_seeds_draw_without_overflow_warning(seed):
    # seeds of 2^64 - gamma or more wrap the seed base modulo 2^64
    g = graph_from_spec("family:grid:2,3,p=0.3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = _edge_bit_columns(g, 1000, seed, g.n_edges, 0)
        est = mc_prob(g, parse_event("a,b"), 1000, seed)
    assert cols == _columns_oracle(g, 1000, seed, g.n_edges, 0)
    assert 0.0 < est.mean < 1.0


@pytest.mark.parametrize("p", [0.5, 0.37, 0.7, 1 / 3, 2 ** -20])
def test_lane_and_group_pairs_are_independent(p):
    # lanes share words, so besides each edge's frequency check the joint
    # frequency of two edges, of neighbouring lanes of one word and of one lane
    # in neighbouring groups against p^2, within 5 sigma, on fixed seeds
    n = 200_000
    g = generate("path", 2, p=p)
    c0, c1 = _edge_bit_columns(g, n, 20_241_019, g.n_edges, 0)
    lanes = int.from_bytes(np.uint64(0x5555555555555555).tobytes() * (n // 64), "little")
    groups = int.from_bytes((b"\xff" * 8 + b"\0" * 8) * (n // 128), "little")
    for hits, m, q in ((c0, n, p), (c1, n, p), (c0 & c1, n, p * p),
                       (c0 & c0 >> 1 & lanes, n // 2, p * p),
                       (c1 >> 1 & c1 >> 2 & lanes, n // 2 - 1, p * p),
                       (c0 & c0 >> 64 & groups, n // 128 * 64, p * p)):
        freq = hits.bit_count() / m
        assert abs(freq - q) <= 5 * math.sqrt(q * (1 - q) / m), (p, m, q, freq)


def _sample_masks_oracle(g, n, seed, stride, offset):
    """Per-sample masks from the lane uniforms, one edge bit at a time."""
    masks = [0] * n
    for j, col in enumerate(_columns_oracle(g, n, seed, stride, offset)):
        for i in range(n):
            masks[i] |= (col >> i & 1) << j
    return masks


# the corpus's seq strategies, over marks a, b and c
CORPUS_SEQS = ("seq:[dfs:c,id,S;dfs:a,id,Sbar;dfs:b,id,S]",
               "seq:[dfs:b,id,S;dfs:a,id,Sbar;dfs:c,id,S]",
               "seq:[dfs:a,id,Sbar;dfs:b,id,S;dfs:c,id,S]")


@st.composite
def _joint_case(draw):
    g = draw(_graphs())
    specs = ("stop", "reveal_all:S", "bfs_cluster:a", "dfs_stop_at:a,b", "dfs:a,id,S")
    return (g, draw(_events(g.vertices)), draw(_events(g.vertices)),
            draw(st.sampled_from(specs + (CORPUS_SEQS if "c" in g.vertices else ()))),
            draw(st.integers(1, 300)), draw(st.integers(0, 2 ** 32)))


@given(_joint_case())
@settings(max_examples=80, deadline=None)
def test_joint_matches_per_sample_loop(case):
    g, A, B, spec, n, seed = case
    t = parse_strategy(spec)
    m1s = _sample_masks_oracle(g, n, seed, 2 * g.n_edges, 0)
    m2s = _sample_masks_oracle(g, n, seed, 2 * g.n_edges, g.n_edges)
    hits = 0
    for m1, m2 in zip(m1s, m2s):
        s_mask = run(t, g, Configuration(g, m1), Configuration(g, m2)).s_mask(g)
        hits += evaluate_mask(A, g, m1) and evaluate_mask(B, g, splice_mask(m1, m2, s_mask))
    assert mc_pair(g, t, Joint(A, B), n, seed) == Estimate.from_count(hits, n, seed)


@st.composite
def _lane_case(draw):
    """A graph, a strategy of each reveal path (the reach fixed point, a
    target-stopped pass and right-hand walks through the lock-step scan, one
    run per pair, and a c2 reader), a Joint or SqS query, samples and seed.
    Right-hand walks need a family's rotation; the others take graphs of at
    least two edges, which ``_FromC2`` may query, with edge probabilities
    down to 0.1, so that A misses some one-group blocks."""
    kind = draw(st.sampled_from(("bfs_cluster:a", "dfs_stop_at:a,b", "rhw_walks:a,b,2",
                                 "runs", "from_c2")))
    if kind == "rhw_walks:a,b,2":
        spec = draw(st.sampled_from(("family:grid:2,3,p={}", "family:cycle:4,p={}")))
        g = graph_from_spec(spec.format(draw(st.sampled_from((0.2, 0.5, 0.7)))))
    else:
        g = draw(_graphs(probs=(0.1, 0.25, 0.5, 0.75)).filter(lambda g: g.n_edges >= 2))
    if kind == "runs":
        t = _Delegate(parse_strategy("dfs:a,id,until:b"))
    elif kind == "from_c2":
        t = extend_with_rest(_FromC2(), S)
    else:
        t = parse_strategy(kind)
    if draw(st.booleans()):
        q = Joint(draw(_events(g.vertices)), draw(_events(g.vertices)))
    else:
        q = SqS(draw(_increasing_events(g.vertices)), draw(_increasing_events(g.vertices)))
    return g, t, q, draw(st.integers(1, 700)), draw(st.integers(0, 2 ** 32))


@given(_lane_case())
@settings(max_examples=80, deadline=None)
def test_pairs_revealed_on_a_lanes_equal_all_lanes(case):
    g, t, q, n, seed = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "BLOCK_CELLS", 64 * (g.n_vertices + g.n_edges))  # one group a block
        assert mc_pair(g, t, q, n, seed) == mc_pair_all_lanes(g, t, q, n, seed)


class _Recorder(Strategy):
    """Reveals every edge into S and records the c1 mask of each run."""

    def __init__(self):
        self.masks = []

    def policy(self, g):
        m1 = 0
        for j, e in enumerate(g.edge_ids):
            b1, _b2 = yield (e, S)
            m1 |= b1 << j
        self.masks.append(m1)


@pytest.mark.parametrize("query", [Joint, SqS])
def test_user_strategies_run_once_on_each_sample_in_a(monkeypatch, query):
    # a,b,c on cycle:3 at p = 0.1 holds on about 3% of samples, so some
    # one-group blocks hold none of them
    g = generate("cycle", 3, p=0.1)
    A, n, seed = parse_event("a,b,c"), 64 * 40 + 5, 4
    monkeypatch.setattr(config, "BLOCK_CELLS", 64 * (g.n_vertices + g.n_edges))
    m1s = _sample_masks_oracle(g, n, seed, 2 * g.n_edges, 0)
    in_a = [i for i, m1 in enumerate(m1s) if evaluate_mask(A, g, m1)]
    assert 0 < len({i // 64 for i in in_a}) < len(mc._blocks(g, n))
    t = _Recorder()
    mc_pair(g, t, query(A, parse_event("b,c")), n, seed)
    assert t.masks == [m1s[i] for i in in_a]


@pytest.mark.parametrize("samples, seed", [(None, 1), (100, None), (None, None)])
def test_mc_refuses_a_missing_sample_count_or_seed(samples, seed):
    g = generate("cycle", 3, p=0.5)
    A, B = parse_event("a,b"), parse_event("b,c")
    for run in (lambda: mc_prob(g, A, samples, seed), lambda: mc_probs(g, [A, B], samples, seed),
                lambda: mc_pair(g, parse_strategy("stop"), Joint(A, B), samples, seed)):
        with pytest.raises(ValueError, match="Monte Carlo needs"):
            run()
