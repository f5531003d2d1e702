import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolab import (Configuration, Estimate, EvaluationError, Graph,
                      MonotonicityError, StrategyError, exact_pair, exact_prob, generate,
                      graph_from_spec, mc_npaths, mc_pair, mc_prob, parse_event,
                      parse_strategy)
from percolab.events import NPathsAtom
from percolab.exact import Joint, SqS, exact_npaths
from percolab.mc import _edge_bit_columns, mc_probs
from percolab.strategies import run, splice_mask

from oracles import evaluate_mask
from test_enumeration import _events, _graphs
from test_strategies import _Delegate


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


def test_seeded_hit_counts_pinned():
    # hit counts of the earlier uint64 per-sample sampler: masks transposed
    # from the edge columns must reproduce them exactly
    g = graph_from_spec("family:grid:2,6,p=0.5")
    assert g.n_edges == 16
    assert [round(mc_npaths(g, "a", "b", k, 2000, 5).mean * 2000) for k in (1, 2, 3)] == \
        [1099, 144, 0]
    assert [round(e.mean * 2000) for e in _npaths_tail(g, "a", "b", 3, 2000, 5)] == \
        [1099, 144, 0]
    g = graph_from_spec("family:grid:3,4,p=0.5")
    A, B = parse_event("a,b"), parse_event("b,c")
    for spec, joint, sqs in (("bfs_cluster:a", 308, 21), ("dfs_stop_at:a,b,c", 292, 23)):
        t = parse_strategy(spec)
        assert round(mc_pair(g, t, Joint(A, B), 2000, 7).mean * 2000) == joint, spec
        assert round(mc_pair(g, t, SqS(A, B), 400, 8).mean * 400) == sqs, spec


@pytest.mark.parametrize("spec, seed, joint, sqs", [
    ("bfs_cluster:a", 1, 137, 43), ("bfs_cluster:a", 2, 148, 42),
    ("dfs:a,id,S", 1, 137, 43), ("dfs:a,id,S", 2, 148, 42),
    ("dfs_stop_at:a,b,c", 1, 142, 56), ("dfs_stop_at:a,b,c", 2, 141, 61),
])
def test_seeded_sqs_hit_counts_pinned(spec, seed, joint, sqs):
    # counts of the column split over every sample: searching only the Joint
    # hits, by the bounded witness search, must give them exactly
    g = graph_from_spec("family:grid:3,4,p=0.5")
    t = parse_strategy(spec)
    A, B = parse_event("a,b"), parse_event("b,c")
    assert round(mc_pair(g, t, Joint(A, B), 1000, seed).mean * 1000) == joint
    assert round(mc_pair(g, t, SqS(A, B), 1000, seed).mean * 1000) == sqs


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


def _mix_array(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniforms(seed, counters):
    """Float reference: SplitMix64 uniforms in [0, 1) for uint64 counters."""
    gamma = 0x9E3779B97F4A7C15
    base = _mix_array(np.array([(seed + gamma) & (2 ** 64 - 1)], dtype=np.uint64))
    z = base + (counters + np.uint64(1)) * np.uint64(gamma)
    return (_mix_array(z) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _columns_oracle(g, n, seed, stride, offset):
    """Edge columns packed from the float uniforms: bit i where u < p."""
    idx = np.arange(n, dtype=np.uint64)
    return [int.from_bytes(np.packbits(
                _uniforms(seed, idx * np.uint64(stride) + np.uint64(offset + j)) < p,
                bitorder="little").tobytes(), "little")
            for j, p in enumerate(g.probs)]


_EDGE_PROBS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 1 / 3, 5e-324, 1 - 2 ** -53,
                     math.nextafter(0.5, 0), math.nextafter(0.5, 1)]),
    st.floats(0.0, 1.0))


@st.composite
def _column_case(draw):
    """A graph of at most four edges, a sample count around byte and 2^16-sample
    block boundaries or small, any 64-bit seed, and the stride and offset of
    mc_prob or of either mc_pair set.  An edge probability is special, any
    float in [0, 1], or a uniform that the edge draws in some sample, or one
    ulp either side of it, where rounding the threshold the wrong way shows."""
    shape = draw(_graphs(max_edges=4))
    e = shape.n_edges
    n = draw(st.one_of(st.sampled_from([1, 7, 8, 9, 65535, 65536, 65537, 131085]),
                       st.integers(1, 300)))
    stride, offset = draw(st.sampled_from([(e, 0), (2 * e, 0), (2 * e, e)]))
    seed = draw(st.integers(0, 2 ** 64 - 1))
    probs = {}
    for j, eid in enumerate(shape.edge_ids):
        if draw(st.booleans()):
            probs[eid] = draw(_EDGE_PROBS)
        else:
            i = draw(st.integers(0, n - 1))
            u = float(_uniforms(seed, np.array([i * stride + offset + j], dtype=np.uint64))[0])
            probs[eid] = draw(st.sampled_from([u, math.nextafter(u, 0), math.nextafter(u, 1)]))
    return Graph(shape.vertices, shape.edges, probs, shape.marks), n, seed, stride, offset


@given(_column_case())
@settings(max_examples=80, deadline=None)
def test_edge_columns_equal_float_reference(case):
    g, n, seed, stride, offset = case
    assert _edge_bit_columns(g, n, seed, stride, offset) == \
        _columns_oracle(g, n, seed, stride, offset)


def _unmix(z):
    """Inverse of the SplitMix64 finalizer on a Python int word."""
    for shift, mult in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9), (30, None)):
        x = z
        for _ in range(64 // shift + 1):
            x = z ^ (x >> shift)
        z = x if mult is None else x * pow(mult, -1, 2 ** 64) % 2 ** 64
    return z


@pytest.mark.parametrize("p", [0.5, 1 / 3, 5e-324, 1 - 2 ** -53])
def test_threshold_word_is_the_first_closed_word(p):
    # a seed whose first word is chosen: below ceil(p·2^53) << 11 opens the edge,
    # the threshold itself closes it, as u < p does on the float reference
    gamma, mask = 0x9E3779B97F4A7C15, 2 ** 64 - 1
    g = generate("path", 1, p=p)
    threshold = math.ceil(p * 2 ** 53) << 11
    for word, bit in ((threshold - 1, 1), (threshold, 0)):
        seed = (_unmix((_unmix(word) - gamma) & mask) - gamma) & mask
        assert _edge_bit_columns(g, 1, seed, 1, 0) == [bit] == _columns_oracle(g, 1, seed, 1, 0)


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


def _sample_masks_oracle(g, n, seed, stride, offset):
    """Per-sample masks straight from the uniforms, one edge bit at a time."""
    idx = np.arange(n, dtype=np.uint64)
    masks = [0] * n
    for j, p in enumerate(g.probs):
        u = _uniforms(seed, idx * np.uint64(stride) + np.uint64(offset + j))
        for i in np.flatnonzero(u < p).tolist():
            masks[i] |= 1 << j
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
