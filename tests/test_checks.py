import json
import math
import statistics
import time

import pytest

from percolab import (Graph, HypothesisError, PercolabError, SizeGuardError, alpha3_root,
                      checks, generate, graph_from_spec, implied_lambda, mc_prob,
                      parse_event, run_check, scan_conjectures)
from percolab.checks import (_CHECKS, _derived_seed, _evaluate, _propagated_se,
                             alpha3_cubic, check_ids, poisson_upper_tail)

from test_strategies import _FromC2

TOL = 1e-12


def test_check_ids_cover_suite():
    want = {"hk_tree", "vdbk_tree", "cs_bound", "frac1", "frac2", "planar_dv2",
            "dv8", "dv_union", "q2", "q2_swapped", "conj2_demo", "arms23",
            "arms_klm", "submult", "conj3_scan"}
    assert want <= set(check_ids())


def test_planar_dv2_triangle_values():
    r = run_check("planar_dv2", generate("cycle", 3, p=0.5))
    assert r.lhs == pytest.approx(0.25, abs=TOL)
    assert r.rhs == pytest.approx(2 * 0.625 ** 3, abs=TOL)
    assert r.verdict == "holds"


def test_dv8_triangle_values():
    r = run_check("dv8", generate("cycle", 3, p=0.5))
    assert r.lhs == pytest.approx(0.25, abs=TOL)
    assert r.rhs == pytest.approx(8 * 0.625 ** 3, abs=TOL)
    assert r.slack == pytest.approx(1.703125, abs=TOL)


def test_q2_triangle_values():
    r = run_check("q2", generate("cycle", 3, p=0.5))
    # fraction side 2 * (0.125^2 / 0.5); direct side 0.125 + 0.5^2
    assert r.lhs == pytest.approx(0.0625, abs=TOL)
    assert r.rhs == pytest.approx(0.375, abs=TOL)
    assert r.verdict == "holds"


def test_q2_requires_three_marks():
    with pytest.raises(HypothesisError):
        run_check("q2", generate("parallel", 2, p=0.5))


def test_planar_dv2_needs_embedding():
    with pytest.raises(HypothesisError):
        run_check("planar_dv2", generate("complete", 4, p=0.5))


def test_q2_refuses_a_degenerate_denominator():
    # at p = 1 the marks are always joined, so no separation occurs
    with pytest.raises(HypothesisError, match="degenerate denominator"):
        run_check("q2", generate("cycle", 3, p=1.0))


def test_planar_dv2_needs_the_marks_on_the_outer_face():
    g = generate("grid", 3, 3, p=0.5)
    inner = Graph(g.vertices, g.edges, g.edge_prob, ("a", "b", "v1_1"),
                  rotation=g.rotation, outer_anchor=g.outer_anchor)
    with pytest.raises(HypothesisError, match="do not lie on the outer face together"):
        run_check("planar_dv2", inner)


def test_hk_and_vdbk_reports():
    g = generate("cycle", 3, p=0.5)
    params = {"strategy": "bfs_cluster:a", "events": ("a,b", "b,c")}
    r = run_check("hk_tree", g, params)
    assert r.verdict == "holds" and r.lhs == pytest.approx(0.390625, abs=TOL)
    r2 = run_check("vdbk_tree", g, params)
    assert r2.verdict == "holds" and r2.rhs == pytest.approx(0.390625, abs=TOL)


def test_hk_rejects_non_increasing_events():
    from percolab import MonotonicityError
    g = generate("cycle", 3, p=0.5)
    with pytest.raises(MonotonicityError):
        run_check("hk_tree", g, {"strategy": "bfs_cluster:a",
                                 "events": ("a|b", "a,b")})


def test_cs_bound_and_corollaries():
    g = generate("cycle", 3, p=0.5)
    r = run_check("cs_bound", g, {"strategy": "dfs_stop_at:a,b,c",
                                  "events": ("a,b U a,c", "b,c")})
    assert r.verdict == "holds"
    assert r.lhs == pytest.approx(0.25 / 0.75, abs=TOL)
    f1 = run_check("frac1", g)
    assert f1.verdict == "holds"
    assert f1.lhs == pytest.approx((0.125 ** 2) / 0.5, abs=TOL)
    assert f1.rhs == pytest.approx(0.0625, abs=TOL)
    f2 = run_check("frac2", g)
    assert f2.verdict == "holds"


def test_cs_bound_rejects_non_deciding_prefix():
    g = generate("cycle", 3, p=0.5)
    with pytest.raises(HypothesisError, match="decide"):
        run_check("cs_bound", g, {"strategy": "stop",
                                  "events": ("a,b U a,c", "b,c")})


def test_cs_bound_rejects_sbar_prefix():
    g = generate("cycle", 3, p=0.5)
    with pytest.raises(HypothesisError, match="into S"):
        run_check("cs_bound", g, {"strategy": "reveal_all:Sbar",
                                  "events": ("a,b U a,c", "b,c")})


@pytest.mark.parametrize("gspec, strategy, events, match", [
    ("family:cycle:3,p=0.5", _FromC2(), ("a,b U a,c", "b,c"), "first configuration only"),
    ("family:cycle:3,p=0.5", "dfs_stop_at:a,b,c", ("a,b U a,c", "a,b|c"), "must be monotone"),
    ("family:cycle:4,p=0", "dfs_stop_at:a,b,c", ("a,b U a,c", "b,c"), "probability zero"),
])
def test_cs_bound_refuses_each_hypothesis(gspec, strategy, events, match):
    g = graph_from_spec(gspec)
    with pytest.raises(HypothesisError, match=match):
        run_check("cs_bound", g, {"strategy": strategy, "events": events})


def test_arms_checks():
    g = graph_from_spec("family:parallel:3,q=0.5")
    r = run_check("arms23", g)
    assert r.lhs == pytest.approx(0.125 ** 2, abs=1e-9)
    assert r.rhs == pytest.approx(0.5 ** 3, abs=1e-9)
    assert r.verdict == "holds"
    r2 = run_check("arms_klm", g, {"n": 3, "k": 3, "l": 2, "m": 1})
    assert r2.verdict == "holds"
    with pytest.raises(ValueError):
        run_check("arms_klm", g, {"n": 3, "k": 3, "l": 3, "m": 1})


def test_arms_needs_common_face():
    g = generate("complete", 4, p=0.5)
    with pytest.raises(HypothesisError):
        run_check("arms23", g)


def test_submult():
    g = graph_from_spec("family:parallel:4,q=0.5")
    r = run_check("submult", g, {"n": 1, "m": 2})
    assert r.verdict == "holds"


def test_conj2_demo_extreme_instance():
    g = graph_from_spec("family:cycle:3,p=0.96875")
    for eps in (0.2, 0.3):
        r = run_check("conj2_demo", g, {"eps": eps})
        assert r.verdict == "holds"
        assert r.lhs < eps
    with pytest.raises(HypothesisError):
        run_check("conj2_demo", generate("cycle", 3, p=0.5), {"eps": 0.2})


def test_conj3_scan():
    g = graph_from_spec("family:cycle:3,p=0.0009765625")
    reps = scan_conjectures("conj3", g, {"eps_grid": (0.2, 0.3)})
    assert reps, "hypothesis should be met at tiny p"
    assert all(r.verdict == "holds" for r in reps)
    # hypothesis unmet everywhere -> no reports, no error
    assert scan_conjectures("conj3", generate("cycle", 3, p=0.5)) == []



@pytest.mark.parametrize("method", ["exact", "mc"])
def test_conj3_scan_refuses_two_marks(method):
    # the per-eps hypothesis skips an eps; a missing mark refuses the scan
    g = generate("parallel", 3, q=0.5)
    with pytest.raises(HypothesisError, match="needs 3 marked vertices, graph has 2"):
        scan_conjectures("conj3", g, {"eps_grid": (0.2, 0.3)}, method, samples=100, seed=1)

def test_logconcave_scan_exact_parallel4():
    g = graph_from_spec("family:parallel:4,q=0.5")
    reps = scan_conjectures("logconcave", g, {"nmax": 4})
    assert all(r.verdict == "holds" for r in reps)
    sq = {r.check_id: r for r in reps if "#sq" in r.check_id}
    # binomial tails: f = (15, 11, 5, 1) / 16
    assert sq["logconcave#sq[n=2]"].rhs == pytest.approx((11 / 16) ** 2, abs=1e-9)
    assert sq["logconcave#sq[n=2]"].lhs == pytest.approx(15 / 16 * 5 / 16, abs=1e-9)


def test_lambda_monotone_scan():
    g = graph_from_spec("family:parallel:4,q=0.5")
    reps = scan_conjectures("lambda_monotone", g, {"nmax": 4})
    assert len(reps) == 3
    assert all(r.verdict == "holds" for r in reps)


def test_exact_lambda_monotone_refuses_a_rate_it_cannot_find():
    # f[5] = 1e-15 on parallel:5 at q = 0.001: its rate read 0.0026400, where
    # the true one is 0.0026063; f[4] and below still invert to 6 digits
    g = graph_from_spec("family:parallel:5,q=0.001")
    with pytest.raises(SizeGuardError, match="at k=5 did not converge to 6 digits"):
        scan_conjectures("lambda_monotone", g, {"nmax": 5})
    assert len(scan_conjectures("lambda_monotone", g, {"nmax": 4})) == 3


def test_scan_rejects_degenerate():
    g = generate("parallel", 2, p=1.0)
    with pytest.raises(HypothesisError, match="degenerate"):
        scan_conjectures("logconcave", g, {"nmax": 2})


def test_implied_lambda_closed_forms():
    assert implied_lambda(1, 1 - math.exp(-1)) == pytest.approx(1.0, abs=1e-9)
    assert implied_lambda(1, 0.5) == pytest.approx(math.log(2), abs=1e-9)
    assert implied_lambda(2, 1 - 2 * math.exp(-1)) == pytest.approx(1.0, abs=1e-9)


def test_implied_lambda_against_scipy():
    from scipy.special import gammaincinv
    # from k ~ 740 on the rate passes 708, where exp(-lam) is no normal float
    for k in (1, 2, 3, 5, 800, 1000, 3000):
        for prob in (0.1, 0.37, 0.5, 0.9):
            # the regularized lower incomplete gamma at integer k equals the
            # Poisson upper tail, so its inverse is an independent oracle
            assert implied_lambda(k, prob) == \
                pytest.approx(float(gammaincinv(k, prob)), abs=1e-8)


def test_implied_lambda_validation():
    with pytest.raises(ValueError):
        implied_lambda(0, 0.5)
    with pytest.raises(ValueError):
        implied_lambda(1, 0.0)
    with pytest.raises(ValueError):
        implied_lambda(1, 1.0)


def test_rate_se_is_the_secant_over_prob_plus_minus_se():
    # at k = 1 the implied rate is -ln(1 - p): the secant over 0.9 +- 0.05
    # gives 0.05 * ln 3 / 0.1, where a tangent gives 0.05 / 0.1 = 0.5
    rate = lambda v: implied_lambda(1, v["p"])  # noqa: E731
    assert _propagated_se(rate, {"p": 0.9}, ({"p": 0.05}, {})) == \
        pytest.approx(0.05 * math.log(3) / 0.1, abs=TOL)


def _bisect_200(below, lo, hi):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _implied_lambda_200(k, prob):
    hi = 1.0
    while poisson_upper_tail(k, hi) < prob:
        hi *= 2.0
    return _bisect_200(lambda x: poisson_upper_tail(k, x) < prob, 0.0, hi)


@pytest.mark.parametrize("k", range(1, 9))
def test_root_finders_match_200_halvings_bit_for_bit(k):
    # the bisection stops once the interval stops shrinking, which changes
    # nothing: every later halving leaves both ends where they are
    for prob in (1e-6, 0.01, 0.37, 0.5, 0.9, 1 - 1e-9, 1 - 2 ** -53):
        assert implied_lambda(k, prob) == _implied_lambda_200(k, prob)
    assert alpha3_root() == _bisect_200(lambda t: alpha3_cubic(t) > 0.0, 0.0, 1.0)


@pytest.mark.parametrize("k", range(1, 9))
def test_implied_lambda_refuses_a_prob_with_no_correct_digits(k):
    # a tail of 1 minus the terms below k has no correct digit at these
    # probs: 200 halvings gave 5.6e-17 for implied_lambda(1, 1e-300)
    for prob in (1e-300, 1e-12):
        with pytest.raises(SizeGuardError, match="did not converge to 6 digits"):
            implied_lambda(k, prob)


def test_implied_lambda_refuses_what_it_cannot_bracket_or_converge(monkeypatch):
    monkeypatch.setattr(checks, "poisson_upper_tail", lambda k, lam: 0.0)
    with pytest.raises(PercolabError, match="bracket"):
        implied_lambda(1, 0.5)
    # a tail that jumps over prob at lam = 1 leaves a residual of 1/2
    monkeypatch.setattr(checks, "poisson_upper_tail", lambda k, lam: float(lam >= 1.0))
    with pytest.raises(PercolabError, match="converge"):
        implied_lambda(1, 0.5)


@pytest.mark.parametrize("lam", [744, 800, 1900])
def test_poisson_upper_tail_against_scipy_past_normal_exp(lam):
    # exp(-lam) is subnormal at 744 and 0 at 800, so no tail can be built by
    # multiplying up from it
    from scipy.special import gammainc
    for k in (lam - 60, lam, lam + 16, lam + 60, lam + 200):
        assert poisson_upper_tail(k, lam) == pytest.approx(float(gammainc(k, lam)), abs=1e-11)


def test_poisson_tail_monotone():
    vals = [poisson_upper_tail(2, lam) for lam in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert vals == sorted(vals)


def test_alpha3_root():
    root = alpha3_root()
    assert abs(root - 0.356) < 5e-4
    assert abs(alpha3_cubic(root)) <= 1e-9
    assert alpha3_cubic(0.0) == pytest.approx(1.0)
    assert alpha3_cubic(1.0) == pytest.approx(-28.0)


def test_mc_method_reports():
    g = generate("cycle", 3, p=0.5)
    r = run_check("dv8", g, method="mc", samples=20000, seed=5)
    assert r.method == "mc" and r.sigma == 3.0 and r.samples == 20000
    assert r.verdict == "holds"
    r2 = run_check("dv8", g, method="mc", samples=20000, seed=5)
    assert _without_runtime(r) == _without_runtime(r2)


def _without_runtime(rep) -> dict:
    d = rep.to_dict()
    del d["runtime_ms"]
    return d


# report dicts recorded before the exact and MC verdict paths were merged
_GOLDEN_SCANS = [
    (("logconcave", "family:grid:2,6,p=0.7", 2, 20000, 11), [
        {'check_id': 'logconcave#ratio[n=1]', 'graph': 'family:grid:2,6,p=0.7', 'method': 'mc', 'lhs': -0.6236141564984465, 'rhs': -0.1938881931654201, 'slack': 0.42972596333302643, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 20000, 'seed': 11, 'note': None},  # noqa: E501
    ]),
    (("lambda_monotone", "family:grid:2,6,p=0.7", 2, 20000, 12), [
        {'check_id': 'lambda_monotone#k=1', 'graph': 'family:grid:2,6,p=0.7', 'method': 'mc', 'lhs': 1.0481559035220571, 'rhs': 1.701553201341906, 'slack': 0.6533972978198488, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 20000, 'seed': 12, 'note': None},  # noqa: E501
    ]),
    (("logconcave", "family:parallel:4,q=0.5", 4, 3000, 11), [
        {'check_id': 'logconcave#sq[n=2]', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 0.29481666666666667, 'rhs': 0.4664890000000001, 'slack': 0.17167233333333343, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 3000, 'seed': 11, 'note': None},  # noqa: E501
        {'check_id': 'logconcave#sq[n=3]', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 0.04325666666666667, 'rhs': 0.10027777777777777, 'slack': 0.0570211111111111, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 3000, 'seed': 11, 'note': None},  # noqa: E501
        {'check_id': 'logconcave#ratio[n=1]', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': -0.19063020970567346, 'rhs': -0.07149600170506992, 'slack': 0.11913420800060354, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 3000, 'seed': 11, 'note': None},  # noqa: E501
        {'check_id': 'logconcave#ratio[n=2]', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': -0.38330186101855346, 'rhs': -0.19063020970567346, 'slack': 0.19267165131288, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 3000, 'seed': 11, 'note': None},  # noqa: E501
        {'check_id': 'logconcave#ratio[n=3]', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': -0.6898358738724402, 'rhs': -0.38330186101855346, 'slack': 0.3065340128538867, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 3000, 'seed': 11, 'note': None},  # noqa: E501
    ]),
    (("lambda_monotone", "family:parallel:4,q=0.5", 4, 3000, 12), [
        {'check_id': 'lambda_monotone#k=1', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 2.3913306597468145, 'rhs': 2.7488721956224653, 'slack': 0.35754153587565085, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 3000, 'seed': 12, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=2', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 1.9643184292107718, 'rhs': 2.3913306597468145, 'slack': 0.42701223053604265, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 3000, 'seed': 12, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=3', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 1.425704800960462, 'rhs': 1.9643184292107718, 'slack': 0.5386136282503098, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 3000, 'seed': 12, 'note': None},  # noqa: E501
    ]),
]

# scans whose standard errors decide the verdict: near the sigma boundary,
# where an error rule that claims more certainty turns inconclusive into holds
# (a tangent derivative of implied_lambda reads holds at k=1 of parallel:4 at
# seed 30, at k=4 of parallel:5 at seed 133 and at k=1 of parallel:5 at seed 88)
_GOLDEN_SCAN_ERRORS = [
    (('lambda_monotone', 'family:parallel:4,q=0.5', 4, 300, 12), [
        {'check_id': 'lambda_monotone#k=1', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 2.3928546190770223, 'rhs': 3.138833117194663, 'slack': 0.7459784981176405, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 300, 'seed': 12, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=2', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 2.000036019861801, 'rhs': 2.3928546190770223, 'slack': 0.39281859921522155, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 300, 'seed': 12, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=3', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 1.4539799363577512, 'rhs': 2.000036019861801, 'slack': 0.5460560835040495, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 300, 'seed': 12, 'note': None},  # noqa: E501
    ]),
    (('lambda_monotone', 'family:parallel:5,q=0.5', 5, 100, 8), [
        {'check_id': 'lambda_monotone#k=1', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 3.4616261674964592, 'rhs': 3.912023005428142, 'slack': 0.4503968379316827, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 100, 'seed': 8, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=2', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 2.5541494940237746, 'rhs': 3.4616261674964592, 'slack': 0.9074766734726847, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 100, 'seed': 8, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=3', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 2.2967868060280843, 'rhs': 2.5541494940237746, 'slack': 0.2573626879956903, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 100, 'seed': 8, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=4', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 1.2791060800935998, 'rhs': 2.2967868060280843, 'slack': 1.0176807259344844, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 100, 'seed': 8, 'note': None},  # noqa: E501
    ]),
    (('lambda_monotone', 'family:parallel:5,q=0.5', 5, 1000, 13), [
        {'check_id': 'lambda_monotone#k=1', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 3.119474101965415, 'rhs': 3.352407217492721, 'slack': 0.232933115527306, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 1000, 'seed': 13, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=2', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 2.760177285303997, 'rhs': 3.119474101965415, 'slack': 0.3592968166614181, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 1000, 'seed': 13, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=3', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 2.331074292515032, 'rhs': 2.760177285303997, 'slack': 0.42910299278896513, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 1000, 'seed': 13, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=4', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 1.6741490789229694, 'rhs': 2.331074292515032, 'slack': 0.6569252135920625, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 1000, 'seed': 13, 'note': None},  # noqa: E501
    ]),
    (('lambda_monotone', 'family:parallel:4,q=0.5', 4, 300, 30), [
        {'check_id': 'lambda_monotone#k=1', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 2.347711159561496, 'rhs': 3.3058872018578302, 'slack': 0.9581760422963344, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 300, 'seed': 30, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=2', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 2.000036019861801, 'rhs': 2.347711159561496, 'slack': 0.3476751396996951, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 300, 'seed': 30, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=3', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 1.4814294169263125, 'rhs': 2.000036019861801, 'slack': 0.5186066029354883, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 300, 'seed': 30, 'note': None},  # noqa: E501
    ]),
    (('lambda_monotone', 'family:parallel:5,q=0.5', 5, 100, 133), [
        {'check_id': 'lambda_monotone#k=1', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 3.1340578934823675, 'rhs': 3.912023005428142, 'slack': 0.7779651119457744, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 100, 'seed': 133, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=2', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 2.882599670383912, 'rhs': 3.1340578934823675, 'slack': 0.25145822309845567, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 100, 'seed': 133, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=3', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 2.7185426614785975, 'rhs': 2.882599670383912, 'slack': 0.16405700890531438, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 100, 'seed': 133, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=4', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 1.7060342735600118, 'rhs': 2.7185426614785975, 'slack': 1.0125083879185857, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 100, 'seed': 133, 'note': None},  # noqa: E501
    ]),
    (('lambda_monotone', 'family:parallel:5,q=0.5', 5, 1000, 88), [
        {'check_id': 'lambda_monotone#k=1', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 3.193889351802074, 'rhs': 3.912023005428142, 'slack': 0.7181336536260678, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 1000, 'seed': 88, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=2', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 2.6700071355829165, 'rhs': 3.193889351802074, 'slack': 0.5238822162191576, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 1000, 'seed': 88, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=3', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 2.201791646713156, 'rhs': 2.6700071355829165, 'slack': 0.4682154888697605, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 1000, 'seed': 88, 'note': None},  # noqa: E501
        {'check_id': 'lambda_monotone#k=4', 'graph': 'family:parallel:5,q=0.5', 'method': 'mc', 'lhs': 1.861229878843465, 'rhs': 2.201791646713156, 'slack': 0.34056176786969106, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 1000, 'seed': 88, 'note': None},  # noqa: E501
    ]),
    (('logconcave', 'family:parallel:4,q=0.5', 4, 60, 2), [
        {'check_id': 'logconcave#sq[n=2]', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 0.24166666666666667, 'rhs': 0.48999999999999994, 'slack': 0.24833333333333327, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 60, 'seed': 2, 'note': None},  # noqa: E501
        {'check_id': 'logconcave#sq[n=3]', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': 0.05833333333333333, 'rhs': 0.0625, 'slack': 0.004166666666666673, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 60, 'seed': 2, 'note': None},  # noqa: E501
        {'check_id': 'logconcave#ratio[n=1]', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': -0.17833747196936622, 'rhs': -0.03390155167568134, 'slack': 0.14443592029368488, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 60, 'seed': 2, 'note': None},  # noqa: E501
        {'check_id': 'logconcave#ratio[n=2]', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': -0.46209812037329684, 'rhs': -0.17833747196936622, 'slack': 0.2837606484039306, 'verdict': 'holds', 'tolerance': None, 'sigma': 3.0, 'samples': 60, 'seed': 2, 'note': None},  # noqa: E501
        {'check_id': 'logconcave#ratio[n=3]', 'graph': 'family:parallel:4,q=0.5', 'method': 'mc', 'lhs': -0.6212266624470001, 'rhs': -0.46209812037329684, 'slack': 0.15912854207370325, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 60, 'seed': 2, 'note': None},  # noqa: E501
    ]),
]

# hk_tree with the empty strategy on cycle:4: the slack is -0.0139, within
# three standard errors of 0
_STOP = {"strategy": "stop", "events": ("a,b", "b,c")}
_GOLDEN_INCONCLUSIVE = {'check_id': 'hk_tree', 'graph': 'family:cycle:4,p=0.5', 'method': 'mc', 'lhs': 0.3189395, 'rhs': 0.305, 'slack': -0.013939499999999994, 'verdict': 'inconclusive', 'tolerance': None, 'sigma': 3.0, 'samples': 2000, 'seed': 1, 'note': None}  # noqa: E501


@pytest.mark.parametrize("case", _GOLDEN_SCANS, ids=lambda c: f"{c[0][0]}@{c[0][1]}")
def test_mc_scan_reports_golden(case):
    (scan_id, spec, nmax, samples, seed), want = case
    reps = scan_conjectures(scan_id, graph_from_spec(spec), {"nmax": nmax}, "mc",
                            samples=samples, seed=seed)
    assert [_without_runtime(r) for r in reps] == want



@pytest.mark.parametrize("case", _GOLDEN_SCAN_ERRORS,
                         ids=lambda c: "{}@{}@{}/{}".format(*c[0][:2], *c[0][3:]))
def test_mc_scan_errors_golden(case):
    test_mc_scan_reports_golden(case)


def test_mc_log_ratio_error_is_the_secant():
    # f[1] = 49/60 and f[2] = 21/60: the secants of the logs over f[k] +- its
    # error are wider than the tangents, which read holds here
    g = graph_from_spec("family:theta:4,p=0.5")
    reps = scan_conjectures("logconcave", g, {"nmax": 4}, "mc", samples=60, seed=5)
    r = next(r for r in reps if r.check_id == "logconcave#ratio[n=1]")
    assert (r.lhs, r.rhs, r.slack) == (-0.5249110622493389, -0.2025242641114741,
                                       0.32238679813786486)
    assert r.verdict == "inconclusive"


def test_mc_inconclusive_check_golden():
    r = run_check("hk_tree", graph_from_spec("family:cycle:4,p=0.5"), _STOP, "mc",
                  samples=2000, seed=1)
    assert _without_runtime(r) == _GOLDEN_INCONCLUSIVE


@pytest.mark.parametrize("sigma", [0.0, -3.0, float("nan")])
def test_sigma_must_be_positive(sigma):
    # at sigma -3 the slack above read "holds", at sigma 0 "violated"
    g = graph_from_spec("family:cycle:4,p=0.5")
    with pytest.raises(ValueError, match="sigma"):
        run_check("hk_tree", g, _STOP, "mc", samples=2000, seed=1, sigma=sigma)
    with pytest.raises(ValueError, match="sigma"):
        run_check("dv8", g, sigma=sigma)
    with pytest.raises(ValueError, match="sigma"):
        scan_conjectures("logconcave", graph_from_spec("family:parallel:4,q=0.5"),
                         {"nmax": 3}, "mc", samples=100, seed=1, sigma=sigma)


@pytest.mark.parametrize("samples", [0, -5])
def test_mc_samples_below_one_refused(samples):
    g = generate("cycle", 3, p=0.5)
    with pytest.raises(ValueError, match="samples"):
        run_check("hk_tree", g, {"strategy": "bfs_cluster:a", "events": ("a,b", "b,c")},
                  "mc", samples=samples, seed=1)
    with pytest.raises(ValueError, match="samples"):
        scan_conjectures("logconcave", graph_from_spec("family:parallel:4,q=0.5"),
                         {"nmax": 3}, "mc", samples=samples, seed=1)


@pytest.mark.parametrize("check_id,spec,params,method", [
    ("frac1", "family:grid:3,4,p=0.5", None, "exact"),
    ("frac2", "family:grid:2,7,p=0.5", None, "exact"),
    ("cs_bound", "family:grid:5,5,p=0.5",
     {"strategy": "dfs_stop_at:a,b,c", "events": ("a,b U a,c", "b,c")}, "mc"),
])
def test_cs_hypotheses_refused_before_enumerating(check_id, spec, params, method):
    # the hypotheses are checked over all 2^E configurations, which the
    # 16-edge continuation guard refuses; the refusal must come first
    g = graph_from_spec(spec)
    t0 = time.perf_counter()
    with pytest.raises(SizeGuardError):
        run_check(check_id, g, params, method, samples=100, seed=1)
    assert time.perf_counter() - t0 < 1.0


def test_mc_zero_hit_term_is_inconclusive():
    # at p = 0.001 ten samples open no edge: every term has 0 hits and a zero
    # Wald error, which says nothing about how far the slack is from zero
    g = graph_from_spec("family:cycle:3,p=0.001")
    r = run_check("dv8", g, method="mc", samples=10, seed=1)
    assert r.lhs == r.rhs == 0.0
    assert r.verdict == "inconclusive"


def test_propagated_se_uses_the_covariance():
    se = 0.01
    diff = lambda v: v["x"] - v["y"]  # noqa: E731
    vals, ses = {"x": 0.3, "y": 0.3}, {"x": se, "y": se}
    # perfectly correlated terms of equal error cancel in a difference
    assert _propagated_se(diff, vals, (ses, {("x", "y"): se * se})) == \
        pytest.approx(0.0, abs=1e-12)
    assert _propagated_se(diff, vals, (ses, {})) == pytest.approx(math.sqrt(2) * se)


def test_propagated_se_unread_terms_add_exact_zeros():
    calls = []

    def fn(v):
        calls.append(v["x"])
        return v["x"] ** 2

    se = _propagated_se(fn, {"x": 0.3}, ({"x": 0.01}, {}))
    assert se == pytest.approx(2 * 0.3 * 0.01)
    assert calls == [0.31, 0.29]  # the two ends of x's secant
    # terms and a covariance fn never reads have secants of exactly 0, so they
    # add exact zeros: the same float, which lets a scan pass a claim's terms alone
    vals, ses = {"x": 0.3, "y": 0.4, "z": 0.5}, {"x": 0.01, "y": 0.02, "z": 0.03}
    assert _propagated_se(fn, vals, (ses, {("x", "y"): 1e-4, ("y", "z"): 1e-4})) == se


@pytest.mark.parametrize("scan_id, reads", [
    ("logconcave", [(1, 2, 3), (2, 3, 4), (1, 2), (2, 3), (3, 4)]),
    ("lambda_monotone", [(1, 2), (2, 3), (3, 4)]),
])
def test_mc_scan_judges_each_claim_on_the_terms_it_reads(monkeypatch, scan_id, reads):
    seen = []
    inner = checks._propagated_se

    def spy(fn, vals, cov):
        seen.append((tuple(vals), tuple(cov[0]), cov[1]))
        return inner(fn, vals, cov)

    monkeypatch.setattr(checks, "_propagated_se", spy)
    scan_conjectures(scan_id, graph_from_spec("family:parallel:5,q=0.5"), {"nmax": 4},
                     "mc", samples=1000, seed=13)
    assert seen == [(r, r, {}) for r in reads]


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_npaths_scan_stops_one_index_past_the_end_degree(monkeypatch, method):
    # f[k] is 0 past the marks' degree 5 on parallel:5, so every nmax past it
    # is refused at index 6, and no term past index 6 is evaluated
    exact_values, mc_term, asked = checks._exact_values, checks._mc_term, []

    def exact(g, terms):
        assert len(terms) <= 6
        return exact_values(g, terms)

    def mc(g, spec, samples, seed):
        asked.append(spec)
        assert len(asked) <= 6
        return mc_term(g, spec, samples, seed)

    monkeypatch.setattr(checks, "_exact_values", exact)
    monkeypatch.setattr(checks, "_mc_term", mc)
    g = graph_from_spec("family:parallel:5,q=0.5")
    for nmax in (6, 50):
        asked.clear()
        with pytest.raises(HypothesisError, match=r"degenerate at index 6 \(got 0.0\)"):
            scan_conjectures("logconcave", g, {"nmax": nmax}, method, samples=200, seed=1)


def test_mc_lambda_monotone_rates_each_claim_from_its_two_terms(monkeypatch):
    # each claim reads f[k] and f[k+1]: 2 calls for its sides and 2 x 2 x 2
    # for the secants, whatever nmax
    # (4 nmax + 2 per claim when every term took a secant)
    calls = []
    inner = checks.implied_lambda
    monkeypatch.setattr(checks, "implied_lambda", lambda k, p: calls.append(k) or inner(k, p))
    nmax = 5
    scan_conjectures("lambda_monotone", graph_from_spec("family:parallel:5,q=0.5"),
                     {"nmax": nmax}, "mc", samples=1000, seed=13)
    assert len(calls) == 10 * (nmax - 1)


@pytest.mark.parametrize("check_id", ["dv8", "planar_dv2"])
def test_shared_sample_errors_are_calibrated(check_id):
    # the MC slack misses the exact one by about one reported error; on
    # planar_dv2 a diagonal error ignoring the covariances gives an SD near 0.5
    g = graph_from_spec("family:grid:2,3,p=0.5")
    exact = run_check(check_id, g).slack
    spec = _CHECKS[check_id](g, {})
    fn = lambda v: spec.rhs(v) - spec.lhs(v)  # noqa: E731
    z = []
    for seed in range(200):
        vals, cov = _evaluate(g, spec, "mc", 2000, seed)
        z.append((fn(vals) - exact) / _propagated_se(fn, vals, cov))
    assert 0.7 <= statistics.stdev(z) <= 1.4


def test_shared_check_with_one_zero_hit_term_is_inconclusive():
    # a,b,c has no hit in these samples; the other terms alone would put the
    # slack more than 3 errors above 0, but a zero Wald error bounds nothing
    g = graph_from_spec("family:cycle:3,p=0.01")
    spec = _CHECKS["dv8"](g, {})
    vals, (ses, cross) = _evaluate(g, spec, "mc", 5000, 3)
    assert [k for k, v in vals.items() if v == 0.0] == ["pabc"]
    others = _propagated_se(lambda v: spec.rhs(v) - spec.lhs(v), vals,
                            ({k: se or 1.0 for k, se in ses.items()}, cross))
    r = run_check("dv8", g, method="mc", samples=5000, seed=3)
    assert r.slack > 3 * others
    assert r.verdict == "inconclusive"


def test_shared_draw_keeps_the_first_terms_value():
    # pabc sorts first in dv_union, so it keeps its own seed and its value
    # from the time when every term drew its own samples
    g = graph_from_spec("family:grid:3,3,p=0.5")
    r = run_check("dv_union", g, method="mc", samples=20000, seed=4)
    assert r.lhs == 0.037384222499999994
    pabc = mc_prob(g, parse_event("a,b,c"), 20000, _derived_seed(4, 0)).mean
    assert r.lhs == pabc ** 2


def test_all_prob_mc_report_is_byte_identical_across_runs():
    g = graph_from_spec("family:grid:3,3,p=0.5")
    texts = [json.dumps(_without_runtime(run_check("q2", g, method="mc", samples=20000,
                                                   seed=9)), sort_keys=True)
             for _ in range(2)]
    assert texts[0] == texts[1]


def test_mc_hk_tree_report_keeps_per_term_seeds():
    r = run_check("hk_tree", graph_from_spec("family:grid:3,3,p=0.5"),
                  {"strategy": "bfs_cluster:a", "events": ("a,b", "b,c")}, "mc",
                  samples=5000, seed=3)
    assert _without_runtime(r) == {
        'check_id': 'hk_tree', 'graph': 'family:grid:3,3,p=0.5', 'method': 'mc',
        'lhs': 0.1286702, 'rhs': 0.1966, 'slack': 0.06792979999999998, 'verdict': 'holds',
        'tolerance': None, 'sigma': 3.0, 'samples': 5000, 'seed': 3, 'note': None}


def test_mc_requires_seed_and_samples():
    g = generate("cycle", 3, p=0.5)
    with pytest.raises(ValueError):
        run_check("dv8", g, method="mc")


def test_exact_verdicts_never_inconclusive():
    g = generate("cycle", 3, p=0.5)
    for cid in ("dv8", "q2", "planar_dv2", "dv_union", "q2_swapped"):
        assert run_check(cid, g).verdict in ("holds", "violated")


def test_check_missing_params_is_value_error():
    g = generate("cycle", 3, p=0.5)
    with pytest.raises(ValueError, match="needs parameter"):
        run_check("hk_tree", g)
    with pytest.raises(ValueError, match="needs parameter"):
        run_check("submult", g, {"n": 1})


def test_exact_and_mc_backends_agree():
    # dual-run agreement within four propagated standard errors
    g = generate("cycle", 3, p=0.5)
    for cid, params in (("dv8", None), ("q2", None),
                        ("hk_tree", {"strategy": "bfs_cluster:a",
                                     "events": ("a,b", "b,c")})):
        rex = run_check(cid, g, params)
        rmc = run_check(cid, g, params, method="mc", samples=150_000, seed=77)
        # compare slacks; the mc sigma bound gives the scale
        se = abs(rmc.slack - rex.slack) / 4.0
        assert rmc.verdict != "violated"
        assert abs(rmc.lhs - rex.lhs) < 0.02 and abs(rmc.rhs - rex.rhs) < 0.02


_PAIR_REFUSALS = [
    ("frac2", "family:grid:2,6,p=0.5", None),
    ("frac1", "family:grid:2,5,p=0.5", None),
    ("cs_bound", "family:grid:2,6,p=0.5",
     {"strategy": "dfs_stop_at:a,b,c", "events": ("a,b U a,c", "b,c")}),
]


@pytest.mark.parametrize("check_id,spec,params", _PAIR_REFUSALS)
def test_exact_cs_pair_guard_refuses_before_hypotheses(check_id, spec, params):
    # 13 to 16 edges pass the continuation guard; the exact joint term is
    # refused at 12 edges, before the hypotheses enumerate 2^E configurations
    g = graph_from_spec(spec)
    t0 = time.perf_counter()
    with pytest.raises(SizeGuardError, match="pair enumeration"):
        run_check(check_id, g, params)
    assert time.perf_counter() - t0 < 1.0


def test_mc_frac1_on_thirteen_edges_still_runs():
    r = run_check("frac1", graph_from_spec("family:grid:2,5,p=0.5"), method="mc",
                  samples=200, seed=3)
    assert r.verdict in ("holds", "inconclusive")


def test_conj3_mc_scan_evaluates_terms_once(monkeypatch):
    import percolab.mc as mc
    g = graph_from_spec("family:cycle:3,p=0.0009765625")
    grid = (0.1, 0.2, 0.3)  # the two-vs-one hypothesis fails at eps 0.1 only
    want = []
    for eps in grid:
        try:
            rep = run_check("conj3_scan", g, {"eps": eps}, "mc", samples=20000, seed=7)
        except HypothesisError:
            continue
        rep.check_id = f"conj3_scan#eps={eps:g}"
        want.append(_without_runtime(rep))
    calls = []
    draw = mc._edge_bit_columns
    monkeypatch.setattr(mc, "_edge_bit_columns", lambda *a: calls.append(a) or draw(*a))
    reps = scan_conjectures("conj3", g, {"eps_grid": grid}, "mc", samples=20000, seed=7)
    assert len(calls) == 1  # one sample set for all five terms, not one per eps
    assert [_without_runtime(r) for r in reps] == want
    assert [r.check_id for r in reps] == ["conj3_scan#eps=0.2", "conj3_scan#eps=0.3"]


_CYCLE3 = "family:cycle:3,p=0.5"


@pytest.mark.parametrize("call, exc, fragment", [
    (lambda: run_check("conj2_demo", graph_from_spec(_CYCLE3), {"eps": 1.5}),
     ValueError, r"eps must lie in \(0,1\)"),
    (lambda: run_check("submult", graph_from_spec("family:grid:2,3,p=0.5"), {"n": 0, "m": 1}),
     ValueError, "need n, m >= 1"),
    (lambda: run_check("submult", graph_from_spec("family:grid:2,3,p=0.5"), {"n": 1, "m": 0}),
     ValueError, "need n, m >= 1"),
    (lambda: run_check("dv8", graph_from_spec(_CYCLE3), method="sampled"),
     ValueError, "method must be 'exact' or 'mc'"),
    (lambda: run_check("no_such_check", graph_from_spec(_CYCLE3)),
     ValueError, "unknown check id 'no_such_check'"),
    (lambda: scan_conjectures("no_such_scan", graph_from_spec(_CYCLE3)),
     ValueError, "unknown scan id 'no_such_scan'"),
    (lambda: scan_conjectures("logconcave", graph_from_spec("family:parallel:3,q=0.5"),
                              {"nmax": 1}),
     ValueError, "scan needs nmax >= 2"),
])
def test_check_refusals(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()


def test_poisson_upper_tail_edges():
    """The tail at k <= 0 is certain; with no mass it is empty from k = 1."""
    assert poisson_upper_tail(0, 2.0) == 1.0
    assert poisson_upper_tail(-3, 0.0) == 1.0
    assert poisson_upper_tail(1, 0.0) == 0.0
    assert poisson_upper_tail(2, -1.0) == 0.0
