import math

import pytest

from percolab import (HypothesisError, alpha3_root, generate, graph_from_spec,
                      implied_lambda, run_check, scan_conjectures)
from percolab.checks import alpha3_cubic, check_ids, poisson_upper_tail

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
    for k in (1, 2, 3, 5):
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
    assert r.to_dict() == r2.to_dict() or r.runtime_ms != r2.runtime_ms


def test_mc_zero_hit_term_is_inconclusive():
    # at p = 0.001 ten samples open no edge: every term has 0 hits and a zero
    # Wald error, which says nothing about how far the slack is from zero
    g = graph_from_spec("family:cycle:3,p=0.001")
    r = run_check("dv8", g, method="mc", samples=10, seed=1)
    assert r.lhs == r.rhs == 0.0
    assert r.verdict == "inconclusive"


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
