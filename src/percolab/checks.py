"""Named inequality checks with uniform reports, on exact or Monte Carlo
backends.

Every check is normalized to the claim ``lhs <= rhs`` so that
``slack = rhs - lhs`` is nonnegative when the claim holds.  Exact verdicts
compare the slack against the global tolerance; Monte Carlo verdicts are
significance statements at a configurable sigma level and may come back
``inconclusive`` when the interval straddles zero.

Check ids
---------
hk_tree       joint occurrence under a revealed-set coupling is at least the
              product of the marginals (two increasing events).
vdbk_tree     the S-relative disjoint occurrence is at most the product.
cs_bound      squared-conditional bound P(B)^2 / P(A) for a deciding prefix
              that reveals everything into S, against the coupled joint.
frac1, frac2  the cs_bound instance whose prefix reveals the open cluster of
              the first mark (three-cluster and cluster-vs-pair variants).
planar_dv2    P(abc)^2 <= 2 P(ab) P(bc) P(ac) for marks on the outer face.
dv8           P(abc)^2 <= 8 P(ab) P(ac) P(bc) on any graph.
dv_union      P(abc)^2 <= 2 P(ab U ac)^2 P(bc).
q2, q2_swapped  asymmetric three-cluster bound and its a<->b swap.
conj2_demo    from P(ab|c), P(ac|b) < eps^3/4 conclude
              min(P(abc), P(a|b|c)) < eps.
arms23        P(three disjoint a-b paths)^2 <= P(two)^3 (marks on one face).
arms_klm      P(n)^2 <= P(k) P(l) P(m) for k+l+m = 2n, k,l,m <= n.
submult       P(n+m disjoint paths) <= P(n) P(m).
conj3_scan    reports P(abc)P(a|b|c) - P(ac|b)P(a|bc) against eps whenever
              P(ab|c) < eps^3/4 (conjecture scan; findings, not assertions).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

from . import config
from .errors import HypothesisError, PercolabError
from .events import Intersect, Monotonicity, monotonicity, parse_event, require_increasing
from .exact import Joint, SqS, exact_npaths, exact_pair, exact_prob, truth_table
from .graphs import Configuration, Graph, same_face
from .mc import mc_npaths, mc_pair, mc_prob
from .strategies import (S, SBAR, Strategy, extend_with_rest, parse_strategy,
                         run, verify_continuation)


@dataclass
class CheckReport:
    check_id: str
    graph: str
    method: str
    lhs: float | None
    rhs: float | None
    slack: float | None
    verdict: str
    tolerance: float | None
    sigma: float | None
    samples: int | None
    seed: int | None
    runtime_ms: float
    note: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


# term kinds: ("prob", text) | ("pair", strategy, "joint"|"sqs", A, B) | ("npaths", n)


@dataclass
class _Spec:
    terms: dict
    lhs: callable
    rhs: callable
    post_hypothesis: callable | None = None
    note: str | None = None


def _strategy_of(x) -> Strategy:
    return x if isinstance(x, Strategy) else parse_strategy(x)


def _req(params: dict, key: str, check_id: str):
    if key not in params:
        raise ValueError(f"check {check_id!r} needs parameter {key!r}")
    return params[key]


def _need_marks(g: Graph, k: int):
    if len(g.marks) < k:
        raise HypothesisError(f"check needs {k} marked vertices, graph has {len(g.marks)}")


def _need_outer_face(g: Graph, vs):
    if g.rotation is None or g.outer_anchor is None:
        raise HypothesisError("check needs a plane embedding with an outer anchor")
    if not same_face(g, vs, "outer"):
        raise HypothesisError(f"marks {vs} do not lie on the outer face together")


# ---------------------------------------------------------------------------
# Check builders


def _hk_spec(g, params):
    t = _strategy_of(_req(params, "strategy", "hk_tree"))
    ev = _req(params, "events", "hk_tree")
    A = parse_event(ev[0])
    B = parse_event(ev[1])
    require_increasing(A, g, "first event")
    require_increasing(B, g, "second event")
    terms = {"pa": ("prob", A), "pb": ("prob", B),
             "joint": ("pair", t, "joint", A, B)}
    return _Spec(terms, lambda v: v["pa"] * v["pb"], lambda v: v["joint"])


def _vdbk_spec(g, params):
    t = _strategy_of(_req(params, "strategy", "vdbk_tree"))
    ev = _req(params, "events", "vdbk_tree")
    A = parse_event(ev[0])
    B = parse_event(ev[1])
    require_increasing(A, g, "first event")
    require_increasing(B, g, "second event")
    terms = {"pa": ("prob", A), "pb": ("prob", B),
             "sqs": ("pair", t, "sqs", A, B)}
    return _Spec(terms, lambda v: v["sqs"], lambda v: v["pa"] * v["pb"])


def _decides(t: Strategy, g: Graph, expr) -> bool:
    """The strategy's revealed edges always determine the event on c1."""
    tab = truth_table(g, expr)
    c0 = Configuration(g, 0)
    full = (1 << g.n_edges) - 1
    seen = set()
    for m1 in range(1 << g.n_edges):
        trace = run(t, g, Configuration(g, m1), c0)
        r_mask = 0
        for st in trace.steps:
            r_mask |= 1 << g.edge_index(st.edge)
        key = (r_mask, m1 & r_mask)
        if key in seen:
            continue
        seen.add(key)
        free = full & ~r_mask
        want = tab[m1]
        sub = free
        while True:
            if tab[(m1 & r_mask) | sub] != want:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & free
    return True


def _all_s_decisions(t: Strategy, g: Graph) -> bool:
    c0 = Configuration(g, 0)
    for m1 in range(1 << g.n_edges):
        trace = run(t, g, Configuration(g, m1), c0)
        if any(st.decision != S for st in trace.steps):
            return False
    return True


def _cs_spec_from(g, t1: Strategy, A, M):
    if t1.uses_c2:
        raise HypothesisError("prefix strategy must branch on the first configuration only")
    mono = monotonicity(M, g) if g.n_edges <= config.MAX_CONTINUATION_EDGES else monotonicity(M)
    if mono is Monotonicity.NONE:
        raise HypothesisError("the refining event must be monotone")
    if not _all_s_decisions(t1, g):
        raise HypothesisError("prefix strategy must reveal everything into S")
    if not _decides(t1, g, A):
        raise HypothesisError("prefix strategy does not decide the conditioning event")
    t2 = extend_with_rest(t1, SBAR)
    if not verify_continuation(t1, t2, g):
        raise HypothesisError("continuation check failed")
    B = Intersect((A, M))
    terms = {"pa": ("prob", A), "pb": ("prob", B),
             "joint": ("pair", t2, "joint", B, B)}

    def post(vals):
        if vals["pa"] <= config.DEFAULT_TOL:
            raise HypothesisError("conditioning event has probability zero")

    return _Spec(terms, lambda v: v["pb"] ** 2 / v["pa"], lambda v: v["joint"],
                 post_hypothesis=post)


def _cs_spec(g, params):
    t1 = _strategy_of(_req(params, "strategy", "cs_bound"))
    ev = _req(params, "events", "cs_bound")
    A = parse_event(ev[0])
    M = parse_event(ev[1])
    return _cs_spec_from(g, t1, A, M)


def _frac1_spec(g, params):
    _need_marks(g, 3)
    a, b, c = g.marks
    t1 = _strategy_of(f"bfs_cluster:{a}")
    A = parse_event(f"{a}|{b} U {a}|{c}")
    M = parse_event(f"{a}|{b}|{c}")
    return _cs_spec_from(g, t1, A, M)


def _frac2_spec(g, params):
    _need_marks(g, 3)
    a, b, c = g.marks
    t1 = _strategy_of(f"bfs_cluster:{a}")
    A = parse_event(f"{a}|{b} U {a}|{c}")
    M = parse_event(f"{b},{c}")
    return _cs_spec_from(g, t1, A, M)


def _planar_dv2_spec(g, params):
    _need_marks(g, 3)
    a, b, c = g.marks
    _need_outer_face(g, (a, b, c))
    terms = {"pabc": ("prob", parse_event(f"{a},{b},{c}")),
             "pab": ("prob", parse_event(f"{a},{b}")),
             "pbc": ("prob", parse_event(f"{b},{c}")),
             "pac": ("prob", parse_event(f"{a},{c}"))}
    return _Spec(terms, lambda v: v["pabc"] ** 2,
                 lambda v: 2.0 * v["pab"] * v["pbc"] * v["pac"])


def _dv8_spec(g, params):
    _need_marks(g, 3)
    a, b, c = g.marks
    terms = {"pabc": ("prob", parse_event(f"{a},{b},{c}")),
             "pab": ("prob", parse_event(f"{a},{b}")),
             "pac": ("prob", parse_event(f"{a},{c}")),
             "pbc": ("prob", parse_event(f"{b},{c}"))}
    return _Spec(terms, lambda v: v["pabc"] ** 2,
                 lambda v: 8.0 * v["pab"] * v["pac"] * v["pbc"])


def _dv_union_spec(g, params):
    _need_marks(g, 3)
    a, b, c = g.marks
    terms = {"pabc": ("prob", parse_event(f"{a},{b},{c}")),
             "pu": ("prob", parse_event(f"{a},{b} U {a},{c}")),
             "pbc": ("prob", parse_event(f"{b},{c}"))}
    return _Spec(terms, lambda v: v["pabc"] ** 2,
                 lambda v: 2.0 * v["pu"] ** 2 * v["pbc"])


def _q2_terms(g):
    a, b, c = g.marks
    return {
        "p3": ("prob", parse_event(f"{a}|{b}|{c}")),
        "u_ab_ac": ("prob", parse_event(f"{a}|{b} U {a}|{c}")),
        "u_ab_bc": ("prob", parse_event(f"{a}|{b} U {b}|{c}")),
        "u_ac_bc": ("prob", parse_event(f"{a}|{c} U {b}|{c}")),
    }


def _q2_post(keys):
    def post(vals):
        for k in keys:
            if vals[k] <= config.DEFAULT_TOL:
                raise HypothesisError(f"degenerate denominator {k}")
    return post


def _q2_spec(g, params):
    _need_marks(g, 3)
    terms = _q2_terms(g)
    return _Spec(terms,
                 lambda v: v["p3"] ** 2 / v["u_ab_bc"] + v["p3"] ** 2 / v["u_ac_bc"],
                 lambda v: v["p3"] + v["u_ab_ac"] ** 2,
                 post_hypothesis=_q2_post(("u_ab_bc", "u_ac_bc")))


def _q2_swapped_spec(g, params):
    _need_marks(g, 3)
    terms = _q2_terms(g)
    return _Spec(terms,
                 lambda v: v["p3"] ** 2 / v["u_ab_ac"] + v["p3"] ** 2 / v["u_ac_bc"],
                 lambda v: v["p3"] + v["u_ab_bc"] ** 2,
                 post_hypothesis=_q2_post(("u_ab_ac", "u_ac_bc")))


def _conj2_spec(g, params):
    _need_marks(g, 3)
    eps = float(_req(params, "eps", "conj2_demo/conj3_scan"))
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    a, b, c = g.marks
    delta = eps ** 3 / 4.0
    terms = {"pabc": ("prob", parse_event(f"{a},{b},{c}")),
             "p3": ("prob", parse_event(f"{a}|{b}|{c}")),
             "pab_c": ("prob", parse_event(f"{a},{b}|{c}")),
             "pac_b": ("prob", parse_event(f"{a},{c}|{b}"))}

    def post(vals):
        if not (vals["pab_c"] < delta and vals["pac_b"] < delta):
            raise HypothesisError(
                f"two-vs-one probabilities not below eps^3/4 = {delta:g}")

    return _Spec(terms, lambda v: min(v["pabc"], v["p3"]), lambda v: eps,
                 post_hypothesis=post, note=f"eps={eps:g}")


def _arms23_spec(g, params):
    _need_marks(g, 2)
    a, b = g.marks[:2]
    _need_outer_face(g, (a, b))
    terms = {"f3": ("npaths", 3), "f2": ("npaths", 2)}
    return _Spec(terms, lambda v: v["f3"] ** 2, lambda v: v["f2"] ** 3)


def _arms_klm_spec(g, params):
    _need_marks(g, 2)
    a, b = g.marks[:2]
    _need_outer_face(g, (a, b))
    n, k, l, m = (int(_req(params, x, "arms_klm")) for x in ("n", "k", "l", "m"))
    if not (1 <= k <= n and 1 <= l <= n and 1 <= m <= n and k + l + m == 2 * n):
        raise ValueError("need k, l, m <= n and k + l + m = 2n")
    terms = {"fn": ("npaths", n), "fk": ("npaths", k),
             "fl": ("npaths", l), "fm": ("npaths", m)}
    return _Spec(terms, lambda v: v["fn"] ** 2,
                 lambda v: v["fk"] * v["fl"] * v["fm"],
                 note=f"(n,k,l,m)=({n},{k},{l},{m})")


def _submult_spec(g, params):
    _need_marks(g, 2)
    n, m = int(_req(params, "n", "submult")), int(_req(params, "m", "submult"))
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    terms = {"fnm": ("npaths", n + m), "fn": ("npaths", n), "fm": ("npaths", m)}
    return _Spec(terms, lambda v: v["fnm"], lambda v: v["fn"] * v["fm"],
                 note=f"(n,m)=({n},{m})")


def _conj3_spec(g, params):
    _need_marks(g, 3)
    eps = float(_req(params, "eps", "conj2_demo/conj3_scan"))
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    a, b, c = g.marks
    delta = eps ** 3 / 4.0
    terms = {"pabc": ("prob", parse_event(f"{a},{b},{c}")),
             "p3": ("prob", parse_event(f"{a}|{b}|{c}")),
             "pab_c": ("prob", parse_event(f"{a},{b}|{c}")),
             "pac_b": ("prob", parse_event(f"{a},{c}|{b}")),
             "pa_bc": ("prob", parse_event(f"{a}|{b},{c}"))}

    def post(vals):
        if not vals["pab_c"] < delta:
            raise HypothesisError(f"P(two-vs-one) not below eps^3/4 = {delta:g}")

    return _Spec(terms,
                 lambda v: v["pabc"] * v["p3"] - v["pac_b"] * v["pa_bc"],
                 lambda v: eps,
                 post_hypothesis=post, note=f"conjecture scan, eps={eps:g}")


_CHECKS = {
    "hk_tree": _hk_spec,
    "vdbk_tree": _vdbk_spec,
    "cs_bound": _cs_spec,
    "frac1": _frac1_spec,
    "frac2": _frac2_spec,
    "planar_dv2": _planar_dv2_spec,
    "dv8": _dv8_spec,
    "dv_union": _dv_union_spec,
    "q2": _q2_spec,
    "q2_swapped": _q2_swapped_spec,
    "conj2_demo": _conj2_spec,
    "arms23": _arms23_spec,
    "arms_klm": _arms_klm_spec,
    "submult": _submult_spec,
    "conj3_scan": _conj3_spec,
}

CONJECTURE_CHECKS = frozenset({"conj3_scan", "logconcave", "lambda_monotone"})


def check_ids() -> tuple:
    return tuple(sorted(_CHECKS))


# ---------------------------------------------------------------------------
# Term evaluation


def _derived_seed(seed: int, i: int) -> int:
    return (seed * 1000003 + 17 * i + 1) & 0x7FFFFFFFFFFFFFFF


def _eval_exact(g: Graph, terms: dict) -> dict:
    vals = {}
    a, b = g.marks[0], g.marks[1]
    for name, spec in terms.items():
        if spec[0] == "prob":
            vals[name] = exact_prob(g, spec[1])
        elif spec[0] == "pair":
            _, t, kind, A, B = spec
            q = Joint(A, B) if kind == "joint" else SqS(A, B)
            vals[name] = exact_pair(g, t, q)
        elif spec[0] == "npaths":
            vals[name] = exact_npaths(g, a, b, spec[1])
        else:
            raise PercolabError(f"unknown term kind {spec[0]!r}")
    return vals


def _eval_mc(g: Graph, terms: dict, samples: int, seed: int):
    vals, ses = {}, {}
    a, b = g.marks[0], g.marks[1]
    for i, (name, spec) in enumerate(sorted(terms.items())):
        s_i = _derived_seed(seed, i)
        if spec[0] == "prob":
            est = mc_prob(g, spec[1], samples, s_i)
        elif spec[0] == "pair":
            _, t, kind, A, B = spec
            q = Joint(A, B) if kind == "joint" else SqS(A, B)
            est = mc_pair(g, t, q, samples, s_i)
        elif spec[0] == "npaths":
            est = mc_npaths(g, a, b, spec[1], samples, s_i)
        else:
            raise PercolabError(f"unknown term kind {spec[0]!r}")
        vals[name] = est.mean
        ses[name] = est.std_error
    return vals, ses


def _propagated_se(fn, vals: dict, ses: dict) -> float:
    var = 0.0
    for k, se in ses.items():
        if se == 0.0:
            continue
        h = max(se * 1e-2, 1e-9)
        up = dict(vals)
        dn = dict(vals)
        up[k] = vals[k] + h
        dn[k] = vals[k] - h
        grad = (fn(up) - fn(dn)) / (2.0 * h)
        var += (grad * se) ** 2
    return math.sqrt(var)


def run_check(check_id: str, g: Graph, params: dict | None = None,
              method: str = "exact", *, samples: int | None = None,
              seed: int | None = None, sigma: float = 3.0,
              tol: float | None = None) -> CheckReport:
    """Evaluate one named check on one graph and return its report."""
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check id {check_id!r}")
    if method not in ("exact", "mc"):
        raise ValueError("method must be 'exact' or 'mc'")
    tol = config.DEFAULT_TOL if tol is None else tol
    t0 = time.perf_counter()
    spec = _CHECKS[check_id](g, params or {})
    if method == "exact":
        vals = _eval_exact(g, spec.terms)
        if spec.post_hypothesis:
            spec.post_hypothesis(vals)
        lhs = spec.lhs(vals)
        rhs = spec.rhs(vals)
        slack = rhs - lhs
        verdict = "holds" if slack >= -tol else "violated"
        report = CheckReport(check_id, g.name, "exact", lhs, rhs, slack, verdict,
                             tol, None, None, None,
                             (time.perf_counter() - t0) * 1e3, spec.note)
    else:
        if samples is None or seed is None:
            raise ValueError("mc method requires samples and seed")
        vals, ses = _eval_mc(g, spec.terms, samples, seed)
        if spec.post_hypothesis:
            spec.post_hypothesis(vals)
        lhs = spec.lhs(vals)
        rhs = spec.rhs(vals)
        slack = rhs - lhs
        se = _propagated_se(lambda v: spec.rhs(v) - spec.lhs(v), vals, ses)
        if not all(ses.values()):  # 0 or n hits: a zero Wald error, not a known term
            verdict = "inconclusive"
        elif slack >= sigma * se:
            verdict = "holds"
        elif slack <= -sigma * se:
            verdict = "violated"
        else:
            verdict = "inconclusive"
        report = CheckReport(check_id, g.name, "mc", lhs, rhs, slack, verdict,
                             None, sigma, samples, seed,
                             (time.perf_counter() - t0) * 1e3, spec.note)
    return report


# ---------------------------------------------------------------------------
# Scalar helpers


def poisson_upper_tail(k: int, lam: float) -> float:
    """P(Poisson(lam) >= k)."""
    if k <= 0:
        return 1.0
    if lam <= 0.0:
        return 0.0
    term = math.exp(-lam)
    acc = term
    for i in range(1, k):
        term *= lam / i
        acc += term
    return max(0.0, 1.0 - acc)


def implied_lambda(k: int, prob: float) -> float:
    """The rate whose Poisson upper tail at k equals prob (bisection)."""
    if k < 1:
        raise ValueError("k must be >= 1 (the tail at 0 is identically 1)")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly between 0 and 1")
    lo, hi = 0.0, 1.0
    while poisson_upper_tail(k, hi) < prob:
        hi *= 2.0
        if hi > 1e12:
            raise PercolabError("failed to bracket the implied rate")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if poisson_upper_tail(k, mid) < prob:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    if abs(poisson_upper_tail(k, lam) - prob) > 1e-10:
        raise PercolabError("implied-rate bisection did not converge")
    return lam


def alpha3_cubic(t: float) -> float:
    return t ** 3 - 42.0 * t ** 2 + 12.0 * t + 1.0


def alpha3_root() -> float:
    """Unique root of t^3 - 42 t^2 + 12 t + 1 in (0, 1), by bisection."""
    lo, hi = 0.0, 1.0  # cubic is +1 at 0 and -28 at 1
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if alpha3_cubic(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Conjecture scans


def _npaths_values(g: Graph, nmax: int, method, samples, seed):
    a, b = g.marks[0], g.marks[1]
    vals, ses = [], []
    for k in range(1, nmax + 1):
        if method == "exact":
            vals.append(exact_npaths(g, a, b, k))
            ses.append(0.0)
        else:
            est = mc_npaths(g, a, b, k, samples, _derived_seed(seed, k))
            vals.append(est.mean)
            ses.append(est.std_error)
    return vals, ses


def scan_conjectures(scan_id: str, g: Graph, params: dict | None = None,
                     method: str = "exact", *, samples: int | None = None,
                     seed: int | None = None, sigma: float = 3.0,
                     tol: float | None = None) -> list:
    """Run a conjecture scan; violations are findings, never assertions.

    Returns one report per scanned index.  Instances that do not meet a
    scan's hypothesis are simply omitted (conj3), or raise when the scanned
    quantity is degenerate (disjoint-path probability exactly 0 or 1).
    """
    params = params or {}
    tol = config.DEFAULT_TOL if tol is None else tol
    if method == "mc" and (samples is None or seed is None):
        raise ValueError("mc method requires samples and seed")

    if scan_id == "conj3":
        out = []
        for eps in params.get("eps_grid", (0.2, 0.3)):
            try:
                rep = run_check("conj3_scan", g, {"eps": eps}, method,
                                samples=samples, seed=seed, sigma=sigma, tol=tol)
            except HypothesisError:
                continue
            rep.check_id = f"conj3_scan#eps={eps:g}"
            out.append(rep)
        return out

    if scan_id not in ("logconcave", "lambda_monotone"):
        raise ValueError(f"unknown scan id {scan_id!r}")
    nmax = int(params.get("nmax", 3))
    if nmax < 2:
        raise ValueError("scan needs nmax >= 2")
    t0 = time.perf_counter()
    f, ses = _npaths_values(g, nmax, method, samples, seed)
    for k, v in enumerate(f, start=1):
        if v <= 0.0 or v >= 1.0:
            raise HypothesisError(
                f"disjoint-path probability degenerate at index {k} (got {v})")
    out = []

    def emit(cid, lhs, rhs, se, note=None):
        slack = rhs - lhs
        if method == "exact":
            verdict = "holds" if slack >= -tol else "violated"
            rep = CheckReport(cid, g.name, "exact", lhs, rhs, slack, verdict,
                              tol, None, None, None,
                              (time.perf_counter() - t0) * 1e3, note)
        else:
            if slack >= sigma * se:
                verdict = "holds"
            elif slack <= -sigma * se:
                verdict = "violated"
            else:
                verdict = "inconclusive"
            rep = CheckReport(cid, g.name, "mc", lhs, rhs, slack, verdict,
                              None, sigma, samples, seed,
                              (time.perf_counter() - t0) * 1e3, note)
        out.append(rep)

    if scan_id == "logconcave":
        for n in range(2, nmax):
            se = math.sqrt((f[n] * ses[n - 2]) ** 2 + (f[n - 2] * ses[n]) ** 2 +
                           (2 * f[n - 1] * ses[n - 1]) ** 2)
            emit(f"logconcave#sq[n={n}]", f[n - 2] * f[n], f[n - 1] ** 2, se)
        for n in range(1, nmax):
            lhs = math.log(f[n]) / (n + 1)
            rhs = math.log(f[n - 1]) / n
            se = math.sqrt((ses[n] / (f[n] * (n + 1))) ** 2 +
                           (ses[n - 1] / (f[n - 1] * n)) ** 2)
            emit(f"logconcave#ratio[n={n}]", lhs, rhs, se)
    else:
        lams = []
        lam_ses = []
        for k in range(1, nmax + 1):
            lam = implied_lambda(k, f[k - 1])
            if method == "mc":
                h = max(min(ses[k - 1], 0.5 * min(f[k - 1], 1 - f[k - 1])), 1e-9)
                dlam = (implied_lambda(k, min(f[k - 1] + h, 1 - 1e-12)) -
                        implied_lambda(k, max(f[k - 1] - h, 1e-12))) / (2 * h)
                lam_ses.append(abs(dlam) * ses[k - 1])
            else:
                lam_ses.append(0.0)
            lams.append(lam)
        for k in range(1, nmax):
            se = math.hypot(lam_ses[k - 1], lam_ses[k])
            emit(f"lambda_monotone#k={k}", lams[k], lams[k - 1], se)
    return out
