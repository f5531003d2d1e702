"""Named inequality checks with uniform reports, on exact or Monte Carlo
backends.

Every check, and every index of a scan, states its claim ``lhs <= rhs`` as
callables over its term values (``slack = rhs - lhs``), and ``_verdict`` alone
turns a claim into a report.  Exact verdicts compare the slack against the
global tolerance; Monte Carlo verdicts are significance statements at a
configurable sigma level over delta-method errors, and may come back
``inconclusive`` when the interval straddles zero.  The terms of a check
whose terms are all ``prob`` terms share one sample set, and its error
carries their covariances; other checks and the npaths scans draw one
sample set per term.

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
              P(ab|c) < eps^3/4 (the conj3 scan runs it over an eps grid;
              conjecture scans report findings, not assertions).
logconcave    scan: f[n-1] f[n+1] <= f[n]^2 and log f[n+1]/(n+1) <= log f[n]/n
              over f[k] = P(k disjoint paths).
lambda_monotone  scan: implied Poisson rates fall,
              implied_lambda(k+1, f[k+1]) <= implied_lambda(k, f[k]).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from itertools import combinations

from . import config
from .errors import HypothesisError, SizeGuardError
from .events import (Intersect, Monotonicity, NPathsAtom, monotonicity, parse_event,
                     require_increasing)
from .exact import Joint, SqS, _check_pair_size, _check_prefix, exact_pair, exact_probs
from .graphs import Graph, same_face
from .mc import mc_pair, mc_prob, mc_probs
from .strategies import Strategy, parse_strategy


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


# term kinds: ("prob", event) | ("pair", strategy, Joint or SqS query)


@dataclass
class _Spec:
    terms: dict
    lhs: callable
    rhs: callable
    post_hypothesis: callable | None = None
    note: str | None = None
    pre_hypothesis: callable | None = None  # enumerating checks, run after the size guards


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


def _paths(g: Graph, n: int) -> tuple:
    """The term of n edge-disjoint open paths between the first two marks."""
    return "prob", NPathsAtom(g.marks[0], g.marks[1], n)


def _marked_events(g: Graph, texts: dict) -> dict:
    """("prob", event) terms from templates over the three marks {a}, {b}, {c}."""
    _need_marks(g, 3)
    a, b, c = g.marks
    return {k: ("prob", parse_event(t.format(a=a, b=b, c=c))) for k, t in texts.items()}


# ---------------------------------------------------------------------------
# Check builders


def _tree_spec(check_id, g, params):
    """hk_tree: P(A) P(B) <= joint; vdbk_tree: S-relative disjoint occurrence
    <= P(A) P(B)."""
    t = _strategy_of(_req(params, "strategy", check_id))
    ev = _req(params, "events", check_id)
    A = parse_event(ev[0])
    B = parse_event(ev[1])
    require_increasing(A, g, "first event")
    require_increasing(B, g, "second event")
    terms = {"pa": ("prob", A), "pb": ("prob", B)}
    if check_id == "hk_tree":
        terms["joint"] = ("pair", t, Joint(A, B))
        return _Spec(terms, lambda v: v["pa"] * v["pb"], lambda v: v["joint"])
    terms["sqs"] = ("pair", t, SqS(A, B))
    return _Spec(terms, lambda v: v["sqs"], lambda v: v["pa"] * v["pb"])


def _cs_spec_from(g, t1: Strategy, A, M):
    # every hypothesis below is checked by enumerating configurations
    if g.n_edges > config.MAX_CONTINUATION_EDGES:
        raise SizeGuardError("cs_bound/frac1/frac2 hypotheses are checked by enumeration, "
                             f"limited to {config.MAX_CONTINUATION_EDGES} edges")
    if t1.uses_c2:
        raise HypothesisError("prefix strategy must branch on the first configuration only")
    B = Intersect((A, M))
    terms = {"pa": ("prob", A), "pb": ("prob", B),
             "joint": ("pair", t1, Joint(B, B))}

    def pre():
        if monotonicity(M, g) is Monotonicity.NONE:
            raise HypothesisError("the refining event must be monotone")
        _check_prefix(g, t1, A)

    def post(vals):
        if vals["pa"] <= config.DEFAULT_TOL:
            raise HypothesisError("conditioning event has probability zero")

    return _Spec(terms, lambda v: v["pb"] ** 2 / v["pa"], lambda v: v["joint"],
                 post_hypothesis=post, pre_hypothesis=pre)


def _cs_spec(g, params):
    t1 = _strategy_of(_req(params, "strategy", "cs_bound"))
    ev = _req(params, "events", "cs_bound")
    A = parse_event(ev[0])
    M = parse_event(ev[1])
    return _cs_spec_from(g, t1, A, M)


def _frac_spec(refining, g, params):
    """cs_bound with the open cluster of the first mark as the prefix;
    ``refining`` is the refining event over the marks {a}, {b}, {c}."""
    _need_marks(g, 3)
    a, b, c = g.marks
    A = parse_event(f"{a}|{b} U {a}|{c}")
    M = parse_event(refining.format(a=a, b=b, c=c))
    return _cs_spec_from(g, _strategy_of(f"bfs_cluster:{a}"), A, M)


def _dv_spec(const, pairs, planar, g, params):
    """P(abc)^2 <= const * the product of the pair terms, in the given order."""
    terms = _marked_events(g, {"pabc": "{a},{b},{c}", "pab": "{a},{b}",
                               "pbc": "{b},{c}", "pac": "{a},{c}"})
    if planar:
        _need_outer_face(g, g.marks[:3])
    x, y, z = pairs
    return _Spec(terms, lambda v: v["pabc"] ** 2,
                 lambda v: const * v[x] * v[y] * v[z])


def _dv_union_spec(g, params):
    terms = _marked_events(g, {"pabc": "{a},{b},{c}", "pu": "{a},{b} U {a},{c}",
                               "pbc": "{b},{c}"})
    return _Spec(terms, lambda v: v["pabc"] ** 2,
                 lambda v: 2.0 * v["pu"] ** 2 * v["pbc"])


def _q2_spec(den, sq, g, params):
    """p3^2 / den + p3^2 / u_ac_bc <= p3 + sq^2 (q2 and its a<->b swap)."""
    terms = _marked_events(g, {"p3": "{a}|{b}|{c}", "u_ab_ac": "{a}|{b} U {a}|{c}",
                               "u_ab_bc": "{a}|{b} U {b}|{c}",
                               "u_ac_bc": "{a}|{c} U {b}|{c}"})

    def post(vals):
        for k in (den, "u_ac_bc"):
            if vals[k] <= config.DEFAULT_TOL:
                raise HypothesisError(f"degenerate denominator {k}")

    return _Spec(terms,
                 lambda v: v["p3"] ** 2 / v[den] + v["p3"] ** 2 / v["u_ac_bc"],
                 lambda v: v["p3"] + v[sq] ** 2,
                 post_hypothesis=post)


def _eps_delta(params) -> tuple[float, float]:
    eps = float(_req(params, "eps", "conj2_demo/conj3_scan"))
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    return eps, eps ** 3 / 4.0


def _conj2_spec(g, params):
    terms = _marked_events(g, {"pabc": "{a},{b},{c}", "p3": "{a}|{b}|{c}",
                               "pab_c": "{a},{b}|{c}", "pac_b": "{a},{c}|{b}"})
    eps, delta = _eps_delta(params)

    def post(vals):
        if not (vals["pab_c"] < delta and vals["pac_b"] < delta):
            raise HypothesisError(
                f"two-vs-one probabilities not below eps^3/4 = {delta:g}")

    return _Spec(terms, lambda v: min(v["pabc"], v["p3"]), lambda v: eps,
                 post_hypothesis=post, note=f"eps={eps:g}")


def _arms23_spec(g, params):
    _need_marks(g, 2)
    _need_outer_face(g, g.marks[:2])
    terms = {"f3": _paths(g, 3), "f2": _paths(g, 2)}
    return _Spec(terms, lambda v: v["f3"] ** 2, lambda v: v["f2"] ** 3)


def _arms_klm_spec(g, params):
    _need_marks(g, 2)
    _need_outer_face(g, g.marks[:2])
    n, k, l, m = (int(_req(params, x, "arms_klm")) for x in ("n", "k", "l", "m"))
    if not (1 <= k <= n and 1 <= l <= n and 1 <= m <= n and k + l + m == 2 * n):
        raise ValueError("need k, l, m <= n and k + l + m = 2n")
    terms = {"fn": _paths(g, n), "fk": _paths(g, k), "fl": _paths(g, l), "fm": _paths(g, m)}
    return _Spec(terms, lambda v: v["fn"] ** 2,
                 lambda v: v["fk"] * v["fl"] * v["fm"],
                 note=f"(n,k,l,m)=({n},{k},{l},{m})")


def _submult_spec(g, params):
    _need_marks(g, 2)
    n, m = int(_req(params, "n", "submult")), int(_req(params, "m", "submult"))
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    terms = {"fnm": _paths(g, n + m), "fn": _paths(g, n), "fm": _paths(g, m)}
    return _Spec(terms, lambda v: v["fnm"], lambda v: v["fn"] * v["fm"],
                 note=f"(n,m)=({n},{m})")


def _conj3_spec(g, params):
    terms = _marked_events(g, {"pabc": "{a},{b},{c}", "p3": "{a}|{b}|{c}",
                               "pab_c": "{a},{b}|{c}", "pac_b": "{a},{c}|{b}",
                               "pa_bc": "{a}|{b},{c}"})
    eps, delta = _eps_delta(params)

    def post(vals):
        if not vals["pab_c"] < delta:
            raise HypothesisError(f"P(two-vs-one) not below eps^3/4 = {delta:g}")

    return _Spec(terms,
                 lambda v: v["pabc"] * v["p3"] - v["pac_b"] * v["pa_bc"],
                 lambda v: eps,
                 post_hypothesis=post, note=f"conjecture scan, eps={eps:g}")


_CHECKS = {
    "hk_tree": partial(_tree_spec, "hk_tree"),
    "vdbk_tree": partial(_tree_spec, "vdbk_tree"),
    "cs_bound": _cs_spec,
    "frac1": partial(_frac_spec, "{a}|{b}|{c}"),
    "frac2": partial(_frac_spec, "{b},{c}"),
    "planar_dv2": partial(_dv_spec, 2.0, ("pab", "pbc", "pac"), True),
    "dv8": partial(_dv_spec, 8.0, ("pab", "pac", "pbc"), False),
    "dv_union": _dv_union_spec,
    "q2": partial(_q2_spec, "u_ab_bc", "u_ab_ac"),
    "q2_swapped": partial(_q2_spec, "u_ab_ac", "u_ab_bc"),
    "conj2_demo": _conj2_spec,
    "arms23": _arms23_spec,
    "arms_klm": _arms_klm_spec,
    "submult": _submult_spec,
    "conj3_scan": _conj3_spec,
}

# conjecture scans: two over disjoint-path indices, one over eps (conj3_scan)
_NPATHS_SCANS = ("logconcave", "lambda_monotone")
SCAN_IDS = _NPATHS_SCANS + ("conj3",)
# report ids (before any '#') whose violations are findings, not failures
CONJECTURE_CHECKS = frozenset(_NPATHS_SCANS + ("conj3_scan",))


def check_ids() -> tuple:
    return tuple(sorted(_CHECKS))


# ---------------------------------------------------------------------------
# Terms and verdicts


def _check_args(method: str, samples, seed, sigma: float) -> None:
    """Reject run settings that would give a wrong or meaningless verdict."""
    if method not in ("exact", "mc"):
        raise ValueError("method must be 'exact' or 'mc'")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if method == "mc":
        if samples is None or seed is None:
            raise ValueError("mc method requires samples and seed")
        if samples < 1:
            raise ValueError(f"mc method needs samples >= 1, got {samples}")


def _derived_seed(seed: int | None, i: int) -> int | None:
    """Seed of term i; None (an exact run) stays None."""
    return None if seed is None else (seed * 1000003 + 17 * i + 1) & 0x7FFFFFFFFFFFFFFF


def _exact_values(g: Graph, terms: dict) -> dict:
    """Exact term values; the tables of the ``prob`` terms are built together."""
    probs = [k for k in terms if terms[k][0] == "prob"]
    vals = dict(zip(probs, exact_probs(g, [terms[k][1] for k in probs])))
    return {k: vals[k] if k in vals else exact_pair(g, *terms[k][1:]) for k in terms}


def _mc_term(g: Graph, spec: tuple, samples, seed) -> tuple[float, float]:
    """(mean, standard error) of one term, from its own sample set."""
    kind, *args = spec
    est = {"prob": mc_prob, "pair": mc_pair}[kind](g, *args, samples, seed)
    return est.mean, est.std_error


def _propagated_se(fn, vals: dict, cov: tuple) -> float:
    """Delta-method error of fn, sqrt(grad' C grad), over the covariance form
    ``cov = (ses, cross)``: the standard errors whose squares are C's diagonal,
    and its entries off the diagonal, keyed by name pairs (k, l) with k < l.
    The diagonal sums first, in term order.  Every term is a probability, and
    grad[k] is the secant of fn over it +- its error, kept inside (0, 1): wider
    than a tangent where fn bends past quadratic, as logs and rates do at small
    counts.  A term fn does not read has secant exactly 0 and adds exact
    zeros, so a caller may pass only the terms fn reads, as scans do.  A term
    at 0 or n hits has a zero Wald error, which bounds nothing, so the result
    is then infinite."""
    ses, cross = cov
    if not all(ses.values()):
        return math.inf
    var = 0.0
    grad = {}
    for k, se in ses.items():
        h = max(min(se, 0.5 * min(vals[k], 1 - vals[k])), 1e-9)
        grad[k] = (fn({**vals, k: min(vals[k] + h, 1 - 1e-12)}) -
                   fn({**vals, k: max(vals[k] - h, 1e-12)})) / (2.0 * h)
        var += (grad[k] * se) ** 2
    for (k, l), c in cross.items():
        var += 2.0 * grad[k] * grad[l] * c
    return math.sqrt(max(var, 0.0))


def _exact_report(check_id: str, graph: str, lhs, rhs, slack, ok: bool,
                  t0: float, note: str | None) -> CheckReport:
    """``holds`` if ok, else ``violated``: each caller keeps its own rule."""
    return CheckReport(check_id, graph, "exact", lhs, rhs, slack,
                       "holds" if ok else "violated", config.DEFAULT_TOL, None, None, None,
                       (time.perf_counter() - t0) * 1e3, note)


def _verdict(check_id: str, g: Graph, lhs, rhs, vals: dict, cov: tuple, method: str,
             *, sigma: float, samples, seed, t0: float,
             note: str | None = None) -> CheckReport:
    """The report on the claim lhs(vals) <= rhs(vals) over term values.

    Exact: ``holds`` iff the slack is at least -``config.DEFAULT_TOL``,
    else ``violated``.
    MC: ``holds`` or ``violated`` only when the slack lies at least sigma
    propagated standard errors from 0, else ``inconclusive``.  The error
    propagates the covariance form ``cov`` (see ``_propagated_se``).
    """
    lo, hi = lhs(vals), rhs(vals)
    slack = hi - lo
    if method == "exact":
        return _exact_report(check_id, g.name, lo, hi, slack, slack >= -config.DEFAULT_TOL,
                             t0, note)
    se = _propagated_se(lambda v: rhs(v) - lhs(v), vals, cov)
    verdict = ("holds" if slack >= sigma * se else
               "violated" if slack <= -sigma * se else "inconclusive")
    return CheckReport(check_id, g.name, method, lo, hi, slack, verdict,
                       None, sigma, samples, seed, (time.perf_counter() - t0) * 1e3, note)


def _evaluate(g: Graph, spec: _Spec, method: str, samples, seed) -> tuple[dict, tuple]:
    """(values, covariance form (ses, cross)) of the spec's terms.

    Exact values have error 0.  Under MC, a spec whose terms are all
    ``prob`` terms draws one sample set, seeded as the first term by sorted
    name, and ``cross`` holds the covariance of every two terms.  Otherwise
    the term i-th by sorted name draws its own set from
    ``_derived_seed(seed, i)``: the covariance is diagonal and ``cross`` is
    empty.
    """
    names = sorted(spec.terms)
    if method == "exact":
        return _exact_values(g, spec.terms), (dict.fromkeys(names, 0.0), {})
    if all(spec.terms[k][0] == "prob" for k in names):
        ests, cov = mc_probs(g, [spec.terms[k][1] for k in names], samples,
                             _derived_seed(seed, 0))
        cross = {(names[i], names[j]): cov[i][j]
                 for i, j in combinations(range(len(names)), 2)}
        return ({k: est.mean for k, est in zip(names, ests)},
                ({k: est.std_error for k, est in zip(names, ests)}, cross))
    vals, ses = {}, {}
    for i, name in enumerate(names):
        vals[name], ses[name] = _mc_term(g, spec.terms[name], samples, _derived_seed(seed, i))
    return vals, (ses, {})


def run_check(check_id: str, g: Graph, params: dict | None = None,
              method: str = "exact", *, samples: int | None = None,
              seed: int | None = None, sigma: float = 3.0) -> CheckReport:
    """Evaluate one named check on one graph and return its report."""
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check id {check_id!r}; known: {', '.join(check_ids() + SCAN_IDS)}")
    _check_args(method, samples, seed, sigma)
    t0 = time.perf_counter()
    spec = _CHECKS[check_id](g, params or {})
    if method == "exact" and any(kind == "pair" for kind, *_ in spec.terms.values()):
        _check_pair_size(g)
    if spec.pre_hypothesis:
        spec.pre_hypothesis()
    vals, cov = _evaluate(g, spec, method, samples, seed)
    if spec.post_hypothesis:
        spec.post_hypothesis(vals)
    return _verdict(check_id, g, spec.lhs, spec.rhs, vals, cov, method, sigma=sigma,
                    samples=samples, seed=seed, t0=t0, note=spec.note)


# ---------------------------------------------------------------------------
# Scalar helpers


def poisson_upper_tail(k: int, lam: float) -> float:
    """P(Poisson(lam) >= k).  Past lam ~ 708 exp(-lam) is no normal float, and
    the terms below k are summed from their logs instead."""
    if k <= 0:
        return 1.0
    if lam <= 0.0:
        return 0.0
    term = math.exp(-lam)
    if term < sys.float_info.min:
        log_lam = math.log(lam)
        return max(0.0, 1.0 - math.fsum(math.exp(i * log_lam - lam - math.lgamma(i + 1))
                                        for i in range(k)))
    acc = term
    for i in range(1, k):
        term *= lam / i
        acc += term
    return max(0.0, 1.0 - acc)


def _bisect(below, lo: float, hi: float) -> float:
    """The point of [lo, hi] where ``below`` turns false: at most 200 halvings,
    and none once the interval stops shrinking, since they would change nothing."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def implied_lambda(k: int, prob: float) -> float:
    """The rate whose Poisson upper tail at k equals prob (bisection).  A rate
    above 1e12, or one whose tail misses prob by more than 1e-10 or 1e-6 * prob
    (a small prob has too few correct digits in 1 minus the lower terms), is
    refused as a limit (``SizeGuardError``)."""
    if k < 1:
        raise ValueError("k must be >= 1 (the tail at 0 is identically 1)")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly between 0 and 1")
    hi = 1.0
    while poisson_upper_tail(k, hi) < prob:
        hi *= 2.0
        if hi > 1e12:
            raise SizeGuardError(f"failed to bracket the implied rate of {prob!r} at k={k}")
    lam = _bisect(lambda x: poisson_upper_tail(k, x) < prob, 0.0, hi)
    miss = abs(poisson_upper_tail(k, lam) - prob)
    if miss > min(1e-10, 1e-6 * prob):
        raise SizeGuardError(f"implied rate of {prob!r} at k={k} did not converge to 6 "
                             f"digits: its tail misses by {miss:.3g}")
    return lam


def alpha3_cubic(t: float) -> float:
    return t ** 3 - 42.0 * t ** 2 + 12.0 * t + 1.0


def alpha3_root() -> float:
    """Unique root of t^3 - 42 t^2 + 12 t + 1 in (0, 1), by bisection."""
    return _bisect(lambda t: alpha3_cubic(t) > 0.0, 0.0, 1.0)  # +1 at 0, -28 at 1


# ---------------------------------------------------------------------------
# Conjecture scans


def scan_conjectures(scan_id: str, g: Graph, params: dict | None = None,
                     method: str = "exact", *, samples: int | None = None,
                     seed: int | None = None, sigma: float = 3.0) -> list:
    """Run a conjecture scan; violations are findings, never assertions.

    Returns one report per scanned index.  Instances that do not meet a
    scan's hypothesis are simply omitted (conj3, per eps), or raise when the
    scanned quantity is degenerate (disjoint-path probability exactly 0 or 1)
    or the graph lacks the marks the scan needs.  Each npaths claim names the
    f[k] it reads and is judged on those alone.  f[k] is 0 past the marks'
    smaller degree, so an nmax beyond it is refused at the first such index,
    at the cost of an nmax just past the degree.
    """
    params = params or {}
    _check_args(method, samples, seed, sigma)
    judge = partial(_verdict, g=g, method=method, sigma=sigma, samples=samples, seed=seed)

    if scan_id == "conj3":
        _need_marks(g, 3)
        out = []
        terms = None  # the terms do not depend on eps: evaluated once
        for eps in params.get("eps_grid", (0.2, 0.3)):
            t0 = time.perf_counter()
            spec = _conj3_spec(g, {"eps": eps})
            terms = terms or _evaluate(g, spec, method, samples, seed)
            try:
                spec.post_hypothesis(terms[0])
            except HypothesisError:
                continue
            out.append(judge(f"conj3_scan#eps={eps:g}", lhs=spec.lhs, rhs=spec.rhs,
                             vals=terms[0], cov=terms[1], t0=t0, note=spec.note))
        return out

    if scan_id not in SCAN_IDS:
        raise ValueError(f"unknown scan id {scan_id!r}")
    nmax = int(params.get("nmax", 3))
    if nmax < 2:
        raise ValueError("scan needs nmax >= 2")
    t0 = time.perf_counter()
    # f[k] = P(k disjoint paths): the terms stop at the first k past an end degree
    top = min(nmax, *(g.degree(v) + 1 for v in g.marks[:2]))
    terms = {k: _paths(g, k) for k in range(1, top + 1)}
    if method == "exact":
        f, ses = _exact_values(g, terms), dict.fromkeys(terms, 0.0)
    else:  # one sample set per k, seeded by k
        f, ses = {}, {}
        for k, term in terms.items():
            f[k], ses[k] = _mc_term(g, term, samples, _derived_seed(seed, k))
    for k in terms:
        if f[k] <= 0.0 or f[k] >= 1.0:
            raise HypothesisError(
                f"disjoint-path probability degenerate at index {k} (got {f[k]})")
    if scan_id == "logconcave":
        claims = [(f"logconcave#sq[n={n}]", (n - 1, n, n + 1),
                   lambda v, n=n: v[n - 1] * v[n + 1], lambda v, n=n: v[n] ** 2)
                  for n in range(2, nmax)]
        claims += [(f"logconcave#ratio[n={n}]", (n, n + 1),
                    lambda v, n=n: math.log(v[n + 1]) / (n + 1),
                    lambda v, n=n: math.log(v[n]) / n) for n in range(1, nmax)]
    else:
        claims = [(f"lambda_monotone#k={k}", (k, k + 1),
                   lambda v, k=k: implied_lambda(k + 1, v[k + 1]),
                   lambda v, k=k: implied_lambda(k, v[k])) for k in range(1, nmax)]
    return [judge(cid, lhs=lhs, rhs=rhs, vals={i: f[i] for i in reads},
                  cov=({i: ses[i] for i in reads}, {}), t0=t0)
            for cid, reads, lhs, rhs in claims]
