"""The built-in verification corpus: every theorem-backed check across a
grid of graph families, plus the conjecture scans, the splice-independence
sweep, and the dual-measure preset verifications.

Exact checks run on dyadic-probability instances small enough to enumerate;
statistical checks run at fixed seeds so a corpus run is reproducible bit
for bit.
"""

from __future__ import annotations

import fnmatch
import functools
import time
from dataclasses import dataclass, field

from . import config
from .checks import (CONJECTURE_CHECKS, CheckReport, _exact_report, run_check,
                     scan_conjectures)
from .errors import HypothesisError
from .exact import verify_splice_independence
from .graphs import Graph, graph_from_spec
from .strategies import parse_strategy
from .zipper import (AdaptiveChoice, BowtieEvent, ProductEvent, SplitChoice,
                     build_preset, check_gen_inequality, check_zipper_condition)
from .events import parse_event

MC_SEED = 20260808

# 3-marked instances small enough for pair enumeration (<= 8 edges)
PAIR_GRAPHS = (
    "family:cycle:3,p=0.25",
    "family:cycle:3,p=0.5",
    "family:cycle:3,p=0.75",
    "family:cycle:4,p=0.5",
    "family:cycle:5,p=0.5",
    "family:theta:3,p=0.5",
    "family:grid:3,2,p=0.5",
    "family:complete:4,p=0.5",
)

# 3-marked instances for probability-level checks
PROB_GRAPHS = PAIR_GRAPHS + (
    "family:cycle:6,p=0.5",
    "family:theta:4,p=0.5",
    "family:grid:3,3,p=0.5",
    "family:complete:4,p=0.25",
    "family:cycle:3,p=0.96875",      # 31/32: tiny two-vs-one probabilities
    "family:cycle:3,p=0.0009765625",  # 2^-10: sparse regime
)

PLANAR3_GRAPHS = tuple(s for s in PROB_GRAPHS if "complete" not in s)

# two-marked planar instances for disjoint-path checks
ARMS_GRAPHS = (
    "family:parallel:2,q=0.5",
    "family:parallel:3,q=0.5",
    "family:parallel:4,q=0.5",
    "family:parallel:5,q=0.5",
    "family:theta:2,p=0.5",
    "family:theta:3,p=0.5",
    "family:theta:4,p=0.5",
    "family:grid:2,3,p=0.5",
    "family:grid:2,4,p=0.5",
)

PAIR_STRATEGIES = (
    "bfs_cluster:a",
    "dfs:a,id,S",
    "dfs_stop_at:a,b,c",
    "seq:[dfs:c,id,S;dfs:a,id,Sbar;dfs:b,id,S]",
    "seq:[dfs:b,id,S;dfs:a,id,Sbar;dfs:c,id,S]",
    "seq:[dfs:a,id,Sbar;dfs:b,id,S;dfs:c,id,S]",
)
PLANAR_STRATEGY = "dfs:a,right_hand,until:c"

PAIR_EVENTS = (
    ("a,b", "b,c"),
    ("a,b,c", "a,b,c"),
    ("a,b", "npaths(a,b,2)"),
)

SPLICE_INSTANCES = tuple(
    (gs, ts) for gs in (
        "family:path:2,p=0.5",
        "family:path:3,p=0.25",
        "family:cycle:3,p=0.5",
        "family:cycle:4,p=0.75",
        "family:parallel:2,p=0.5",
        "family:theta:3,p=0.5",
        "family:cycle:5,p=0.5",
    ) for ts in ("bfs_cluster:a", "dfs:a,id,S")
)


@dataclass
class CorpusEntry:
    check_id: str
    graph_spec: str
    params: dict = field(default_factory=dict)
    method: str = "exact"
    samples: int | None = None
    seed: int | None = None
    kind: str = "check"  # check | scan | splice | zipper_cases | zipper_dir

    @property
    def key(self) -> str:
        extra = ""
        if self.params:
            extra = "#" + ",".join(f"{k}={v}" for k, v in sorted(self.params.items())
                                   if k not in ("strategy", "events"))
            if "strategy" in self.params:
                extra += "#" + str(self.params["strategy"])
            if "events" in self.params:
                extra += "#" + "/".join(self.params["events"])
        return f"{self.check_id}{extra}__{self.graph_spec}"


def corpus_entries() -> list[CorpusEntry]:
    out = []

    for gs, ts in SPLICE_INSTANCES:
        out.append(CorpusEntry("splice_independence", gs,
                               {"strategy": ts}, kind="splice"))

    for gs in PAIR_GRAPHS:
        strategies = PAIR_STRATEGIES
        if "complete" not in gs:
            strategies = strategies + (PLANAR_STRATEGY,)
        for ts in strategies:
            for ev in PAIR_EVENTS:
                out.append(CorpusEntry("hk_tree", gs, {"strategy": ts, "events": ev}))
                out.append(CorpusEntry("vdbk_tree", gs, {"strategy": ts, "events": ev}))

    for gs in PAIR_GRAPHS:
        out.append(CorpusEntry("cs_bound", gs,
                               {"strategy": "dfs_stop_at:a,b,c",
                                "events": ("a,b U a,c", "b,c")}))
        if "complete" not in gs:
            out.append(CorpusEntry("cs_bound", gs,
                                   {"strategy": PLANAR_STRATEGY,
                                    "events": ("a,c", "a,b")}))
        out.append(CorpusEntry("frac1", gs))
        out.append(CorpusEntry("frac2", gs))

    for gs in PLANAR3_GRAPHS:
        out.append(CorpusEntry("planar_dv2", gs))
    for gs in PROB_GRAPHS:
        out.append(CorpusEntry("dv8", gs))
        out.append(CorpusEntry("dv_union", gs))
        out.append(CorpusEntry("q2", gs))
        out.append(CorpusEntry("q2_swapped", gs))
        for eps in (0.2, 0.3):
            out.append(CorpusEntry("conj2_demo", gs, {"eps": eps}))
        out.append(CorpusEntry("conj3", gs, {"eps_grid": (0.2, 0.3)}, kind="scan"))

    for gs in ARMS_GRAPHS:
        out.append(CorpusEntry("arms23", gs))
        out.append(CorpusEntry("arms_klm", gs, {"n": 3, "k": 2, "l": 2, "m": 2}))
        out.append(CorpusEntry("arms_klm", gs, {"n": 3, "k": 3, "l": 2, "m": 1}))
        out.append(CorpusEntry("submult", gs, {"n": 1, "m": 1}))
        out.append(CorpusEntry("submult", gs, {"n": 1, "m": 2}))

    for gs, nmax in (("family:parallel:3,q=0.5", 3), ("family:parallel:4,q=0.5", 4),
                     ("family:parallel:5,q=0.5", 5), ("family:theta:3,p=0.5", 3),
                     ("family:theta:4,p=0.5", 4), ("family:grid:2,4,p=0.5", 2)):
        out.append(CorpusEntry("logconcave", gs, {"nmax": nmax}, kind="scan"))
        out.append(CorpusEntry("lambda_monotone", gs, {"nmax": nmax}, kind="scan"))

    # statistical instances
    out.append(CorpusEntry("planar_dv2", "family:grid:5,5,p=0.5", method="mc",
                           samples=1_000_000, seed=MC_SEED))
    for gs in ("family:grid:5,5,p=0.5", "family:complete:5,p=0.5"):
        out.append(CorpusEntry("dv8", gs, method="mc",
                               samples=200_000, seed=MC_SEED + 1))
        out.append(CorpusEntry("dv_union", gs, method="mc",
                               samples=200_000, seed=MC_SEED + 2))
    out.append(CorpusEntry("submult", "family:grid:2,6,p=0.7", {"n": 1, "m": 1},
                           method="mc", samples=50_000, seed=MC_SEED + 3))
    out.append(CorpusEntry("logconcave", "family:grid:2,6,p=0.7", {"nmax": 2},
                           method="mc", samples=50_000, seed=MC_SEED + 4, kind="scan"))
    out.append(CorpusEntry("lambda_monotone", "family:grid:2,6,p=0.7", {"nmax": 2},
                           method="mc", samples=50_000, seed=MC_SEED + 5, kind="scan"))

    # dual-measure preset verification
    for preset, p in (("strongbk", 0.5), ("strongbk", 0.25), ("colored", None),
                      ("richards", None), ("hk", 0.5), ("vdbk", 0.5)):
        pid = preset if p is None else f"{preset}(p={p:g})"
        out.append(CorpusEntry(f"zipper_cases_{pid}", "-", {"preset": preset, "p": p},
                               kind="zipper_cases"))
    for preset, p, gs in (("strongbk", 0.5, "family:path:2,p=0.5"),
                          ("strongbk", 0.5, "family:cycle:3,p=0.5"),
                          ("strongbk", 0.25, "family:parallel:2,p=0.5"),
                          ("vdbk", 0.5, "family:path:2,p=0.5"),
                          ("vdbk", 0.5, "family:cycle:3,p=0.5"),
                          ("colored", None, "family:path:2,p=0.5"),
                          ("colored", None, "family:path:1,p=0.5"),
                          ("richards", None, "family:path:2,p=0.5"),
                          ("richards", None, "family:path:1,p=0.5"),
                          ("hk", 0.5, "family:path:2,p=0.5")):
        pid = preset if p is None else f"{preset}(p={p:g})"
        out.append(CorpusEntry(f"zipper_dir_{pid}", gs, {"preset": preset, "p": p},
                               kind="zipper_dir"))
    return out


# exact preset case tables: (preset, symbol sets, expected mu1/mu2 values)
def _expected_cases(preset: str, p: float | None):
    pairs = ("00", "01", "10", "11")
    if preset == "hk":
        return [((), (), 0.0, 0.0),
                (("11",), ("11",), p * p, p),
                (("10", "11"), ("11",), p, p),
                (pairs, ("00", "11"), 1.0, 1.0)]
    if preset == "vdbk":
        return [((), (), 0.0, 0.0),
                (("1",), ("11",), p, p * p),
                (("1",), ("01", "10", "11"), p, 1.0 - (1.0 - p) ** 2),
                (("0", "1"), pairs, 1.0, 1.0)]
    if preset == "strongbk":
        return [((), (), 0.0, 0.0),
                (("2",), ("11",), p * p, p * p),
                (("1", "2"), ("01", "11"), p, p),
                (("0", "1", "2"), pairs, 1.0, 1.0)]
    if preset == "colored":
        top = ("111",)
        two = ("111", "110")
        four = ("111", "110", "101", "100")
        allsyms = tuple(f"{i:03b}" for i in range(8))
        return [((), (), 0.0, 0.0),
                ((), top, 0.0, 1 / 8),
                (("110",), two, 1 / 4, 1 / 4),
                (("110", "101"), four, 1 / 2, 1 / 2),
                (("000", "011", "101", "110"), allsyms, 1.0, 1.0)]
    if preset == "richards":
        allsyms = tuple(f"{i:03b}" for i in range(8))
        return [((), (), 0.0, 0.0),
                (("111",), ("111",), 9 / 24, 6 / 24),
                (("111", "110"), ("111", "110"), 10 / 24, 8 / 24),
                (("111", "110", "101", "100"), ("111", "110", "101", "100"),
                 12 / 24, 12 / 24),
                (allsyms, allsyms, 1.0, 1.0)]
    raise ValueError(f"no case table for preset {preset!r}")


def _run_zipper_cases(entry: CorpusEntry) -> CheckReport:
    t0 = time.perf_counter()
    tol = config.DEFAULT_TOL
    ds = build_preset(entry.params["preset"], entry.params.get("p"))
    worst = 0.0
    for x1, x2, want1, want2 in _expected_cases(ds.name, ds.p):
        worst = max(worst, abs(ds.measure1(x1) - want1), abs(ds.measure2(x2) - want2))
    return _exact_report(entry.check_id, "-", worst, tol, tol - worst, worst <= tol,
                         t0, "preset case-table reproduction")


def _run_zipper_dir(entry: CorpusEntry, g: Graph) -> CheckReport:
    t0 = time.perf_counter()
    ds = build_preset(entry.params["preset"], entry.params.get("p"))
    a, b = g.marks[0], g.marks[1]
    ab = parse_event(f"{a},{b}")
    if ds.caps is not None:
        def factory(gg):
            return BowtieEvent(gg, [(ab, ab)], ds.caps)
    else:
        def factory(gg):
            return ProductEvent(gg, (ab, ab) if ds.name == "hk" else (ab, ab, ab))
    mid = SplitChoice(g.edge_ids[: max(1, g.n_edges // 2)])
    rep = check_gen_inequality(g, ds, mid, factory)
    cond = check_zipper_condition(ds, factory, g)
    rep2 = check_gen_inequality(g, ds, AdaptiveChoice(ds.union_symbols[:1]), factory)
    ok = rep.ok and cond.ok and rep2.ok
    # two-factor projections agree across trees only for the colored preset
    extras = rep.extras.get("two_factor_max_delta") if ds.name == "colored" else None
    if extras is not None and extras > config.DEFAULT_TOL:
        ok = False
    slack = min(rep.slack_low, rep.slack_high, cond.worst_slack,
                rep2.slack_low, rep2.slack_high)
    note = f"three-point: {rep.p_all1:.6g} / {rep.p_mid:.6g} / {rep.p_all2:.6g}"
    if extras is not None:
        note += f"; two-factor delta {extras:.3g}"
    return _exact_report(entry.check_id, g.name, None, None, slack, ok, t0, note)


def _run_splice(entry: CorpusEntry, g: Graph) -> CheckReport:
    t0 = time.perf_counter()
    tol = config.DEFAULT_TOL
    t = parse_strategy(entry.params["strategy"])
    dev = verify_splice_independence(g, t)
    return _exact_report("splice_independence", g.name, dev, tol, tol - dev, dev <= tol,
                         t0, f"strategy {entry.params['strategy']}")


def run_entry(entry: CorpusEntry, get_graph=None):
    """Execute one corpus entry; returns a list of reports (scans fan out)."""
    get_graph = get_graph or graph_from_spec
    if entry.kind == "zipper_cases":
        return [_run_zipper_cases(entry)]
    g = get_graph(entry.graph_spec)
    if entry.kind == "zipper_dir":
        return [_run_zipper_dir(entry, g)]
    if entry.kind == "splice":
        return [_run_splice(entry, g)]
    if entry.kind == "scan":
        return scan_conjectures(entry.check_id, g, entry.params, entry.method,
                                samples=entry.samples, seed=entry.seed)
    return [run_check(entry.check_id, g, entry.params, entry.method,
                      samples=entry.samples, seed=entry.seed)]


def is_conjecture(check_id: str) -> bool:
    return check_id.split("#", 1)[0] in CONJECTURE_CHECKS


def run_corpus(filter_glob: str | None = None, echo=None):
    """Run the corpus (optionally filtered); returns (reports, skips, ok).

    ok is False when any theorem-backed check is violated or any conjecture
    scan produced a finding.  Instances whose hypotheses fail are skipped and
    listed separately.
    """
    reports: list[CheckReport] = []
    skips: list[str] = []
    get_graph = functools.cache(graph_from_spec)
    for entry in corpus_entries():
        if filter_glob and not fnmatch.fnmatch(entry.check_id, filter_glob):
            continue
        try:
            reps = run_entry(entry, get_graph)
        except HypothesisError as exc:
            skips.append(f"{entry.key}: {exc}")
            continue
        for r in reps:
            reports.append(r)
            if echo:
                echo(f"{r.verdict:12s} {r.check_id:28s} {r.graph}")
    ok = all(r.verdict != "violated" for r in reports)
    return reports, skips, ok
