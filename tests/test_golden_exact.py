"""Exact values compared with ``==`` against recorded values.

``golden_exact.json`` was recorded from the exact engine that summed Python
lists of weights and looped over witness splits in Python.  Every exact sum
is ``math.fsum`` over the same set of floats, so any later engine must give
the same bits, not merely close values.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from percolab import (exact_npaths, exact_pair, exact_prob, graph_from_spec,
                      parse_event, parse_strategy, verify_splice_independence)
from percolab.corpus import (PAIR_EVENTS, PAIR_STRATEGIES, PLANAR_STRATEGY,
                             SPLICE_INSTANCES, corpus_entries)
from percolab.exact import Joint, SqS
from percolab.strategies import S, Strategy
from percolab.zipper import (AdaptiveChoice, BowtieEvent, ProductEvent, SplitChoice,
                             build_preset, check_gen_inequality, check_zipper_condition)

GOLDEN = Path(__file__).with_name("golden_exact.json")


class _FromC2(Strategy):
    """Queries e0; continues to e1 only when e0 is open in c2."""
    name = "fromc2"
    uses_c2 = True

    def policy(self, g):
        _b1, b2 = yield (g.edge_ids[0], S)
        if b2:
            _ = yield (g.edge_ids[1], S)


PAIR_GRAPHS = ("family:cycle:3,p=0.75", "family:cycle:4,p=0.5",
               "family:theta:3,p=0.3", "family:grid:3,2,p=0.3", "family:grid:4,2,p=0.3")
C2_GRAPHS = ("family:cycle:3,p=0.5", "family:theta:3,p=0.3")
BIG_GRAPHS = ("family:grid:3,4,p=0.3", "family:cycle:18,p=0.3", "family:grid:2,7,p=0.3")
PROB_EVENTS = ("a,b", "a,b,c", "a|b|c", "a,b U a,c", "npaths(a,b,2)")


def pair_values() -> dict:
    out = {}
    cases = [(gs, ts, parse_strategy(ts)) for gs in PAIR_GRAPHS
             for ts in PAIR_STRATEGIES + (PLANAR_STRATEGY,)]
    cases += [(gs, "fromc2", _FromC2()) for gs in C2_GRAPHS]
    for gs, ts, t in cases:
        g = graph_from_spec(gs)
        for a, b in PAIR_EVENTS:
            A, B = parse_event(a), parse_event(b)
            for q in (Joint(A, B), SqS(A, B)):
                out[f"{type(q).__name__}/{ts}/{a}/{b}@{gs}"] = exact_pair(g, t, q)
    return out


def splice_values() -> dict:
    cases = [(gs, ts, parse_strategy(ts)) for gs, ts in SPLICE_INSTANCES]
    cases += [(gs, ts, parse_strategy(ts))
              for gs in ("family:cycle:9,p=0.5", "family:cycle:9,p=0.3",
                         "family:theta:3,p=0.3", "family:grid:3,2,p=0.3")
              for ts in ("dfs:a,id,S", "bfs_cluster:a")]
    cases += [(gs, "fromc2", _FromC2()) for gs in C2_GRAPHS]
    return {f"{ts}@{gs}": verify_splice_independence(graph_from_spec(gs), t)
            for gs, ts, t in cases}


def prob_values() -> dict:
    out = {}
    for gs in BIG_GRAPHS:
        g = graph_from_spec(gs)
        for text in PROB_EVENTS:
            out[f"prob/{text}@{gs}"] = exact_prob(g, parse_event(text))
        for n in (1, 2, 3):
            out[f"npaths/{n}@{gs}"] = exact_npaths(g, "a", "b", n)
    return out


def zipper_values() -> dict:
    """The GenReports and condition report of every corpus zipper case."""
    out = {}
    for entry in corpus_entries():
        if entry.kind != "zipper_dir":
            continue
        g = graph_from_spec(entry.graph_spec)
        ds = build_preset(entry.params["preset"], entry.params["p"])
        ab = parse_event(f"{g.marks[0]},{g.marks[1]}")
        if ds.caps is not None:
            def factory(gg, ds=ds, ab=ab):
                return BowtieEvent(gg, [(ab, ab)], ds.caps)
        else:
            def factory(gg, ds=ds, ab=ab):
                return ProductEvent(gg, (ab, ab) if ds.name == "hk" else (ab, ab, ab))
        mid = SplitChoice(g.edge_ids[: max(1, g.n_edges // 2)])
        adaptive = AdaptiveChoice(ds.union_symbols[:1])
        out[f"{entry.key}/mid"] = asdict(check_gen_inequality(g, ds, mid, factory))
        out[f"{entry.key}/adaptive"] = asdict(check_gen_inequality(g, ds, adaptive, factory))
        cond = check_zipper_condition(ds, factory, g)
        out[f"{entry.key}/condition"] = [cond.ok, cond.worst_slack]
    return out


GROUPS = {"pair": pair_values, "splice": splice_values, "prob": prob_values,
          "zipper": zipper_values}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_exact_values_bit_identical(group):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[group]
    got = json.loads(json.dumps(GROUPS[group]()))  # tuples to lists, as recorded
    assert got == want
