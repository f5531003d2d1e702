"""Strategy traces compared against recorded fingerprints.

For every (graph, strategy) pair, ``golden_traces.json`` holds one sha256
over the ``(edge, decision, bit1, bit2)`` steps of the runs on every c1 mask,
each paired with a c2 derived from it.  Where building or running the
strategy raises, it holds the error type and message instead.  Run this file
as a script to re-record the fingerprints.
"""

import hashlib
import json
from pathlib import Path

import pytest

from percolab import (Configuration, PercolabError, extend_with_rest, graph_from_spec,
                      parse_strategy, run, verify_continuation)
from percolab.strategies import S, SBAR

GOLDEN = Path(__file__).with_name("golden_traces.json")

GRAPHS = ("family:cycle:4,p=0.5", "family:grid:3,2,p=0.5", "family:theta:3,p=0.5",
          "family:parallel:3,q=0.5", "family:grid:3,3,p=0.5")

SPECS = (
    ("stop", "reveal_all:S", "reveal_all:Sbar", "bfs_cluster:a")
    + tuple(f"dfs:a,{order},{dec}" for order in ("id", "right_hand", "left_hand")
            for dec in ("S", "Sbar", "until:b", "untilany:b+c"))
    + ("dfs_stop_at:a,b,c",
       "seq:[dfs:c,id,S;dfs:a,id,Sbar;dfs:b,id,S]",
       "seq:[dfs:a,right_hand,until:b;dfs:b,left_hand,Sbar;dfs:a,id,S]")
    + tuple(f"rhw_walks:a,b,{k}" for k in range(4))
)
# extend_with_rest has no spec text: (base spec, decision of the rest)
EXTENDED = (("bfs_cluster:a", SBAR), ("dfs:a,right_hand,until:b", S))


def _cases():
    for spec in SPECS:
        yield spec, lambda spec=spec: parse_strategy(spec)
    for base, dec in EXTENDED:
        yield f"extend_with_rest({base},{dec})", \
            lambda base=base, dec=dec: extend_with_rest(parse_strategy(base), dec)


def fingerprint(g, build) -> str:
    full = (1 << g.n_edges) - 1
    h = hashlib.sha256()
    try:
        t = build()
        for m1 in range(1 << g.n_edges):
            m2 = (m1 * 0x9E3779B1 + 0x7F4A7C15) & full
            for st in run(t, g, Configuration(g, m1), Configuration(g, m2)).steps:
                h.update(f"{st.edge},{st.decision},{st.bit1:d}{st.bit2:d};".encode())
            h.update(b"|")
    except PercolabError as exc:
        return f"{type(exc).__name__}: {exc}"
    return h.hexdigest()


def fingerprints(gs: str) -> dict:
    g = graph_from_spec(gs)
    return {name: fingerprint(g, build) for name, build in _cases()}


@pytest.mark.parametrize("gs", GRAPHS)
def test_catalog_traces_unchanged(gs):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[gs]
    assert fingerprints(gs) == want



@pytest.mark.parametrize("gs", GRAPHS)
def test_rest_into_sbar_keeps_s_and_continues(gs):
    # why cs_bound runs on its prefix: extending it into Sbar leaves S alone
    g = graph_from_spec(gs)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[gs]
    full = (1 << g.n_edges) - 1
    for spec in SPECS:
        if ":" in want[spec]:  # an error message: the strategy does not run here
            continue
        t = parse_strategy(spec)
        ext = extend_with_rest(t, SBAR)
        for m1 in range(1 << g.n_edges):
            c1 = Configuration(g, m1)
            c2 = Configuration(g, (m1 * 0x9E3779B1 + 0x7F4A7C15) & full)
            assert run(ext, g, c1, c2).s_mask(g) == run(t, g, c1, c2).s_mask(g), (spec, m1)
        assert verify_continuation(t, ext, g), spec

if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({gs: fingerprints(gs) for gs in GRAPHS}, indent=1,
                                 sort_keys=True) + "\n", encoding="utf-8")
