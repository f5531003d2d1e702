import dataclasses
import json

import pytest
from click.testing import CliRunner

from percolab import Configuration, clusters, generate, graph_from_spec
from percolab.checks import CheckReport
from percolab import corpus
from percolab.corpus import corpus_entries, is_conjecture, run_corpus, run_entry
from percolab.exact import verify_splice_independence
from percolab.strategies import S, Strategy


def _bfs_components(g, mask):
    """Independent component computation for cross-checking clusters()."""
    seen = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop()
            for e in g.incident[v]:
                if not mask >> g.edge_index(e) & 1:
                    continue
                w = g.other_end(e, v)
                if w not in comp:
                    comp.add(w)
                    seen.add(w)
                    queue.append(w)
        comps.append(comp)
    return sorted(comps, key=min)


def test_clusters_match_bfs_oracle():
    for spec in ("family:cycle:4,p=0.5", "family:theta:3,p=0.5",
                 "family:grid:3,2,p=0.5"):
        g = graph_from_spec(spec)
        for mask in range(1 << g.n_edges):
            assert clusters(g, Configuration(g, mask)) == _bfs_components(g, mask)


def test_splice_independence_general_path():
    class FromC2(Strategy):
        name = "fromc2"
        uses_c2 = True

        def policy(self, g):
            _b1, b2 = yield (g.edge_ids[0], S)
            if b2:
                _ = yield (g.edge_ids[1], S)

    g = generate("cycle", 3, p=0.5)
    assert verify_splice_independence(g, FromC2()) <= 1e-12


def test_corpus_entry_keys_unique():
    keys = [e.key for e in corpus_entries()]
    assert len(keys) == len(set(keys))


def test_is_conjecture_classification():
    assert is_conjecture("conj3_scan#eps=0.2")
    assert is_conjecture("logconcave#sq[n=2]")
    assert is_conjecture("lambda_monotone#k=1")
    assert not is_conjecture("hk_tree")
    assert not is_conjecture("dv8")


def test_filtered_corpus_all_theorem_checks_hold():
    reports, skips, ok = run_corpus("frac*")
    assert ok and len(reports) == 16
    assert all(r.verdict == "holds" for r in reports)


def test_every_listed_preset_has_a_case_table(monkeypatch):
    entries = [e for e in corpus_entries() if e.kind == "zipper_cases"]
    assert {e.params["preset"] for e in entries} == \
        {"hk", "vdbk", "strongbk", "colored", "richards"}
    for e in entries:
        [rep] = run_entry(e)
        assert rep.verdict == "holds" and rep.lhs == 0.0, e.key
    # moving mass 0.01 from the last first-measure symbol to the first
    # breaks a case of every table
    build = corpus.build_preset

    def perturbed(name, p=None):
        ds = build(name, p)
        mu1 = (ds.mu1[0] + 0.01,) + ds.mu1[1:-1] + (ds.mu1[-1] - 0.01,)
        return dataclasses.replace(ds, mu1=mu1)

    monkeypatch.setattr(corpus, "build_preset", perturbed)
    for e in entries:
        [rep] = run_entry(e)
        assert rep.verdict == "violated" and rep.lhs > 0.005, e.key


def test_cli_exits_one_on_violation(monkeypatch):
    # the exit-code contract for a violated check, via an injected report
    from percolab import cli

    fake = CheckReport("hk_tree", "g", "exact", 1.0, 0.5, -0.5, "violated",
                       1e-12, None, None, None, 0.0, None)

    monkeypatch.setattr(cli, "run_corpus", lambda f, e: ([fake], [], False))
    res = CliRunner().invoke(cli.main, ["corpus", "run", "--quiet"])
    assert res.exit_code == 1

    monkeypatch.setattr(cli, "run_check",
                        lambda *a, **k: fake)
    res2 = CliRunner().invoke(cli.main, ["check", "hk_tree", "--graph",
                                         "family:cycle:3,p=0.5",
                                         "--strategy", "bfs_cluster:a",
                                         "--events", "a,b", "b,c"])
    assert res2.exit_code == 1
    assert json.loads(res2.output)[0]["verdict"] == "violated"


def test_conjecture_finding_exits_one(monkeypatch):
    from percolab import cli

    finding = CheckReport("conj3_scan#eps=0.2", "g", "exact", 0.5, 0.2, -0.3,
                          "violated", 1e-12, None, None, None, 0.0, None)
    monkeypatch.setattr(cli, "run_corpus", lambda f, e: ([finding], [], True))
    res = CliRunner().invoke(cli.main, ["corpus", "run", "--quiet"])
    assert res.exit_code == 1
    assert "conjecture findings: 1" in res.output


@pytest.mark.parametrize("preset", ["nope", "HK", ""])
def test_case_table_refuses_unknown_preset(preset):
    with pytest.raises(ValueError, match=f"no case table for preset '{preset}'"):
        corpus._expected_cases(preset, 0.5)


def test_zipper_dir_violated_by_two_factor_delta(monkeypatch):
    """A colored two-factor delta above the tolerance turns a zipper_dir
    report violated, although the three-point comparison holds."""
    [entry] = [e for e in corpus_entries() if e.key.startswith("zipper_dir_colored")
               and e.graph_spec == "family:path:2,p=0.5"]
    [rep] = run_entry(entry)
    assert rep.verdict == "holds" and "two-factor delta" in rep.note
    real = corpus.check_gen_inequality

    def drifting(*args, **kwargs):
        rep = real(*args, **kwargs)
        if "two_factor_max_delta" in rep.extras:
            rep.extras["two_factor_max_delta"] = 1e-6
        return rep

    monkeypatch.setattr(corpus, "check_gen_inequality", drifting)
    [rep] = run_entry(entry)
    assert rep.verdict == "violated" and "two-factor delta 1e-06" in rep.note
