import json
import time

import pytest
from click.testing import CliRunner

from percolab import config, exact_prob, graph_from_spec, mc_prob, parse_event, run_check
from percolab.cli import main
from percolab.corpus import corpus_entries

TRIANGLE = """vertex a
vertex b
vertex c
edge ab a b 0.5
edge bc b c 0.5
edge ca c a 0.5
mark a b c
"""


@pytest.fixture
def runner():
    return CliRunner()


def test_check_dv8_exact(runner):
    res = runner.invoke(main, ["check", "dv8", "--graph", "family:cycle:3,p=0.5",
                               "--method", "exact"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)[0]
    assert rep["verdict"] == "holds"
    assert abs(rep["slack"] - 1.703125) < 1e-9
    assert set(rep) == {"check_id", "graph", "method", "lhs", "rhs", "slack",
                        "verdict", "tolerance", "sigma", "samples", "seed",
                        "runtime_ms", "note"}


def test_check_arms23(runner):
    res = runner.invoke(main, ["check", "arms23", "--graph",
                               "family:parallel:3,q=0.5", "--method", "exact"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("check_id, spec, flag, params", [
    ("arms_klm", "family:parallel:3,q=0.5", "--arms", {"n": 3, "k": 2, "l": 2, "m": 2}),
    ("submult", "family:grid:2,3,p=0.5", "--nm", {"n": 1, "m": 2}),
])
def test_arms_and_nm_options_are_the_check_parameters(runner, check_id, spec, flag, params):
    res = runner.invoke(main, ["check", check_id, "--graph", spec, flag,
                               *map(str, params.values())])
    assert res.exit_code == 0, res.output
    got, = json.loads(res.output)
    want = run_check(check_id, graph_from_spec(spec), params).to_dict()
    del got["runtime_ms"], want["runtime_ms"]
    assert got == want


def test_check_reads_graph_file(runner, tmp_path):
    f = tmp_path / "tri.graph"
    f.write_text(TRIANGLE)
    res = runner.invoke(main, ["check", "dv8", "--graph", str(f)])
    assert res.exit_code == 0, res.output


def test_malformed_file_exits_2(runner, tmp_path):
    f = tmp_path / "bad.graph"
    f.write_text("vertex a\nvertex b\nedge ab a b 2.0\nmark a b\n")
    res = runner.invoke(main, ["check", "dv8", "--graph", str(f)])
    assert res.exit_code == 2
    res2 = runner.invoke(main, ["check", "dv8", "--graph", str(tmp_path / "no.graph")])
    assert res2.exit_code == 2
    res3 = runner.invoke(main, ["check", "dv8", "--graph", str(tmp_path)])  # a directory
    assert res3.exit_code == 2


def test_size_guard_exits_3(runner):
    res = runner.invoke(main, ["check", "dv8", "--graph", "family:grid:5,5,p=0.5",
                               "--method", "exact"])
    assert res.exit_code == 3


def test_samples_past_the_cap_exit_3_at_once(runner):
    t0 = time.perf_counter()
    res = runner.invoke(main, ["estimate", "--graph", "family:cycle:3,p=0.5", "--event", "a,b",
                               "--method", "mc", "--samples", "1000000000000", "--seed", "1"])
    assert res.exit_code == 3, res.output
    assert "size guard" in res.output
    assert time.perf_counter() - t0 < 1.0


_VDBK_GRID55 = ["check", "vdbk_tree", "--graph", "family:grid:5,5,p=0.5",
                "--events", "a,b", "b,c", "--method", "mc", "--seed", "5"]


@pytest.mark.parametrize("strategy, lhs", [("bfs_cluster:a", 0.015),
                                           ("dfs_stop_at:a,b,c", 0.022),
                                           ("dfs:a,right_hand,until:c", 0.016)])
def test_mc_vdbk_tree_on_grid_5_5_exits_0(runner, strategy, lhs):
    # samples with up to about 30 open edges in S: the witness search decides
    # every one of them within its node budget
    res = runner.invoke(main, _VDBK_GRID55 + ["--strategy", strategy, "--samples", "1000"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)[0]
    assert rep["lhs"] == lhs
    assert rep["verdict"] in ("holds", "inconclusive")


def test_witness_search_past_its_node_budget_exits_3(runner, monkeypatch):
    monkeypatch.setattr(config, "MAX_WITNESS_NODES", 1)
    res = runner.invoke(main, _VDBK_GRID55 + ["--strategy", "bfs_cluster:a",
                                              "--samples", "200"])
    assert res.exit_code == 3, res.output
    assert "witness search needs more than 1 nodes" in res.output


def test_mc_npaths_on_84_edges_exits_0(runner):
    res = runner.invoke(main, ["estimate", "--graph", "family:grid:7,7,p=0.5",
                               "--event", "npaths(a,b,1)", "--method", "mc",
                               "--samples", "100", "--seed", "3"])
    assert res.exit_code == 0
    assert 0.0 <= json.loads(res.output)["probability"] <= 1.0


@pytest.mark.parametrize("text, want", [("npaths(a,b,1000000000)", 0.0),
                                         ("npaths(a,a,1000000000)", 1.0)])
def test_npaths_with_huge_n_is_immediate(runner, text, want):
    # flow levels stop at the smaller end degree: no level is built per n
    g = graph_from_spec("family:grid:2,3,p=0.5")
    e = parse_event(text)
    start = time.perf_counter()
    assert mc_prob(g, e, 1000, 1).mean == want
    assert exact_prob(g, e) == want
    res = runner.invoke(main, ["estimate", "--graph", "family:grid:2,3,p=0.5",
                               "--event", text, "--method", "mc",
                               "--samples", "1000", "--seed", "1"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["probability"] == want
    assert time.perf_counter() - start < 1.0


def test_hypothesis_error_exits_2(runner):
    res = runner.invoke(main, ["check", "planar_dv2", "--graph",
                               "family:complete:4,p=0.5"])
    assert res.exit_code == 2



@pytest.mark.parametrize("method", [["--method", "exact"],
                                    ["--method", "mc", "--samples", "200", "--seed", "1"]])
@pytest.mark.parametrize("spec", ["bfs_cluster:zz", "dfs:zz,id,S",
                                  "seq:[dfs:a,id,S;dfs:zz,id,S]"])
@pytest.mark.parametrize("check", ["hk_tree", "vdbk_tree"])
def test_unknown_start_vertex_exits_2(runner, check, spec, method):
    res = runner.invoke(main, ["check", check, "--graph", "family:cycle:3,p=0.5",
                               "--strategy", spec, "--events", "a,b", "b,c", *method])
    assert res.exit_code == 2, res.output
    assert "unknown start vertex 'zz'" in res.output


def test_mc_pair_on_a_1500_edge_open_path_exits_0(runner):
    # the depth-first pass walks all 1500 edges before it reaches b
    res = runner.invoke(main, ["check", "hk_tree", "--graph", "family:path:1500,p=0.999",
                               "--strategy", "dfs:a,id,until:b", "--events", "a,b", "a,b",
                               "--method", "mc", "--samples", "10", "--seed", "1"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("event", ["(" * 400 + "a,b" + ")" * 400, "!" * 2000 + "a,b"])
def test_event_nested_past_the_parser_bound_exits_2(runner, event):
    res = runner.invoke(main, ["estimate", "--graph", "family:cycle:3,p=0.5",
                               "--event", event])
    assert res.exit_code == 2, res.output
    assert "more than 100 nested '(' or '!' (at position 100)" in res.output


def test_conj3_scan_without_three_marks_exits_2(runner):
    res = runner.invoke(main, ["check", "conj3", "--graph", "family:parallel:3,q=0.5"])
    assert res.exit_code == 2
    assert "check needs 3 marked vertices, graph has 2" in res.output

def test_unknown_check_exits_2(runner):
    res = runner.invoke(main, ["check", "wat", "--graph", "family:cycle:3,p=0.5"])
    assert res.exit_code == 2


def test_mc_without_seed_exits_2(runner):
    res = runner.invoke(main, ["check", "dv8", "--graph", "family:cycle:3,p=0.5",
                               "--method", "mc", "--samples", "1000"])
    assert res.exit_code == 2


_HK_STOP = ["check", "hk_tree", "--graph", "family:cycle:4,p=0.5", "--strategy", "stop",
            "--events", "a,b", "b,c", "--method", "mc", "--samples", "2000", "--seed", "1"]


def test_mc_sigma_exit_codes(runner):
    # slack -0.0082 at 2000 samples: inconclusive at the default sigma; a
    # non-positive sigma would turn noise into a verdict, so it is refused
    res = runner.invoke(main, _HK_STOP)
    assert res.exit_code == 0
    assert json.loads(res.output)[0]["verdict"] == "inconclusive"
    for sigma in ("0", "-3"):
        res = runner.invoke(main, _HK_STOP + ["--sigma", sigma])
        assert res.exit_code == 2, res.output
        assert "sigma must be > 0" in res.output


def test_mc_zero_samples_exits_2(runner):
    res = runner.invoke(main, _HK_STOP[:-4] + ["--samples", "0", "--seed", "1"])
    assert res.exit_code == 2, res.output
    assert "samples >= 1" in res.output


def test_cs_bound_mc_on_large_graph_exits_3(runner):
    res = runner.invoke(main, ["check", "cs_bound", "--graph", "family:grid:5,5,p=0.5",
                               "--strategy", "dfs_stop_at:a,b,c",
                               "--events", "a,b U a,c", "b,c", "--method", "mc",
                               "--samples", "100", "--seed", "1"])
    assert res.exit_code == 3, res.output


@pytest.mark.parametrize("graph, refining, message", [
    ("family:cycle:4,p=0.5", "a,b|c", "the refining event must be monotone"),
    ("family:cycle:4,p=0", "b,c", "conditioning event has probability zero"),
])
def test_cs_bound_hypothesis_errors_exit_2(runner, graph, refining, message):
    res = runner.invoke(main, ["check", "cs_bound", "--graph", graph,
                               "--strategy", "dfs_stop_at:a,b,c",
                               "--events", "a,b U a,c", refining])
    assert res.exit_code == 2, res.output
    assert message in res.output


def test_estimate_exact(runner):
    res = runner.invoke(main, ["estimate", "--graph", "family:cycle:3,p=0.5",
                               "--event", "a,b,c", "--method", "exact"])
    assert res.exit_code == 0
    assert json.loads(res.output)["probability"] == 0.5


def test_estimate_path_series(runner):
    res = runner.invoke(main, ["estimate", "--graph", "family:path:2,p=0.3",
                               "--event", "a,b"])
    assert abs(json.loads(res.output)["probability"] - 0.09) < 1e-12


def test_estimate_mc_deterministic(runner):
    args = ["estimate", "--graph", "family:cycle:3,p=0.5", "--event", "a,b",
            "--method", "mc", "--samples", "50000", "--seed", "42"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def test_estimate_lambda(runner):
    res = runner.invoke(main, ["estimate", "--graph", "family:parallel:3,q=0.5",
                               "--event", "npaths(a,b,2)", "--lambda", "2"])
    data = json.loads(res.output)
    assert data["probability"] == pytest.approx(0.5, abs=1e-9)
    assert data["implied_lambda"] > 0


def test_estimate_lambda_past_normal_exp(runner):
    # the rate passes 708, where exp(-lam) is no normal float, so the bisection
    # converges only on a tail summed from the logs of its terms
    from scipy.special import gammaincinv
    res = runner.invoke(main, ["estimate", "--graph", "family:cycle:3,p=0.5",
                               "--event", "a,b", "--lambda", "1000"])
    assert res.exit_code == 0, res.output
    want = float(gammaincinv(1000, 0.625))
    assert json.loads(res.output)["implied_lambda"] == pytest.approx(want, abs=1e-6)


def test_check_csv_matches_json(runner):
    argsj = ["check", "q2", "--graph", "family:cycle:3,p=0.5", "--out", "json"]
    argsc = ["check", "q2", "--graph", "family:cycle:3,p=0.5", "--out", "csv"]
    js = json.loads(runner.invoke(main, argsj).output)[0]
    csv_out = runner.invoke(main, argsc).output.splitlines()
    import csv as csvmod
    row = next(csvmod.DictReader(csv_out))
    assert float(row["lhs"]) == js["lhs"]
    assert float(row["rhs"]) == js["rhs"]
    assert row["verdict"] == js["verdict"]


def test_check_csv_of_no_report_is_the_header(runner):
    # conj3 on a triangle meets its hypothesis at no eps: no report, exit 0
    res = runner.invoke(main, ["check", "conj3", "--graph", "family:cycle:3,p=0.5",
                               "--eps", "0.2", "--out", "csv"])
    assert res.exit_code == 0, res.output
    assert res.output.splitlines() == [
        "check_id,graph,method,lhs,rhs,slack,verdict,tolerance,sigma,samples,seed,"
        "runtime_ms,note"]


@pytest.mark.parametrize("grid, code", [("3,4", 0), ("5,5", 3)])
def test_non_syntactic_event_settled_by_table_or_refused(runner, grid, code):
    # 17 edges: a truth table shows a,b|c U a,b,c increasing; 40 edges: no
    # table, so the monotonicity test is a size guard, not a verdict of "none"
    res = runner.invoke(main, ["check", "hk_tree", "--graph", f"family:grid:{grid},p=0.5",
                               "--method", "mc", "--samples", "100", "--seed", "1",
                               "--strategy", "bfs_cluster:a",
                               "--events", "a,b|c U a,b,c", "b,c"])
    assert res.exit_code == code, res.output
    if code == 3:
        assert "first event a,b|c U a,b,c" in res.output


def test_corpus_filtered_run(runner, tmp_path):
    res = runner.invoke(main, ["corpus", "run", "--filter", "q2*", "--quiet",
                               "--out", str(tmp_path / "r")])
    assert res.exit_code == 0, res.output
    files = sorted((tmp_path / "r").glob("*.json"))
    assert files
    rows = json.loads(files[0].read_text())
    assert rows[0]["verdict"] == "holds"


def test_corpus_out_onto_a_file_exits_2_before_the_run(runner, tmp_path):
    f = tmp_path / "taken"
    f.write_text("keep")
    res = runner.invoke(main, ["corpus", "run", "--filter", "dv8", "--out", str(f)])
    assert res.exit_code == 2
    assert "checks:" not in res.output  # refused before any check ran
    assert f.read_text() == "keep"


def test_corpus_filter_selects_only_matches(runner):
    res = runner.invoke(main, ["corpus", "run", "--filter", "frac1", "--quiet"])
    assert res.exit_code == 0
    assert "checks: 8" in res.output


def test_corpus_run_lists_its_skipped_entries(runner):
    res = runner.invoke(main, ["corpus", "run", "--filter", "conj2_demo", "--quiet"])
    assert res.exit_code == 0, res.output
    summary, *skipped = res.output.splitlines()
    n = int(summary.split("skipped (hypothesis): ")[1].split()[0])
    assert n > 0 and len(skipped) == n
    assert all(line.startswith("  skipped conj2_demo#eps=") and "not below eps^3/4" in line
               for line in skipped)


def test_corpus_run_echoes_each_report_before_its_summary(runner):
    res = runner.invoke(main, ["corpus", "run", "--filter", "dv8"])
    assert res.exit_code == 0, res.output
    *lines, summary = res.output.splitlines()
    assert summary.startswith(f"checks: {len(lines)} ")
    want = [graph_from_spec(e.graph_spec).name for e in corpus_entries() if e.check_id == "dv8"]
    assert want and [line.split() for line in lines] == [["holds", "dv8", g] for g in want]


def test_corpus_list(runner):
    res = runner.invoke(main, ["corpus", "list"])
    assert res.exit_code == 0
    assert "hk_tree" in res.output and "zipper_cases_strongbk" in res.output


def test_scan_via_cli(runner):
    res = runner.invoke(main, ["check", "logconcave", "--graph",
                               "family:parallel:4,q=0.5", "--nmax", "4"])
    assert res.exit_code == 0, res.output
    reps = json.loads(res.output)
    assert all(r["verdict"] == "holds" for r in reps)


@pytest.mark.parametrize("args", [
    ["frac2", "--graph", "family:grid:2,6,p=0.5"],
    ["frac1", "--graph", "family:grid:2,5,p=0.5"],
    ["cs_bound", "--graph", "family:grid:2,6,p=0.5", "--strategy", "dfs_stop_at:a,b,c",
     "--events", "a,b U a,c", "b,c"],
])
def test_exact_cs_pair_guard_exits_3_at_once(runner, args):
    t0 = time.perf_counter()
    res = runner.invoke(main, ["check", *args])
    assert res.exit_code == 3, res.output
    assert "pair enumeration limited to 12 edges" in res.output
    assert time.perf_counter() - t0 < 1.0


def test_scan_ids_named_once():
    from percolab import checks, cli, corpus
    assert cli.SCAN_IDS is checks.SCAN_IDS
    scans = {e.check_id for e in corpus.corpus_entries() if e.kind == "scan"}
    assert scans == set(checks.SCAN_IDS)


@pytest.mark.parametrize("spec", ["dfs:a,bogus,until:a", "rhw_walks:a,b", "rhw_walks:a,b,x",
                                  "stop:x"])
def test_check_refuses_malformed_strategy(runner, spec):
    # dfs:a,bogus,until:a ends before scanning a candidate, so only the
    # parser can see the bad order
    res = runner.invoke(main, ["check", "hk_tree", "--graph", "family:cycle:4,p=0.5",
                               "--strategy", spec, "--events", "a,b", "b,c"])
    assert res.exit_code == 2, res.output
    assert f"malformed strategy spec {spec!r}" in res.output


def test_check_refuses_repeated_family_parameter(runner):
    res = runner.invoke(main, ["estimate", "--graph", "family:grid:3,3,p=0.5,p=0.25",
                               "--event", "a,b", "--method", "exact"])
    assert res.exit_code == 2, res.output
    assert "repeated family parameter 'p'" in res.output
