"""Benchmark workloads: inputs built from a seed, operations, and output checks.

Each workload is a fixed list of operations run closed-loop, one after the
other, in a single fresh process.  ``build`` is the set-up (graphs, parsed
strategies, seeds); per-graph truth, flow and weight tables are left cold,
because every CLI user pays for them on every run.  The corpus entry list is
not built in set-up, because the CLI builds it inside the timed pass.
``verify`` compares each operation's output with the pinned reference in
``reference.json``.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("corpus", "exact_mid", "mc_pairs")

CORPUS_ARGS = ["corpus", "run", "--quiet"]

PAIR_EVENTS = ("a,b", "b,c")

# label, check id, graph spec, parameters (strategy specs are parsed in set-up),
# and the number of 2^E-mask tables the check builds (0: cost is not 2^E-bound)
EXACT_MID = (
    ("planar_dv2@grid:3,4", "planar_dv2", "family:grid:3,4,p=0.5", {}, 4),
    ("q2@grid:3,4", "q2", "family:grid:3,4,p=0.5", {}, 4),
    ("submult(1,1)@grid:2,7", "submult", "family:grid:2,7,p=0.5", {"n": 1, "m": 1}, 1),
    ("hk_tree/bfs@grid:3,3", "hk_tree", "family:grid:3,3,p=0.5",
     {"strategy": "bfs_cluster:a", "events": PAIR_EVENTS}, 0),
    ("hk_tree/right_hand@grid:3,3", "hk_tree", "family:grid:3,3,p=0.5",
     {"strategy": "dfs:a,right_hand,until:c", "events": PAIR_EVENTS}, 0),
    ("vdbk_tree/bfs@grid:3,3", "vdbk_tree", "family:grid:3,3,p=0.5",
     {"strategy": "bfs_cluster:a", "events": PAIR_EVENTS}, 0),
    ("vdbk_tree/right_hand@grid:3,3", "vdbk_tree", "family:grid:3,3,p=0.5",
     {"strategy": "dfs:a,right_hand,until:c", "events": PAIR_EVENTS}, 0),
)
SPLICE_MID = ("splice/dfs@cycle:9", "family:cycle:9,p=0.5", "dfs:a,id,S")

# label, check id, graph spec, strategy spec, samples.  The SqS queries run on
# grid:3,4 (17 edges), not grid:4,4: the witness-split search costs 2^k for k
# open S-edges, and on grid:4,4 the rare samples with k near 20 take seconds
# each, so the pass time there depends on the seed more than on the code.
MC_PAIRS = (
    ("hk_tree/bfs@grid:5,5", "hk_tree", "family:grid:5,5,p=0.5", "bfs_cluster:a", 10_000),
    ("hk_tree/right_hand@grid:5,5", "hk_tree", "family:grid:5,5,p=0.5",
     "dfs:a,right_hand,until:c", 10_000),
    ("vdbk_tree/bfs@grid:3,4", "vdbk_tree", "family:grid:3,4,p=0.5", "bfs_cluster:a", 1000),
    ("vdbk_tree/dfs@grid:3,4", "vdbk_tree", "family:grid:3,4,p=0.5", "dfs:a,id,S", 1000),
)

# label, graph spec, strategy spec, configuration pairs drawn.  No exact check
# reaches the witness-split search (no strategy reads c2), and the MC SqS rows
# only pin its hit rate to a few standard errors, so these operations pin the
# answer of ``sq_s_occurrence`` itself on fixed pairs (c1, c2), with S revealed
# by the strategy as in ``mc_pair``.  Only pairs with A on c1 and B on c1 | c2
# are searched: without both, no split can succeed.  The pairs are drawn from
# WITNESS_SEED, not from --seed, so that every answer can be pinned exactly.
# bfs_cluster puts a's whole open cluster and its closed boundary in S, so the
# answer turns on the split of S alone; dfs_stop_at stops at b or c, so the
# edges outside S decide too.
SQS_WITNESS = (
    ("sqs_witness/bfs@grid:3,4", "family:grid:3,4,p=0.5", "bfs_cluster:a", 160),
    ("sqs_witness/stop_at@grid:3,4", "family:grid:3,4,p=0.5", "dfs_stop_at:a,b,c", 160),
)
WITNESS_SEED = 20_240_815

# An MC value passes when it lies within SIGMA standard errors of its
# reference; the standard error is the spread of that value over the seeds of
# the reference sweep, at the same sample count.
SIGMA = 6.0
ABS_FLOOR = 1e-12


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    edges: int = 0
    samples: int = 0
    info: dict = field(default_factory=dict)


def mc_seed(seed: int, pass_index: int, op_index: int) -> int:
    """Seed of one MC operation, derived from the benchmark's seed argument."""
    return (seed * 1_000_003 + pass_index * 7_919 + op_index * 104_729 + 12_345) \
        & 0x7FFFFFFFFFFFFFFF


def build(workload: str, seed: int, pass_index: int) -> list[Op]:
    """Set-up: the operations of one pass, with every input already built."""
    if workload == "corpus":
        return [_corpus_op()]
    if workload == "exact_mid":
        return _exact_mid_ops()
    if workload == "mc_pairs":
        return _mc_pairs_ops(seed, pass_index)
    raise ValueError(f"unknown workload {workload!r}")


def _corpus_op() -> Op:
    from percolab import cli
    captured = {}
    inner = cli.run_corpus

    def capture(*args, **kwargs):
        captured["result"] = inner(*args, **kwargs)
        return captured["result"]

    # the CLI looks run_corpus up in its own namespace; capture its return value
    cli.run_corpus = capture

    def call():
        out = io.StringIO()
        with redirect_stdout(out):
            try:
                cli.main.main(args=CORPUS_ARGS, prog_name="percolab", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
        reports, skips, _ok = captured.get("result", ([], [], False))
        return {"exit_code": code, "reports": reports, "skips": skips}

    return Op("corpus run --quiet", call)


def _exact_mid_ops() -> list[Op]:
    from percolab import graph_from_spec, parse_strategy, run_check, verify_splice_independence

    ops = []
    for label, check_id, spec, params, tables in EXACT_MID:
        g = graph_from_spec(spec)
        params = dict(params)
        if "strategy" in params:
            params["strategy"] = parse_strategy(params["strategy"])
        ops.append(Op(label, lambda c=check_id, g=g, p=params: run_check(c, g, p),
                      edges=g.n_edges, info={"tables": tables}))
    label, spec, strategy = SPLICE_MID
    g = graph_from_spec(spec)
    t = parse_strategy(strategy)
    ops.append(Op(label, lambda: verify_splice_independence(g, t), edges=g.n_edges))
    return ops


def _mc_pairs_ops(seed: int, pass_index: int) -> list[Op]:
    from percolab import graph_from_spec, parse_event, parse_strategy, run_check

    ops = []
    for i, (label, check_id, spec, strategy, samples) in enumerate(MC_PAIRS):
        g = graph_from_spec(spec)
        params = {"strategy": parse_strategy(strategy), "events": PAIR_EVENTS}
        s = mc_seed(seed, pass_index, i)
        ops.append(Op(label, lambda c=check_id, g=g, p=params, n=samples, s=s:
                      run_check(c, g, p, "mc", samples=n, seed=s),
                      edges=g.n_edges, samples=samples, info={"mc_seed": s}))
    A, B = (parse_event(text) for text in PAIR_EVENTS)
    for i, (label, spec, strategy, draws) in enumerate(SQS_WITNESS):
        g = graph_from_spec(spec)
        rng = random.Random(WITNESS_SEED + i)
        pairs = [(rng.getrandbits(g.n_edges), rng.getrandbits(g.n_edges)) for _ in range(draws)]
        ops.append(Op(label, lambda g=g, t=parse_strategy(strategy), pairs=pairs:
                      _witness_bits(g, t, A, B, pairs), edges=g.n_edges))
    return ops


def _witness_bits(g, t, A, B, pairs) -> str:
    """'1'/'0' per searched pair: does ``sq_s_occurrence`` find a split."""
    from percolab.events import evaluate_mask, sq_s_occurrence
    from percolab.graphs import Configuration
    from percolab.strategies import run

    bits = []
    for m1, m2 in pairs:
        if not (evaluate_mask(A, g, m1) and evaluate_mask(B, g, m1 | m2)):
            continue
        c1, c2 = Configuration(g, m1), Configuration(g, m2)
        s_mask = run(t, g, c1, c2).s_mask(g)
        s_edges = [e for e in g.edge_ids if s_mask >> g.edge_index(e) & 1]
        bits.append("1" if sq_s_occurrence(A, B, g, c1, c2, s_edges) else "0")
    return "".join(bits)


# ---------------------------------------------------------------------------
# Outputs and checks


def _row(rep) -> dict:
    return {"check_id": rep.check_id, "graph": rep.graph, "method": rep.method,
            "lhs": rep.lhs, "rhs": rep.rhs, "verdict": rep.verdict}


def outcome(workload: str, result) -> dict:
    """The part of an operation's result that the reference pins."""
    if workload == "corpus":
        return {"exit_code": result["exit_code"], "skips": len(result["skips"]),
                "rows": [_row(r) for r in result["reports"]]}
    if isinstance(result, float):
        return {"value": result}
    if isinstance(result, str):
        return {"bits": result}
    return _row(result)


def _mismatch_fields(got: dict, ref: dict) -> list[str]:
    bad = []
    for key in ("check_id", "graph", "method", "value", "bits"):
        if key in ref and got.get(key) != ref[key]:
            bad.append(f"{key} {got.get(key)!r} != {ref[key]!r}")
    if ref.get("method") == "mc":
        for key in ("lhs", "rhs"):
            x = got.get(key)
            tol = SIGMA * ref[key + "_sd"] + ABS_FLOOR
            if x is None or not math.isfinite(x) or abs(x - ref[key]) > tol:
                bad.append(f"{key} {x!r} not within {tol:.3g} of {ref[key]!r}")
        # a theorem-backed inequality may come back inconclusive, never violated
        if (got.get("verdict") == "violated") != (ref["verdict"] == "violated"):
            bad.append(f"verdict {got.get('verdict')!r} vs reference {ref['verdict']!r}")
    else:
        for key in ("lhs", "rhs", "verdict"):
            if key in ref and got.get(key) != ref[key]:
                bad.append(f"{key} {got.get(key)!r} != {ref[key]!r}")
    return bad


def verify(workload: str, results, reference: dict):
    """(attempted, failed, mismatch messages) for one pass.

    ``results`` holds (op, result, error) triples; a raised operation fails.
    The corpus pass counts one operation per reference report; a wrong exit
    code or skip count fails all of them.
    """
    ref = reference[workload]
    if workload == "corpus":
        (_op, result, error), = results
        rows = ref["rows"]
        if error is not None:
            return len(rows), len(rows), [f"corpus raised {error}"]
        got = outcome(workload, result)
        if got["exit_code"] != ref["exit_code"] or got["skips"] != ref["skips"]:
            return len(rows), len(rows), [
                f"exit {got['exit_code']} skips {got['skips']}, expected "
                f"exit {ref['exit_code']} skips {ref['skips']}"]
        msgs = []
        for i, want in enumerate(rows):
            have = got["rows"][i] if i < len(got["rows"]) else {}
            bad = _mismatch_fields(have, want)
            if bad:
                msgs.append(f"report {i} {want['check_id']} {want['graph']}: " + "; ".join(bad))
        failed = len(msgs)
        if len(got["rows"]) > len(rows):
            msgs.append(f"{len(got['rows'])} reports, expected {len(rows)}")
            failed = len(rows)
        return len(rows), failed, msgs
    msgs = []
    for op, result, error in results:
        if error is not None:
            msgs.append(f"{op.label}: raised {error}")
            continue
        bad = _mismatch_fields(outcome(workload, result), ref[op.label])
        if bad:
            msgs.append(f"{op.label}: " + "; ".join(bad))
    return len(results), len(msgs), msgs
