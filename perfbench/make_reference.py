"""Regenerate perfbench/reference.json from the sources in src/.

    python3 perfbench/make_reference.py

Exact outputs are pinned as computed.  Each MC value is pinned as its mean
over a sweep of SWEEP seeds (for the corpus, the built-in seed plus SWEEP - 1
others), with the standard deviation over the sweep as its standard error at
the workload's sample count.  Run it only on a commit whose outputs are known
to be right: every later pass is checked against what it writes.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

SWEEP = 20             # seeds per MC value; the gate's strictness rests on it
SWEEP_BASE = 900_000   # benchmark seeds used by the sweep, away from small run seeds


def _pin_mc(rows_by_key, runs):
    """Mean and spread of lhs and rhs over the runs of each MC row."""
    for key, values in runs.items():
        row = rows_by_key[key]
        for side in ("lhs", "rhs"):
            xs = [v[side] for v in values]
            row[side] = statistics.fmean(xs)
            row[side + "_sd"] = statistics.stdev(xs)
        row["sweep"] = len(values)


def corpus_reference():
    from percolab.corpus import corpus_entries, run_entry

    (op,) = workloads.build("corpus", 0, 0)
    got = workloads.outcome("corpus", op.call())
    mc_rows = {(r["check_id"], r["graph"]): r for r in got["rows"] if r["method"] == "mc"}
    runs = {key: [dict(row)] for key, row in mc_rows.items()}
    for entry in corpus_entries():
        if entry.method != "mc":
            continue
        for k in range(1, SWEEP):
            for rep in run_entry(dataclasses.replace(entry, seed=entry.seed + 7_919 * k)):
                runs[(rep.check_id, rep.graph)].append(workloads.outcome("mc_pairs", rep))
    _pin_mc(mc_rows, runs)
    return got


def exact_mid_reference():
    ops = workloads.build("exact_mid", 0, 0)
    return {op.label: workloads.outcome("exact_mid", op.call()) for op in ops}


def mc_pairs_reference():
    runs = {}
    rows = {}
    for k in range(SWEEP):
        for op in workloads.build("mc_pairs", SWEEP_BASE + k, 0):
            if not op.samples:     # an exact operation: its inputs ignore the seed
                if k == 0:
                    rows[op.label] = workloads.outcome("mc_pairs", op.call())
                continue
            row = workloads.outcome("mc_pairs", op.call())
            rows.setdefault(op.label, dict(row, samples=op.samples))
            runs.setdefault(op.label, []).append(row)
    _pin_mc(rows, runs)
    return rows


def main() -> int:
    ref = {
        "corpus": corpus_reference(),
        "exact_mid": exact_mid_reference(),
        "mc_pairs": mc_pairs_reference(),
    }
    out = HERE / "reference.json"
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}: {len(ref['corpus']['rows'])} corpus reports, "
          f"{len(ref['exact_mid'])} exact_mid and {len(ref['mc_pairs'])} mc_pairs outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
