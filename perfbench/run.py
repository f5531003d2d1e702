"""percolab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {corpus,exact_mid,mc_pairs}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass runs in a fresh worker process
(``worker.py``), one at a time, so no graph or table cache carries over.

--trace 0: passes run until S seconds have gone by (at least MIN_PASSES);
    pass i of an MC workload draws its seeds from (N, i).  Prints the
    end-to-end metrics: the median pass wall time, the median set-up time
    over the passes plus SETUPS_PER_PASS set-up-only workers before each
    pass, and the median peak resident memory.
--trace 1: pass 0 untraced, then traced, TRACE_PAIRS times while the run's
    time budget allows; prints the median of each per-layer metric over the
    traced passes and trace.overhead_s, the median traced minus the median
    untraced wall time.  Spans go to .perfbench/ in the checkout.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_PASSES = 2
SETUPS_PER_PASS = 5
TRACE_PAIRS = 2          # untraced and traced passes, alternated, as time allows
RUN_BUDGET_S = 170.0     # a run must end within 180 s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def _worker(args, deadline, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before the next worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(extra)} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(extra)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(extra)} printed nothing")
    return json.loads(lines[-1])


def _untraced(args, deadline):
    began = time.monotonic()
    passes = []
    setups = []
    while True:
        # set-up samples are spread over the run: the host's speed changes every
        # few seconds, and one set-up is far too short to average that out
        setups += [_worker(args, deadline, "--setup-only")["setup_s"]
                   for _ in range(SETUPS_PER_PASS)]
        passes.append(_worker(args, deadline, "--pass-index", str(len(passes))))
        setups.append(passes[-1]["setup_s"])
        elapsed = time.monotonic() - began
        last = passes[-1]["wall_s"] + passes[-1]["setup_s"]
        if len(passes) >= MIN_PASSES and (elapsed >= args.seconds
                                          or time.monotonic() + 1.5 * last > deadline):
            break
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, metrics


def _traced(args, deadline):
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        began = time.monotonic()
        plain.append(_worker(args, deadline, "--pass-index", "0"))
        traced.append(_worker(args, deadline, "--pass-index", "0", "--trace"))
        if time.monotonic() + 1.5 * (time.monotonic() - began) > deadline:
            break
    units = dict(LAYER_METRICS)
    metrics = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        # counts repeat exactly across the traced passes of one seed: keep them whole
        metrics[name] = (statistics.median_low(values) if units[name] == "count"
                         else statistics.median(values))
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    return plain + traced, metrics


def _report(args, passes, metrics, units):
    """Human-readable lines; the JSON result line follows them."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  (one fresh process each)")
    plain = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    print("  pass wall_s: " + ", ".join(f"{p['wall_s']:.4f}" for p in plain)
          + ("  traced: " + ", ".join(f"{p['wall_s']:.4f}" for p in traced) if traced else ""))
    # CPU time of the same passes: a wall time well above it was spent waiting
    # for a processor the host gave to others, not in percolab
    print("  pass cpu_s:  " + ", ".join(f"{p['cpu_s']:.4f}" for p in plain))
    for op in plain[0]["ops"]:
        label = op["label"]
        times = [o["seconds"] for p in plain for o in p["ops"] if o["label"] == label]
        line = f"  op {label:34s} median {statistics.median(times):9.4f} s"
        if op.get("tables"):
            per_table = statistics.median(times) / op["tables"]
            line += (f"  E={op['edges']}: {per_table:.3f} s per table,"
                     f" x2^(24-E) = {per_table * 2 ** (24 - op['edges']):.0f} s at 24 edges")
        if op["samples"]:
            seeds = sorted({o["mc_seed"] for p in plain for o in p["ops"] if o["label"] == label})
            line += (f"  {op['samples'] / statistics.median(times):9.1f} samples/s"
                     f"  mc seeds {', '.join(map(str, seeds))}")
        print(line)
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"  {'fail_frac':44s} {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    for p in passes:
        for msg in p["mismatches"]:
            print(f"  MISMATCH {msg}")
    info = [p["layer_info"] for p in passes if "layer_info" in p]
    for name in sorted({n for i in info for n in i["zero_call_wrappers"]}):
        print(f"  WARNING wrapper saw no call on its busiest workload: {name}")
    for key in sorted({i["corpus.slowest_entry_key"] for i in info} - {None}):
        print(f"  slowest corpus entry: {key}")
    return attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="percolab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "percolab" / "__init__.py").is_file():
        print(f"no percolab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # a terminated run stops its worker: subprocess.run kills it on the exception
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            passes, metrics = _traced(args, deadline)
            units = dict(LAYER_METRICS)
        else:
            passes, metrics = _untraced(args, deadline)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = _report(args, passes, metrics, units)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
