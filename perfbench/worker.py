"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --pass-index I
                                [--trace] [--setup-only]

Imports percolab from ``src/`` of the checkout that holds this file, builds
the workload's inputs (the set-up), runs its operations closed-loop, then
checks every output against ``perfbench/reference.json``.  ``run.py`` starts
one of these per pass so that no cache carries over between passes.  With
--trace every layer is wrapped (tracer.py) and the spans are written to
.perfbench/trace_<workload>_seed<n>.json in the checkout when the pass ends.

percolab is imported before anything else, so that the modules it shares
with the benchmark (argparse, json, dataclasses, inspect, ...) are paid for
in the measured import, as they are by a CLI user.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import percolab
    import percolab.cli  # noqa: F401  (a CLI user loads the CLI too)
    import_s = time.perf_counter() - t0

    import argparse
    import json
    import resource
    from pathlib import Path

    import workloads
    from tracer import Tracer

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not Path(percolab.__file__).resolve().is_relative_to(Path(SRC).resolve()):
        print(f"percolab imported from {percolab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    ops = workloads.build(args.workload, args.seed, args.pass_index)
    setup_s = import_s + (time.perf_counter() - t1)
    out = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    results = []
    op_s = {}
    start = time.perf_counter()
    cpu_start = time.process_time()
    for op in ops:
        t = time.perf_counter()
        try:
            if tracer is None:
                result = op.call()
            else:
                with tracer.operation(op.label):
                    result = op.call()
            error = None
        except Exception as exc:  # a raising operation is counted as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        op_s[op.label] = time.perf_counter() - t
        results.append((op, result, error))
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start

    reference = json.loads(Path(HERE, "reference.json").read_text(encoding="utf-8"))
    attempted, failed, mismatches = workloads.verify(args.workload, results, reference)
    out.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=attempted,
        failed=failed,
        mismatches=mismatches[:20],
        ops=[{"label": op.label, "seconds": op_s[op.label], "edges": op.edges,
              "samples": op.samples, **op.info} for op in ops],
    )
    if tracer is not None:
        out["layers"], out["layer_info"] = tracer.metrics(args.workload, import_s)
        tracer.dump(Path(ROOT, ".perfbench", f"trace_{args.workload}_seed{args.seed}.json"),
                    args.workload, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
