"""Per-layer tracing of percolab, installed from outside the package.

Each traced function is replaced by a wrapper in every ``percolab.*`` module
namespace that bound the original function object, so a function imported
by name into another module (``open_maxflow`` into ``exact`` and ``mc``,
``truth_table`` into ``checks`` and ``zipper``) is traced on every path.

Two kinds of wrapper share one frame stack:

* ``SPAN`` records one span per call (name, start, end, parent span, owning
  operation) and is used at coarse boundaries: operations, checks, queries,
  table builds, RNG and reachability calls.
* ``COUNTER`` only aggregates calls, inclusive and self time per caller, to
  bound the overhead on hot leaf functions.

Self time is inclusive time minus the time of child frames of either kind.
A call made while the same name is already on top of the stack (recursion,
such as ``evaluate_mask`` on a compound event) is passed straight through and
counted once, in the outermost frame.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import namedtuple
from contextlib import contextmanager

SPAN = "span"
COUNTER = "counter"

clock = time.perf_counter

# module, function, layer name, wrapper kind, workloads where the layer does
# most of its work (it must record calls there, or the wrapper missed a binding)
Target = namedtuple("Target", "module func layer kind most_work")

TARGETS = (
    Target("graphs", "graph_from_spec", "graphs.build", SPAN, ("corpus", "exact_mid", "mc_pairs")),
    Target("graphs", "cluster_labels", "graphs.cluster_labels", COUNTER, ("mc_pairs", "exact_mid")),
    Target("events", "evaluate_mask", "events.evaluate_mask", COUNTER, ("mc_pairs", "exact_mid")),
    Target("events", "open_maxflow", "events.open_maxflow", COUNTER, ("corpus", "exact_mid")),
    Target("events", "sq_s_occurrence", "events.sq_s_occurrence", COUNTER, ("mc_pairs",)),
    Target("events", "require_increasing", "events.require_increasing", COUNTER, ("mc_pairs",)),
    Target("strategies", "run", "strategies.run", COUNTER, ("mc_pairs", "exact_mid")),
    Target("exact", "weights", "exact.weights", SPAN, ("exact_mid",)),
    Target("exact", "truth_table", "exact.truth_table", SPAN, ("exact_mid",)),
    Target("exact", "flow_table", "exact.flow_table", SPAN, ("exact_mid",)),
    Target("exact", "exact_pair", "exact.exact_pair", SPAN, ("exact_mid",)),
    Target("exact", "verify_splice_independence", "exact.verify_splice_independence", SPAN,
           ("exact_mid",)),
    Target("mc", "_edge_bit_columns", "mc.rng", SPAN, ("corpus",)),
    Target("mc", "_sample_masks", "mc.rng", SPAN, ("corpus",)),
    Target("mc", "_reach_masks", "mc.reach", SPAN, ("corpus",)),
    Target("mc", "mc_prob", "mc.mc_prob", SPAN, ("corpus",)),
    Target("mc", "mc_npaths", "mc.mc_npaths", SPAN, ("corpus",)),
    Target("mc", "mc_pair", "mc.mc_pair", SPAN, ("mc_pairs",)),
    Target("zipper", "gen_enumerate", "zipper.gen_enumerate", SPAN, ("corpus",)),
    Target("checks", "run_check", "checks.run_check", SPAN, ("corpus", "exact_mid", "mc_pairs")),
    Target("checks", "scan_conjectures", "checks.scan_conjectures", SPAN, ("corpus",)),
    Target("corpus", "run_entry", "corpus.run_entry", SPAN, ("corpus",)),
)

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
# *.self_s is summed over callers; *.calls counts outermost calls.
LAYER_METRICS = (
    ("mc.rng.self_s", "s"),
    ("mc.edge_bits_drawn", "count"),
    ("mc.samples", "count"),
    ("mc.reach.self_s", "s"),
    ("mc.reach.calls", "count"),
    ("events.open_maxflow.calls", "count"),
    ("events.open_maxflow.self_s", "s"),
    ("mc.mc_npaths.self_s", "s"),
    ("graphs.cluster_labels.calls", "count"),
    ("graphs.cluster_labels.self_s", "s"),
    ("events.evaluate_mask.calls", "count"),
    ("events.evaluate_mask.self_s", "s"),
    ("exact.truth_table.calls", "count"),
    ("exact.truth_table.hit_ratio", "ratio"),
    ("exact.truth_table.self_s", "s"),
    ("exact.flow_table.calls", "count"),
    ("exact.flow_table.self_s", "s"),
    ("exact.masks_enumerated", "count"),
    ("exact.weights.self_s", "s"),
    ("exact.exact_pair.self_s", "s"),
    ("exact.verify_splice_independence.self_s", "s"),
    ("strategies.run.calls", "count"),
    ("strategies.run.self_s", "s"),
    ("events.sq_s_occurrence.calls", "count"),
    ("events.sq_s_occurrence.self_s", "s"),
    ("events.sq_s_occurrence.evals_per_call", "count"),
    ("events.sq_s_occurrence.true_ratio", "ratio"),
    ("events.require_increasing.calls", "count"),
    ("mc.mc_pair.self_s", "s"),
    ("zipper.gen_enumerate.self_s", "s"),
    ("checks.run_check.self_s", "s"),
    ("checks.inconclusive_ratio", "ratio"),
    ("corpus.run_entry.self_s", "s"),
    ("corpus.slowest_entry_s", "s"),
    ("cli.import_s", "s"),
    ("graphs.build.self_s", "s"),
    ("trace.zero_call_wrappers", "count"),
    ("trace.overhead_s", "s"),
)


def _binder(fn):
    """Function mapping a call's (args, kwargs) to {parameter: value}."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return lambda args, kwargs: {}

    def bind(args, kwargs):
        try:
            return sig.bind(*args, **kwargs).arguments
        except TypeError:
            return {}
    return bind


class Tracer:
    """Frame stack, spans and per-caller counters for one traced process."""

    def __init__(self):
        self.stack = []        # frames: [name, child_s, start, span_id]
        self.spans = []        # dicts, appended when a span closes
        self.stats = {}        # (layer, caller) -> [calls, inclusive_s, self_s]
        self.calls = {}        # (module, func) -> outermost calls of that target
        self.counts = {}       # counters derived from call arguments and results
        self.reports = {}      # id -> CheckReport returned by run_check or a scan
        self.wrapped = []      # (target, namespaces patched)
        self.missing = []      # targets whose function no longer exists
        self.op = None         # label of the benchmark operation being run
        self._next_span = 0

    # -- frames -------------------------------------------------------------

    def _open(self, name, span):
        sid = None
        if span:
            self._next_span += 1
            sid = self._next_span
        frame = [name, 0.0, clock(), sid]
        self.stack.append(frame)
        return frame

    def _close(self, frame, attrs=None):
        end = clock()
        stack = self.stack
        stack.pop()
        name, child, start, sid = frame
        dur = end - start
        self_s = dur - child
        caller = "-"
        if stack:
            parent = stack[-1]
            parent[1] += dur
            caller = parent[0]
        st = self.stats.get((name, caller))
        if st is None:
            st = self.stats[(name, caller)] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += self_s
        if sid is not None:
            parent_sid = next((f[3] for f in reversed(stack) if f[3] is not None), None)
            span = {"id": sid, "parent": parent_sid, "op": self.op, "name": name,
                    "start": start, "end": end, "self_s": self_s}
            if attrs:
                span.update(attrs)
            self.spans.append(span)

    @contextmanager
    def operation(self, label):
        """Span around one benchmark operation; its spans carry the label."""
        self.op = label
        frame = self._open("op", True)
        try:
            yield
        finally:
            self._close(frame)
            self.op = None

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, target, fn, before=None, after=None, attrs=None):
        layer = target.layer
        is_span = target.kind == SPAN
        stack = self.stack
        calls = self.calls
        key = (target.module, target.func)
        calls[key] = 0
        bind = _binder(fn) if (before or attrs) else None

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            calls[key] += 1
            bound = bind(args, kwargs) if bind else None
            if before:
                before(bound)
            frame = self._open(layer, is_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, attrs(bound) if attrs else None)
            if after:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def install(self):
        """Wrap every target in every percolab module namespace that bound it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "percolab" or n.startswith("percolab."))]
        for target in TARGETS:
            home = sys.modules.get(f"percolab.{target.module}")
            fn = getattr(home, target.func, None) if home is not None else None
            if not callable(fn):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, fn, **_hooks(self, target.func))
            patched = []
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        patched.append(f"{mod.__name__}.{attr}")
            self.wrapped.append((target, patched))

    # -- results ------------------------------------------------------------

    def zero_call_targets(self, workload):
        """Targets expected to work hardest on ``workload`` that saw no call."""
        out = [f"{t.module}.{t.func} (missing)" for t in self.missing
               if workload in t.most_work]
        out += [f"{t.module}.{t.func}" for t, _ in self.wrapped
                if workload in t.most_work and self.calls[(t.module, t.func)] == 0]
        return out

    def metrics(self, workload, import_s):
        """Every per-layer metric except trace.overhead_s, plus info for humans."""
        tot = {}
        for (name, _caller), (n, _incl, self_s) in self.stats.items():
            acc = tot.setdefault(name, [0, 0.0])
            acc[0] += n
            acc[1] += self_s

        def calls(layer):
            return tot.get(layer, (0, 0.0))[0]

        def self_s(layer):
            return tot.get(layer, (0, 0.0))[1]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        sq_calls = calls("events.sq_s_occurrence")
        sq_evals = self.stats.get(("events.evaluate_mask", "events.sq_s_occurrence"), [0])[0]
        reports = list(self.reports.values())
        entries = [s for s in self.spans if s["name"] == "corpus.run_entry"]
        slowest = max(entries, key=lambda s: s["end"] - s["start"], default=None)
        zero = self.zero_call_targets(workload)
        values = {
            "mc.rng.self_s": self_s("mc.rng"),
            "mc.edge_bits_drawn": c.get("edge_bits", 0),
            "mc.samples": c.get("samples", 0),
            "mc.reach.self_s": self_s("mc.reach"),
            "mc.reach.calls": calls("mc.reach"),
            "events.open_maxflow.calls": calls("events.open_maxflow"),
            "events.open_maxflow.self_s": self_s("events.open_maxflow"),
            "mc.mc_npaths.self_s": self_s("mc.mc_npaths"),
            "graphs.cluster_labels.calls": calls("graphs.cluster_labels"),
            "graphs.cluster_labels.self_s": self_s("graphs.cluster_labels"),
            "events.evaluate_mask.calls": calls("events.evaluate_mask"),
            "events.evaluate_mask.self_s": self_s("events.evaluate_mask"),
            "exact.truth_table.calls": calls("exact.truth_table"),
            "exact.truth_table.hit_ratio": ratio(c.get("truth_table_hits", 0),
                                                 calls("exact.truth_table")),
            "exact.truth_table.self_s": self_s("exact.truth_table"),
            "exact.flow_table.calls": calls("exact.flow_table"),
            "exact.flow_table.self_s": self_s("exact.flow_table"),
            "exact.masks_enumerated": c.get("masks", 0),
            "exact.weights.self_s": self_s("exact.weights"),
            "exact.exact_pair.self_s": self_s("exact.exact_pair"),
            "exact.verify_splice_independence.self_s": self_s("exact.verify_splice_independence"),
            "strategies.run.calls": calls("strategies.run"),
            "strategies.run.self_s": self_s("strategies.run"),
            "events.sq_s_occurrence.calls": sq_calls,
            "events.sq_s_occurrence.self_s": self_s("events.sq_s_occurrence"),
            "events.sq_s_occurrence.evals_per_call": ratio(sq_evals, sq_calls),
            "events.sq_s_occurrence.true_ratio": ratio(c.get("sqs_true", 0), sq_calls),
            "events.require_increasing.calls": calls("events.require_increasing"),
            "mc.mc_pair.self_s": self_s("mc.mc_pair"),
            "zipper.gen_enumerate.self_s": self_s("zipper.gen_enumerate"),
            "checks.run_check.self_s": self_s("checks.run_check"),
            "checks.inconclusive_ratio": ratio(sum(r.verdict == "inconclusive" for r in reports),
                                               len(reports)),
            "corpus.run_entry.self_s": self_s("corpus.run_entry"),
            "corpus.slowest_entry_s": (slowest["end"] - slowest["start"]) if slowest else 0.0,
            "cli.import_s": import_s,
            "graphs.build.self_s": self_s("graphs.build"),
            "trace.zero_call_wrappers": len(zero),
        }
        info = {"corpus.slowest_entry_key": slowest.get("key") if slowest else None,
                "zero_call_wrappers": zero}
        return values, info

    def dump(self, path, workload, seed):
        """Write spans and per-caller counters once the run has ended."""
        doc = {
            "workload": workload,
            "seed": seed,
            "wrapped": {f"{t.module}.{t.func}": patched for t, patched in self.wrapped},
            "missing": [f"{t.module}.{t.func}" for t in self.missing],
            "calls": {f"{m}.{f}": n for (m, f), n in self.calls.items()},
            "by_caller": [{"layer": name, "caller": caller, "calls": v[0],
                           "inclusive_s": v[1], "self_s": v[2]}
                          for (name, caller), v in sorted(self.stats.items())],
            "counts": self.counts,
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")


def _hooks(tracer, func):
    """Hooks deriving counters from one target's arguments and results."""
    count = tracer.count
    if func in ("_edge_bit_columns", "_sample_masks"):
        def before(a):
            if "g" in a and "n" in a:
                count("edge_bits", int(a["n"]) * a["g"].n_edges)
        return {"before": before}
    if func in ("mc_prob", "mc_pair", "mc_npaths"):
        name = "samples" if func == "mc_npaths" else "n"

        def before(a):
            if name in a:
                count("samples", int(a[name]))
        return {"before": before}
    if func == "truth_table":
        from percolab.events import unparse

        def before(a):
            g, e = a.get("g"), a.get("e")
            if g is None or e is None:
                return
            if unparse(e) in getattr(g, "_event_tables", {}):
                count("truth_table_hits")
            else:
                count("masks", 1 << g.n_edges)
        return {"before": before}
    if func == "flow_table":
        def before(a):
            g = a.get("g")
            if g is not None and (a.get("u"), a.get("v")) not in getattr(g, "_flow_tables", {}):
                count("masks", 1 << g.n_edges)
        return {"before": before}
    if func == "sq_s_occurrence":
        def after(result):
            if result:
                count("sqs_true")
        return {"after": after}
    if func in ("run_check", "scan_conjectures"):
        def after(result):
            for rep in (result if isinstance(result, list) else [result]):
                tracer.reports[id(rep)] = rep
        return {"after": after}
    if func == "run_entry":
        def attrs(a):
            return {"key": getattr(a.get("entry"), "key", None)}
        return {"attrs": attrs}
    return {}
