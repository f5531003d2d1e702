"""Command-line surface: single checks, probability estimates, corpus runs.

Exit codes: 0 all checks hold; 1 a theorem-backed check is violated or a
conjecture scan produced a finding; 2 any other usage or percolab error;
3 a size guard, or an implied rate not found to 6 digits.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import click

from .checks import SCAN_IDS, CheckReport, implied_lambda, run_check, scan_conjectures
from .corpus import corpus_entries, is_conjecture, run_corpus
from .errors import GraphFormatError, PercolabError, SizeGuardError
from .events import parse_event
from .exact import exact_prob
from .graphs import Graph, graph_from_spec, parse_graph
from .mc import mc_prob


def _load_graph(spec: str) -> Graph:
    if spec.startswith("family:"):
        return graph_from_spec(spec)
    try:
        text = Path(spec).read_text(encoding="utf-8")
    except OSError as exc:  # not found, a directory, unreadable
        raise GraphFormatError(f"cannot read graph file {spec}: {exc}") from exc
    return parse_graph(text, name=spec)


def _emit(reports: list[CheckReport], fmt: str, out=None):
    out = out or sys.stdout
    rows = [r.to_dict() for r in reports]
    if fmt == "json":
        out.write(json.dumps(rows, indent=2, sort_keys=True))
        out.write("\n")
    else:
        buf = io.StringIO()
        # the header comes from the schema, so an empty list writes it alone
        writer = csv.DictWriter(buf, fieldnames=[f.name for f in fields(CheckReport)])
        writer.writeheader()
        writer.writerows(rows)
        out.write(buf.getvalue())


def _exit_code(reports: list[CheckReport]) -> int:
    return 1 if any(r.verdict == "violated" for r in reports) else 0


def _guarded(fn):
    """fn(), or exit 3 on a size guard and 2 on any other percolab or usage error."""
    try:
        return fn()
    except SizeGuardError as exc:
        click.echo(f"size guard: {exc}", err=True)
        sys.exit(3)
    except (PercolabError, ValueError, click.UsageError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@click.group()
def main():
    """Percolation inequality verification lab."""


@main.command("check")
@click.argument("check_id")
@click.option("--graph", "graph_spec", required=True,
              help="Graph file path or family:name:args,p=... spec.")
@click.option("--strategy", default=None, help="Reveal strategy spec string.")
@click.option("--events", nargs=2, default=None, help="Two event expressions.")
@click.option("--method", type=click.Choice(["exact", "mc"]), default="exact",
              show_default=True)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--sigma", type=float, default=3.0, show_default=True)
@click.option("--eps", type=float, default=None, help="Epsilon for conj2_demo/conj3_scan.")
@click.option("--nmax", type=int, default=None, help="Index bound for scans.")
@click.option("--arms", nargs=4, type=int, default=None,
              help="n k l m for arms_klm.")
@click.option("--nm", nargs=2, type=int, default=None, help="n m for submult.")
@click.option("--out", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def cmd_check(check_id, graph_spec, strategy, events, method, samples, seed,
              sigma, eps, nmax, arms, nm, fmt):
    """Run one named check (or scan) against one graph."""
    def work():
        g = _load_graph(graph_spec)
        params = {}
        if strategy:
            params["strategy"] = strategy
        if events:
            params["events"] = tuple(events)
        if eps is not None:
            params["eps"] = eps
        if arms:
            params.update(zip(("n", "k", "l", "m"), arms))
        if nm:
            params.update(zip(("n", "m"), nm))
        if check_id in SCAN_IDS:
            if nmax is not None:
                params["nmax"] = nmax
            if eps is not None:
                params["eps_grid"] = (eps,)
                params.pop("eps")
            return scan_conjectures(check_id, g, params, method,
                                    samples=samples, seed=seed, sigma=sigma)
        return [run_check(check_id, g, params, method, samples=samples,
                          seed=seed, sigma=sigma)]

    reports = _guarded(work)
    _emit(reports, fmt)
    sys.exit(_exit_code(reports))


@main.command("estimate")
@click.option("--graph", "graph_spec", required=True)
@click.option("--event", "event_text", required=True)
@click.option("--method", type=click.Choice(["exact", "mc"]), default="exact",
              show_default=True)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--lambda", "lambda_k", type=int, default=None,
              help="Also report the rate whose Poisson tail at k matches the estimate.")
def cmd_estimate(graph_spec, event_text, method, samples, seed, lambda_k):
    """Estimate one event probability (exactly or by sampling)."""
    def work():
        g = _load_graph(graph_spec)
        e = parse_event(event_text)
        result = {"graph": g.name, "event": event_text, "method": method}
        if method == "exact":
            prob = exact_prob(g, e)
            result["probability"] = prob
        else:
            est = mc_prob(g, e, samples, seed)
            prob = est.mean
            result.update(probability=est.mean, std_error=est.std_error,
                          ci_low=est.ci_low, ci_high=est.ci_high,
                          samples=est.n, seed=est.seed)
        if lambda_k is not None:
            result["implied_lambda"] = implied_lambda(lambda_k, prob)
        return result

    result = _guarded(work)
    click.echo(json.dumps(result, indent=2, sort_keys=True))
    sys.exit(0)


@main.group("corpus")
def cmd_corpus():
    """Built-in verification corpus."""


def _out_dir(path: str) -> Path:
    """The report directory, made before the run so that a bad --out exits 2 at once."""
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"cannot create output directory {path}: {exc}") from exc
    return root


@cmd_corpus.command("run")
@click.option("--filter", "filter_glob", default=None,
              help="Glob over check ids, e.g. 'hk_*'.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Write one JSON report file per check into this directory.")
@click.option("--quiet", is_flag=True, default=False)
def corpus_run(filter_glob, out_dir, quiet):
    """Run the corpus; exit 0 only if every theorem-backed check holds."""
    t0 = time.perf_counter()
    echo = None if quiet else (lambda line: click.echo(line))
    root = _guarded(lambda: _out_dir(out_dir)) if out_dir else None
    reports, skips, _ok = _guarded(lambda: run_corpus(filter_glob, echo))
    if root:
        by_file: dict[str, list] = {}
        for r in reports:
            safe = f"{r.check_id}__{r.graph}".replace("/", "_").replace(":", "_")
            by_file.setdefault(safe, []).append(r.to_dict())
        for fname, rows in sorted(by_file.items()):
            tmp = root / (fname + ".json.tmp")
            tmp.write_text(json.dumps(rows, indent=2, sort_keys=True),
                           encoding="utf-8")
            tmp.replace(root / (fname + ".json"))
    n_viol = sum(1 for r in reports if r.verdict == "violated")
    n_theorem = sum(1 for r in reports if not is_conjecture(r.check_id))
    n_findings = sum(1 for r in reports
                     if is_conjecture(r.check_id) and r.verdict == "violated")
    dt = time.perf_counter() - t0
    click.echo(f"checks: {len(reports)}  theorem-backed: {n_theorem}  "
               f"violated: {n_viol}  conjecture findings: {n_findings}  "
               f"skipped (hypothesis): {len(skips)}  elapsed: {dt:.1f}s")
    for s in skips:
        click.echo(f"  skipped {s}")
    sys.exit(_exit_code(reports))


@cmd_corpus.command("list")
def corpus_list():
    """List corpus entries without running them."""
    for e in corpus_entries():
        click.echo(e.key)


if __name__ == "__main__":
    main()
