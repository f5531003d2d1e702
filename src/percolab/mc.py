"""Statistical estimation on graphs too large for exhaustive enumeration.

Randomness is counter based: sample i of a run derives every edge bit from
(seed, counter) through a SplitMix64-style mix, so results are reproducible
bit for bit from (seed, n) alone and independent of batching.  Raising an
edge probability can only turn closed edges open within a fixed stream,
which preserves monotone couplings across parameter sweeps.

Connectivity events are evaluated for all samples at once: each edge gets a
bitmask of samples where it is open, and cluster reachability is propagated
with big-integer AND/OR sweeps.  The exact engine runs the same evaluator on
periodic columns that enumerate every configuration.  Events containing
npaths atoms fall back to a per-sample max-flow loop, on graphs of at most
63 edges, since each sampled configuration is packed into one uint64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError
from .events import (Complement, EventExpr, Intersect, NPathsAtom,
                     PartitionAtom, Union, atoms, evaluate_mask, open_maxflow,
                     _resolve)
from .graphs import Configuration, Graph
from .strategies import Strategy, run, splice_mask

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_WILSON_Z = 1.959963984540054  # two-sided 95%


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _seed_base(seed: int) -> np.uint64:
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA
    return _mix_array(np.array([z], dtype=np.uint64))[0]


def _uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in [0, 1) for an array of uint64 counters."""
    z = _seed_base(seed) + (counters + np.uint64(1)) * _GAMMA
    bits = _mix_array(z)
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


@dataclass(frozen=True)
class Estimate:
    """Sample mean with a Wilson 95% interval; reproducible from (seed, n)."""

    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    n: int
    seed: int

    @classmethod
    def from_count(cls, hits: int, n: int, seed: int) -> "Estimate":
        p = hits / n
        se = math.sqrt(p * (1.0 - p) / n)
        z = _WILSON_Z
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
        return cls(p, se, max(0.0, center - half), min(1.0, center + half), n, seed)


# ---------------------------------------------------------------------------
# Sampling


def _edge_bit_columns(g: Graph, n: int, seed: int, stride: int, offset: int):
    """Per-edge bitmask over samples: bit i set when edge open in sample i."""
    idx = np.arange(n, dtype=np.uint64)
    cols = []
    pad = (-n) % 8
    for j, p in enumerate(g.probs):
        u = _uniforms(seed, idx * np.uint64(stride) + np.uint64(offset + j))
        bits = u < p
        if pad:
            bits = np.concatenate([bits, np.zeros(pad, dtype=bool)])
        # bit i of the python int must be sample i
        packed = np.packbits(bits, bitorder="little").tobytes()
        cols.append(int.from_bytes(packed, "little"))
    return cols


def _sample_masks(g: Graph, n: int, seed: int, stride: int, offset: int) -> np.ndarray:
    """Per-sample configuration masks as uint64 (graphs up to 63 edges)."""
    if g.n_edges >= 64:
        raise SizeGuardError(
            f"per-sample configuration masks limited to 63 edges, got {g.n_edges}")
    idx = np.arange(n, dtype=np.uint64)
    masks = np.zeros(n, dtype=np.uint64)
    for j, p in enumerate(g.probs):
        u = _uniforms(seed, idx * np.uint64(stride) + np.uint64(offset + j))
        masks |= (u < p).astype(np.uint64) << np.uint64(j)
    return masks


def _reach_masks(g: Graph, cols: list[int], n: int, sources) -> dict:
    """source vertex -> {vertex -> bitmask of samples where connected}."""
    full = (1 << n) - 1
    out = {}
    edge_list = [(cols[g.edge_index(e)], g.vertex_index(u), g.vertex_index(v))
                 for e, u, v in g.edges]
    for s in sources:
        reach = [0] * g.n_vertices
        reach[g.vertex_index(s)] = full
        changed = True
        while changed:
            changed = False
            for col, ui, vi in edge_list:
                # samples where the edge is open and exactly one end is reached
                t = (reach[ui] ^ reach[vi]) & col
                if t:
                    reach[ui] |= t
                    reach[vi] |= t
                    changed = True
        out[s] = {v: reach[g.vertex_index(v)] for v in g.vertices}
    return out


def _group_reps(e: EventExpr) -> list[str]:
    """First vertex of every partition group: the reach sources an event reads."""
    return sorted({grp[0] for a in atoms(e) if isinstance(a, PartitionAtom)
                   for grp in a.groups})


def _compile_bitparallel(e: EventExpr, g: Graph, reach: dict, full: int,
                         npaths: dict | None = None) -> int:
    """Bitmask of the columns' configurations where the event holds.

    ``reach`` comes from ``_reach_masks`` over ``_group_reps(e)``; npaths
    atoms are read from ``npaths`` (atom -> bitmask), when given.
    """
    if isinstance(e, PartitionAtom):
        acc = full
        reps = [grp[0] for grp in e.groups]
        for grp in e.groups:
            r = grp[0]
            for v in grp[1:]:
                acc &= reach[r][v]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                acc &= full ^ reach[reps[i]][reps[j]]
        return acc
    if isinstance(e, NPathsAtom) and npaths is not None:
        return npaths[e]
    if isinstance(e, Union):
        acc = 0
        for x in e.items:
            acc |= _compile_bitparallel(x, g, reach, full, npaths)
        return acc
    if isinstance(e, Intersect):
        acc = full
        for x in e.items:
            acc &= _compile_bitparallel(x, g, reach, full, npaths)
        return acc
    if isinstance(e, Complement):
        return full ^ _compile_bitparallel(e.item, g, reach, full, npaths)
    raise TypeError(f"cannot bit-compile {e!r}")


def mc_prob(g: Graph, e: EventExpr, n: int, seed: int) -> Estimate:
    """Monte Carlo estimate of an event probability."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    _resolve(e, g)
    if any(isinstance(a, NPathsAtom) for a in atoms(e)):
        masks = _sample_masks(g, n, seed, g.n_edges, 0)
        hits = sum(1 for m in masks.tolist() if evaluate_mask(e, g, int(m)))
        return Estimate.from_count(hits, n, seed)
    cols = _edge_bit_columns(g, n, seed, g.n_edges, 0)
    reach = _reach_masks(g, cols, n, _group_reps(e))
    full = (1 << n) - 1
    hits = _compile_bitparallel(e, g, reach, full).bit_count()
    return Estimate.from_count(hits, n, seed)


def mc_npaths(g: Graph, u: str, v: str, n_paths: int, samples: int, seed: int) -> Estimate:
    """Monte Carlo estimate of the n-edge-disjoint-paths probability."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    masks = _sample_masks(g, samples, seed, g.n_edges, 0)
    hits = 0
    for m in masks.tolist():
        if open_maxflow(g, int(m), u, v, cap=n_paths) >= n_paths:
            hits += 1
    return Estimate.from_count(hits, samples, seed)


def mc_flow_tail(g: Graph, u: str, v: str, n_max: int, samples: int, seed: int) -> list[Estimate]:
    """Estimates of the disjoint-path counts 1..n_max from shared samples."""
    masks = _sample_masks(g, samples, seed, g.n_edges, 0)
    counts = [0] * (n_max + 1)
    for m in masks.tolist():
        f = min(open_maxflow(g, int(m), u, v, cap=n_max), n_max)
        counts[f] += 1
    out = []
    tail = samples
    for k in range(1, n_max + 1):
        tail -= counts[k - 1]
        out.append(Estimate.from_count(tail, samples, seed))
    return out


def mc_pair(g: Graph, t: Strategy, q, n: int, seed: int) -> Estimate:
    """Monte Carlo estimate of a pair query (see the exact engine for kinds)."""
    from .events import sq_s_occurrence
    from .exact import Joint, SqS

    if isinstance(q, SqS):
        from .events import require_increasing
        require_increasing(q.A, g, "first operand")
        require_increasing(q.B, g, "second operand")
    elif not isinstance(q, Joint):
        raise TypeError(f"unknown pair query {q!r}")
    m1s = _sample_masks(g, n, seed, 2 * g.n_edges, 0)
    m2s = _sample_masks(g, n, seed, 2 * g.n_edges, g.n_edges)
    hits = 0
    for m1, m2 in zip(m1s.tolist(), m2s.tolist()):
        c1 = Configuration(g, int(m1))
        c2 = Configuration(g, int(m2))
        s_mask = run(t, g, c1, c2).s_mask(g)
        if isinstance(q, Joint):
            if evaluate_mask(q.A, g, int(m1)) and \
               evaluate_mask(q.B, g, splice_mask(int(m1), int(m2), s_mask)):
                hits += 1
        else:
            s_edges = [e for e in g.edge_ids if s_mask >> g.edge_index(e) & 1]
            if sq_s_occurrence(q.A, q.B, g, c1, c2, s_edges):
                hits += 1
    return Estimate.from_count(hits, n, seed)
