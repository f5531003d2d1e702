"""Statistical estimation on graphs too large for exhaustive enumeration.

Randomness is counter based: sample i of a run derives every edge bit from
(seed, counter) through a SplitMix64-style mix, so results are reproducible
bit for bit from (seed, n) alone and independent of batching.  Raising an
edge probability can only turn closed edges open within a fixed stream,
which preserves monotone couplings across parameter sweeps.

Samples are held as edge columns: each edge gets a bitmask of the samples
where it is open, and events are evaluated for all samples at once by the
column evaluator of ``events``, the one the exact engine runs on periodic
columns.  Per-sample configuration masks are transposed from the columns
only where a loop needs one sample at a time: strategy runs, the witness
splits of pair queries, and the max-flow behind npaths atoms, which runs
only on the samples where the two ends are connected.  No graph size limit
applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import (EventExpr, NPathsAtom, _evaluate_columns, _flow_levels,
                     _reach_masks, _require_operands, _resolve,
                     _split_occurs, _transpose)
from .exact import Joint, SqS, _s_mask_for
from .graphs import Graph
from .strategies import Strategy

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


def _pack(bits: np.ndarray) -> int:
    """Integer whose bit i is set where bits[i] is true."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _edge_bit_columns(g: Graph, n: int, seed: int, stride: int, offset: int):
    """Per-edge bitmask over samples: bit i set when edge open in sample i."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    idx = np.arange(n, dtype=np.uint64)
    cols = []
    for j, p in enumerate(g.probs):
        u = _uniforms(seed, idx * np.uint64(stride) + np.uint64(offset + j))
        cols.append(_pack(u < p))
    return cols


def mc_prob(g: Graph, e: EventExpr, n: int, seed: int) -> Estimate:
    """Monte Carlo estimate of an event probability."""
    _resolve(e, g)
    cols = _edge_bit_columns(g, n, seed, g.n_edges, 0)
    return Estimate.from_count(_evaluate_columns(e, g, cols, n).bit_count(), n, seed)


def mc_npaths(g: Graph, u: str, v: str, n_paths: int, samples: int, seed: int) -> Estimate:
    """Monte Carlo estimate of the n-edge-disjoint-paths probability."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    return mc_prob(g, NPathsAtom(u, v, n_paths), samples, seed)


def mc_flow_tail(g: Graph, u: str, v: str, n_max: int, samples: int, seed: int) -> list[Estimate]:
    """Estimates of the disjoint-path counts 1..n_max from shared samples."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _resolve(NPathsAtom(u, v, n_max), g)
    cols = _edge_bit_columns(g, samples, seed, g.n_edges, 0)
    # max-flow runs only on the samples where u and v are connected
    levels = _flow_levels(g, cols, samples, u, v, n_max,
                          _reach_masks(g, cols, samples, [u])[u][v])
    return [Estimate.from_count(level.bit_count(), samples, seed) for level in levels]


def mc_pair(g: Graph, t: Strategy, q, n: int, seed: int) -> Estimate:
    """Monte Carlo estimate of a pair query (see the exact engine for kinds).

    The strategy runs once per sample pair.  Joint then evaluates A on the
    c1 columns and B on the spliced columns (c1 over S, c2 elsewhere); SqS
    searches the witness splits of each sample.
    """
    if isinstance(q, SqS):
        _require_operands(q.A, q.B, g)
    elif isinstance(q, Joint):
        _resolve(q.A, g)
        _resolve(q.B, g)
    else:
        raise TypeError(f"unknown pair query {q!r}")
    cols1 = _edge_bit_columns(g, n, seed, 2 * g.n_edges, 0)
    cols2 = _edge_bit_columns(g, n, seed, 2 * g.n_edges, g.n_edges)
    pairs = zip(_transpose(cols1, n), _transpose(cols2, n))
    if isinstance(q, SqS):
        hits = sum(_split_occurs(q.A, q.B, g, m1, m2, _s_mask_for(g, t, m1, m2))
                   for m1, m2 in pairs)
    else:
        s_cols = _transpose([_s_mask_for(g, t, m1, m2) for m1, m2 in pairs], g.n_edges)
        full = (1 << n) - 1
        spliced = [(c1 & s) | (c2 & (full ^ s)) for c1, c2, s in zip(cols1, cols2, s_cols)]
        hits = (_evaluate_columns(q.A, g, cols1, n) &
                _evaluate_columns(q.B, g, spliced, n)).bit_count()
    return Estimate.from_count(hits, n, seed)
