"""Statistical estimation on graphs too large for exhaustive enumeration.

Randomness is counter based: sample i of a run derives every edge bit from
(seed, counter) through a SplitMix64-style mix, so results are reproducible
bit for bit from (seed, n) alone and independent of batching.  An edge of
probability p is open when the mixed 64-bit word lies below
ceil(p·2^53) << 11, which is exactly u < p for the 53-bit uniform
u = (word >> 11)·2^-53; no float is formed.  Raising an edge probability
can only turn closed edges open within a fixed stream, which preserves
monotone couplings across parameter sweeps.

Samples are held as edge columns: each edge gets a bitmask of the samples
where it is open, and events are evaluated for all samples at once by the
column evaluator of ``events``, the one the exact engine runs on periodic
columns, disjoint-path counts included.  ``mc_probs`` evaluates several
events together on one sample set, sharing reach sweeps and flow levels
between them, and returns the covariance of their estimates; ``mc_prob``
is its one-event case, and the events npaths(u,v,1..k) give a
disjoint-path tail from one sample set.  A pair query reads the revealed
set S as edge columns too: cluster-revealing strategies give them from
reachability on the c1 columns, target-stopped passes and ``rhw_walks``
from one lock-step scan of every sample's frontier, and user ``Strategy``
subclasses from one run per sample pair, with the masks transposed from and
back into columns.  Per-sample masks are otherwise
transposed only for the witness splits of SqS queries, which search one
sample at a time.  No graph size limit applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import (EventExpr, NPathsAtom, _evaluate_columns, _evaluate_many, _resolve,
                     _split_occurs, _transpose)
from .events import _reach_masks  # noqa: F401  (perfbench traces reachability by this name)
from .exact import SqS, _check_query
from .graphs import Graph
from .strategies import Strategy

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_BLOCK = 1 << 16  # samples mixed per buffer pass; a multiple of 8, so packed blocks concatenate
_WILSON_Z = 1.959963984540054  # two-sided 95%


def _seed_base(seed: int) -> int:
    """The SplitMix64 finalizer of seed + gamma, in Python ints modulo 2^64."""
    z = (seed + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * int(_M1)) & _MASK64
    z = ((z ^ (z >> 27)) * int(_M2)) & _MASK64
    return z ^ (z >> 31)


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
    """Per-edge bitmask over samples: bit i set when edge open in sample i.

    Edge j of sample i mixes the word base + (i·stride + offset + j + 1)·gamma
    mod 2^64 and compares it with the integer threshold of the module
    docstring.  Blocks of samples are mixed in place in fixed buffers.  An
    edge with p >= 1 draws nothing: its threshold 2^64 does not fit a uint64.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    size = min(_BLOCK, n)
    ramp = np.arange(size, dtype=np.uint64) * np.uint64(stride * _GAMMA & _MASK64)
    z = np.empty(size, dtype=np.uint64)
    t = np.empty(size, dtype=np.uint64)
    bits = np.empty(size, dtype=bool)
    base = _seed_base(seed)
    cols = []
    for j, p in enumerate(g.probs):
        if p <= 0.0 or p >= 1.0:
            cols.append(0 if p <= 0.0 else (1 << n) - 1)
            continue
        threshold = np.uint64(math.ceil(p * 2.0 ** 53) << 11)
        word = base + (offset + j + 1) * _GAMMA
        chunks = []
        for start in range(0, n, _BLOCK):
            np.add(ramp, np.uint64((word + start * stride * _GAMMA) & _MASK64), out=z)
            np.right_shift(z, np.uint64(30), out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, _M1, out=z)
            np.right_shift(z, np.uint64(27), out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, _M2, out=z)
            np.right_shift(z, np.uint64(31), out=t)
            np.bitwise_xor(z, t, out=z)
            np.less(z, threshold, out=bits)
            chunks.append(np.packbits(bits[:n - start], bitorder="little").tobytes())
        cols.append(int.from_bytes(b"".join(chunks), "little"))
    return cols


def mc_probs(g: Graph, events: list, n: int, seed: int) -> tuple[list, list]:
    """Estimates of several event probabilities from one sample set, and the
    covariance matrix of those estimates.

    The events are evaluated together on the same edge columns, so each
    reach source is swept once and each (u, v) gets one set of flow levels.
    Over the hit masks h, entry (k, l) is (popcount(h_k & h_l)/n - p_k·p_l)/n.
    """
    for e in events:
        _resolve(e, g)
    hits = _evaluate_many(events, g, _edge_bit_columns(g, n, seed, g.n_edges, 0), n)
    ests = [Estimate.from_count(h.bit_count(), n, seed) for h in hits]
    cov = [[((hk & hl).bit_count() / n - ek.mean * el.mean) / n for hl, el in zip(hits, ests)]
           for hk, ek in zip(hits, ests)]
    return ests, cov


def mc_prob(g: Graph, e: EventExpr, n: int, seed: int) -> Estimate:
    """Monte Carlo estimate of an event probability."""
    return mc_probs(g, [e], n, seed)[0][0]


def mc_npaths(g: Graph, u: str, v: str, n_paths: int, samples: int, seed: int) -> Estimate:
    """Monte Carlo estimate of the n-edge-disjoint-paths probability."""
    return mc_prob(g, NPathsAtom(u, v, n_paths), samples, seed)


def mc_pair(g: Graph, t: Strategy, q, n: int, seed: int) -> Estimate:
    """Monte Carlo estimate of a pair query (see the exact engine for kinds).

    The S columns come from the strategy's ``_reveal_columns``.  Joint then
    evaluates A on the c1 columns and B on the spliced columns (c1 over S,
    c2 elsewhere); SqS searches the witness splits of each sample.
    """
    _check_query(g, q)
    cols1 = _edge_bit_columns(g, n, seed, 2 * g.n_edges, 0)
    cols2 = _edge_bit_columns(g, n, seed, 2 * g.n_edges, g.n_edges)
    s_cols = t._reveal_columns(g, cols1, n, cols2)[1]
    if isinstance(q, SqS):
        hits = sum(_split_occurs(q.A, q.B, g, m1, m2, s_mask) for m1, m2, s_mask in
                   zip(_transpose(cols1, n), _transpose(cols2, n), _transpose(s_cols, n)))
    else:
        full = (1 << n) - 1
        spliced = [(c1 & s) | (c2 & (full ^ s)) for c1, c2, s in zip(cols1, cols2, s_cols)]
        hits = (_evaluate_columns(q.A, g, cols1, n) &
                _evaluate_columns(q.B, g, spliced, n)).bit_count()
    return Estimate.from_count(hits, n, seed)
