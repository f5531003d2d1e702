"""Statistical estimation on graphs too large for exhaustive enumeration.

Randomness is counter based and bit-sliced: sample i is lane i mod 64 of
group w = i // 64, and level k = 0..52 of edge j in group w is one word,
SplitMix64-mixed from the seed and the counter (w·53 + k)·stride + offset +
j + 1.  A lane's 53-bit uniform u reads its level bits from the top, and the
edge is open iff u < ceil(p·2^53), exactly u·2^-53 < p.  A lane is decided
at its first bit that differs from the threshold's (a tie is closed), so a
group mixes levels only while a lane is undecided: one at p = 1/2, about
eight for most p.  Results depend on (seed, n) alone, the columns of n
samples are the low bits of those of more, and raising p can only open
edges, which keeps monotone couplings across parameter sweeps.

Group w's words depend on w alone, so ``_blocks`` cuts the samples into
blocks of whole groups, of about ``config.BLOCK_CELLS`` sample × (vertex +
edge) cells, that draw and count alone: results do not depend on the block
size, and memory stays flat in n.  Exact enumeration reads the same constant
to cut the masks into blocks.  Within a block, samples are held as edge
columns: each edge gets a bitmask of the samples where it is open, and
events are evaluated for all of them at once by the column evaluator of
``events``, the one the exact engine runs on periodic columns, disjoint-path
counts included.  ``mc_probs`` evaluates several events together on one
sample set, sharing reach sweeps and flow levels between them, and returns
the covariance of their estimates; ``mc_prob`` is its one-event case, and
the events npaths(u,v,1..k) give a disjoint-path tail from one sample set.
A pair query reads the revealed set S as edge columns too, through the
pair evaluator that exact enumeration runs for strategies that read c2
(``exact._pair_lanes``): S is revealed on the configurations in A, chosen
by row.  No graph size limit applies; the witness search has a node budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import SizeGuardError
from .events import EventExpr, NPathsAtom, _evaluate_many, _from_byte_rows, _resolve
from .events import _reach_masks  # noqa: F401  (perfbench traces reachability by this name)
from .exact import _check_query, _pair_lanes
from .graphs import Graph
from .strategies import Strategy

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
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


def _blocks(g: Graph, n: int, seed: int = 0) -> list[tuple[int, int]]:
    """(first 64-sample group, samples) of each block of n samples: about
    config.BLOCK_CELLS sample × (vertex + edge) cells, and at least one group."""
    if n is None or seed is None or n < 1:
        raise ValueError(f"Monte Carlo needs n >= 1 samples and a seed, got {n} and {seed}")
    if n > config.MAX_SAMPLES:
        raise SizeGuardError(f"{n} samples exceed the cap of {config.MAX_SAMPLES}")
    step = 64 * max(1, config.BLOCK_CELLS // (64 * (g.n_vertices + g.n_edges)))
    return [(lo // 64, min(step, n - lo)) for lo in range(0, n, step)]


def _edge_bit_columns(g: Graph, n: int, seed: int, stride: int, offset: int, first: int = 0):
    """Per-edge bitmask over n samples from group ``first`` on: bit i set
    when the edge is open in sample 64·first + i.

    The edges of one threshold are drawn in one ``_draw_levels`` call.  An
    edge with p <= 0 or p >= 1 draws nothing.
    """
    full = (1 << n) - 1
    cols = [full if p >= 1.0 else 0 for p in g.probs]
    groups = -(-n // 64)
    ramp = np.arange(groups, dtype=np.uint64) * np.uint64(53 * stride * _GAMMA & _MASK64)
    base = _seed_base(seed)
    by_threshold = {}
    for j, p in enumerate(g.probs):
        if 0.0 < p < 1.0:
            by_threshold.setdefault(math.ceil(p * 2.0 ** 53), []).append(j)
    for threshold, edges in by_threshold.items():
        starts = np.array([base + (first * 53 * stride + offset + j + 1) * _GAMMA & _MASK64
                           for j in edges], dtype=np.uint64)
        z0 = ramp + starts[:, None]
        words = _draw_levels(z0.ravel(), threshold, stride).reshape(z0.shape)
        words[:, -1] &= np.uint64(full >> 64 * (groups - 1))  # lanes past n stay closed
        for j, col in zip(edges, _from_byte_rows(words.astype("<u8", copy=False).view(np.uint8))):
            cols[j] = col
    return cols


def _draw_levels(z0, threshold: int, stride: int):
    """Open lanes of the words whose level-0 counters are mixed from z0; the
    words with no lane tied to the threshold are dropped once most are."""
    opened = None if threshold >> 52 else np.zeros_like(z0)
    at = slice(None)  # positions in opened of the words still drawn
    z, t, tied = np.empty_like(z0), np.empty_like(z0), None
    last = 52 - ((threshold & -threshold).bit_length() - 1)  # its last set level
    for k in range(last + 1):
        np.add(z0, np.uint64(k * stride * _GAMMA & _MASK64), out=z)
        for shift, mult in ((30, _M1), (27, _M2), (31, None)):
            np.right_shift(z, np.uint64(shift), out=t)
            np.bitwise_xor(z, t, out=z)
            if mult is not None:
                np.multiply(z, mult, out=z)
        if threshold >> (52 - k) & 1:  # a 0 under the threshold's 1 opens a lane
            np.invert(z, out=t)
            if tied is not None:
                np.bitwise_and(t, tied, out=t)
            if opened is None:
                opened, t = t, np.empty_like(z0)
            else:
                opened[at] |= t
        else:  # a 1 over the threshold's 0 closes it
            np.invert(z, out=z)
        if k == last:
            break
        if tied is None:
            z, tied = np.empty_like(z0), z
        else:
            np.bitwise_and(tied, z, out=tied)
        if np.count_nonzero(tied) < tied.size // 4:
            live = np.flatnonzero(tied != 0)
            if not live.size:
                break
            at = live if isinstance(at, slice) else at[live]
            z0, tied = z0[live], tied[live]
            z, t = np.empty_like(z0), np.empty_like(z0)
    return opened


def mc_probs(g: Graph, events: list, n: int, seed: int) -> tuple[list, list]:
    """Estimates of several event probabilities from one sample set, and the
    covariance matrix of those estimates.

    The events are evaluated together on the same edge columns, so each
    reach source is swept once and each (u, v) gets one set of flow levels.
    Over the hit masks h, entry (k, l) is (popcount(h_k & h_l)/n - p_k·p_l)/n.
    """
    for e in events:
        _resolve(e, g)
    pairs = [[0] * len(events) for _ in events]
    for first, m in _blocks(g, n, seed):
        hits = _evaluate_many(events, g, _edge_bit_columns(g, m, seed, g.n_edges, 0, first), m)
        for row, hk in zip(pairs, hits):
            for l, hl in enumerate(hits):
                row[l] += (hk & hl).bit_count()
    ests = [Estimate.from_count(pairs[k][k], n, seed) for k in range(len(events))]
    cov = [[(c / n - ek.mean * el.mean) / n for c, el in zip(row, ests)]
           for row, ek in zip(pairs, ests)]
    return ests, cov


def mc_prob(g: Graph, e: EventExpr, n: int, seed: int) -> Estimate:
    """Monte Carlo estimate of an event probability."""
    return mc_probs(g, [e], n, seed)[0][0]


def mc_npaths(g: Graph, u: str, v: str, n_paths: int, samples: int, seed: int) -> Estimate:
    """Monte Carlo estimate of the n-edge-disjoint-paths probability."""
    return mc_prob(g, NPathsAtom(u, v, n_paths), samples, seed)


def mc_pair(g: Graph, t: Strategy, q, n: int, seed: int) -> Estimate:
    """Monte Carlo estimate of a pair query (see the exact engine for kinds).

    c1 and c2 draw with stride 2E at offsets 0 and E, so their counters
    never meet.  Each block of sample pairs is counted by
    ``exact._pair_lanes``: S is revealed on the configurations in A, chosen
    by row, so a user ``Strategy`` runs once per sample pair in A.
    """
    _check_query(g, q)
    e, hits = g.n_edges, 0
    for first, m in _blocks(g, n, seed):
        cols1 = _edge_bit_columns(g, m, seed, 2 * e, 0, first)
        cols2 = _edge_bit_columns(g, m, seed, 2 * e, e, first)
        hits += len(_pair_lanes(g, t, q, cols1, cols2, m))
    return Estimate.from_count(hits, n, seed)
