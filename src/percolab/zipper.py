"""Dual-measure edge spaces: trees that pick, per edge, one of two symbol
distributions, plus verification of the exchange condition that makes the
all-first-measure and all-second-measure trees extremal.

A tree assigns every edge exactly once; at each step it chooses an edge and a
measure index (1 or 2) based on the symbols generated so far, then draws a
symbol from that measure.  For an event A, write X1(C, e) / X2(C, e) for the
symbols of the first/second space that put the configuration in A when
substituted at e.  When mu1(X1) <= mu2(X2) holds for every edge and every
surrounding configuration, the probability of A is monotone in how often the
tree picks the second measure:

    P(all-1 tree in A) <= P(any tree in A) <= P(all-2 tree in A)

and the reversed condition reverses both inequalities.

Presets
-------
hk(p)      pairs of percolation bits: independent pair vs perfectly
           correlated pair (diagonal).  Drives the positive-association
           coupling checks.
vdbk(p)    single bit vs independent pair; with the paired-witness event this
           is the disjoint-occurrence bound.
strongbk(p) single edge that can be singly or doubly open (1-p, p(1-p), p^2)
           vs independent pair; doubly open edges may serve both witnesses.
colored    uniform even-parity bit triplets vs uniform triplets.
richards   two mixtures of triplet distributions; the exchange condition
           holds in the reversed direction.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import config
from .errors import PercolabError, SizeGuardError
from .exact import _split_any, truth_tables
from .graphs import Graph

# witness capability of a symbol in paired-witness events
CAP_NONE = 0     # serves no witness
CAP_ONE = 1      # may serve exactly one of the two witnesses
CAP_A = 2        # serves the first witness only
CAP_B = 3        # serves the second witness only
CAP_BOTH = 4     # may serve both witnesses at once

# capability -> (serves the first witness, serves the second, free to serve either)
_CAP_ROLES = {CAP_NONE: (False, False, False), CAP_ONE: (False, False, True),
              CAP_A: (True, False, False), CAP_B: (False, True, False),
              CAP_BOTH: (True, True, False)}


def _mass(omega: tuple, mu: tuple, symbols) -> float:
    weight = dict(zip(omega, mu))
    return math.fsum(weight[s] for s in symbols)


@dataclass(frozen=True)
class DualSpace:
    """Two finite symbol spaces with probability measures, per edge."""

    name: str
    omega1: tuple
    mu1: tuple
    omega2: tuple
    mu2: tuple
    direction: str = "forward"  # forward: P(all-1) <= P(all-2); reversed otherwise
    p: float | None = None
    caps: dict | None = None    # symbol -> CAP_* for paired-witness events

    def __post_init__(self):
        for omega, mu in ((self.omega1, self.mu1), (self.omega2, self.mu2)):
            if len(omega) != len(mu):
                raise PercolabError("measure length mismatch")
            if any(x < -1e-15 for x in mu):
                raise PercolabError("negative probability")
            if abs(math.fsum(mu) - 1.0) > config.DEFAULT_TOL:
                raise PercolabError(f"measure does not sum to 1 in preset {self.name}")

    def measure1(self, symbols) -> float:
        return _mass(self.omega1, self.mu1, symbols)

    def measure2(self, symbols) -> float:
        return _mass(self.omega2, self.mu2, symbols)

    @property
    def union_symbols(self) -> tuple:
        return tuple(dict.fromkeys(self.omega1 + self.omega2))


_PAIR_CAPS = {"00": CAP_NONE, "10": CAP_A, "01": CAP_B, "11": CAP_BOTH}


def build_preset(name: str, p: float | None = None) -> DualSpace:
    """Named dual-space constructors; hk/vdbk/strongbk require p."""
    if name in ("hk", "vdbk", "strongbk"):
        if p is None:
            raise PercolabError(f"preset {name!r} needs an edge probability p")
        if not 0.0 <= p <= 1.0:
            raise PercolabError("p outside [0,1]")
    if name == "hk":
        q = 1.0 - p
        return DualSpace(
            "hk",
            ("00", "01", "10", "11"), (q * q, q * p, p * q, p * p),
            ("00", "11"), (q, p),
            p=p)
    if name == "vdbk":
        q = 1.0 - p
        return DualSpace(
            "vdbk",
            ("0", "1"), (q, p),
            ("00", "01", "10", "11"), (q * q, q * p, p * q, p * p),
            p=p,
            caps={"0": CAP_NONE, "1": CAP_ONE, **_PAIR_CAPS})
    if name == "strongbk":
        # single space: closed / singly open / doubly open.  The singly-open
        # mass is p(1-p) so that "open at all" keeps probability p; a doubly
        # open edge may back both witnesses at once.
        q = 1.0 - p
        return DualSpace(
            "strongbk",
            ("0", "1", "2"), (q, p * q, p * p),
            ("00", "01", "10", "11"), (q * q, q * p, p * q, p * p),
            p=p,
            caps={"0": CAP_NONE, "1": CAP_ONE, "2": CAP_BOTH, **_PAIR_CAPS})
    if name == "colored":
        even = ("000", "011", "101", "110")
        full = tuple(f"{i:03b}" for i in range(8))
        return DualSpace("colored", even, (0.25,) * 4, full, (0.125,) * 8)
    if name == "richards":
        full = tuple(f"{i:03b}" for i in range(8))
        mu1 = tuple((2 / 3) * (1 / 2 if s in ("000", "111") else 0.0) + (1 / 3) * (1 / 8)
                    for s in full)
        supports = (("000", "011", "100", "111"),
                    ("000", "010", "101", "111"),
                    ("000", "001", "110", "111"))
        mu2 = tuple(math.fsum((1 / 3) * (1 / 4) for sup in supports if s in sup)
                    for s in full)
        return DualSpace("richards", full, mu1, full, mu2, direction="reversed")
    raise PercolabError(f"unknown preset {name!r}")


# ---------------------------------------------------------------------------
# Events on symbol configurations


class BowtieEvent:
    """Paired-witness event: two increasing edge events certified by witness
    sets whose per-edge symbol capabilities allow the claimed sharing.

    ``pairs`` lists (A, B) alternatives; the event is their union.
    """

    def __init__(self, g: Graph, pairs, caps):
        if caps is None:
            raise PercolabError("this preset has no paired-witness capability table")
        self.roles = {}  # symbol -> the roles of its capability
        for sym, cap in caps.items():
            if cap not in _CAP_ROLES:
                raise PercolabError(f"symbol {sym!r} has unknown witness capability {cap!r}")
            self.roles[sym] = _CAP_ROLES[cap]
        self.g = g
        tabs = truth_tables(g, [e for pair in pairs for e in pair])
        self.pairs = list(zip(tabs[::2], tabs[1::2]))
        self._answers: dict[tuple[int, int], np.ndarray] = {}  # by (A side, free)

    def __call__(self, symbols: dict) -> bool:
        g = self.g
        base_a = base_b = free = 0
        for i, eid in enumerate(g.edge_ids):  # edge i is bit i
            serves_a, serves_b, either = self.roles[symbols[eid][1]]
            base_a |= serves_a << i
            base_b |= serves_b << i
            free |= either << i
        hits = self._answers.get((base_a, free))
        if hits is None:  # split the free edges, for every B side at once
            sides = np.arange(1 << g.n_edges)
            hits = np.logical_or.reduce([_split_any(tab_a, tab_b, base_a, free, sides)
                                         for tab_a, tab_b in self.pairs])
            self._answers[base_a, free] = hits
        return bool(hits[base_b])


class ProductEvent:
    """Coordinate-wise event on digit-string symbols: layer k of the symbols
    forms a configuration that must satisfy the k-th edge event."""

    def __init__(self, g: Graph, exprs):
        self.g = g
        self.layers = list(enumerate(truth_tables(g, list(exprs))))

    def without(self, drop: int) -> "ProductEvent":
        """The same event with layer ``drop`` left unconstrained."""
        sub = copy.copy(self)
        sub.layers = [(k, tab) for k, tab in self.layers if k != drop]
        return sub

    def __call__(self, symbols: dict) -> bool:
        g = self.g
        for layer, tab in self.layers:
            mask = 0
            for eid in g.edge_ids:
                sym = symbols[eid][1]
                if len(sym) <= layer:
                    raise PercolabError("symbol too short for product event layer")
                if sym[layer] == "1":
                    mask |= 1 << g.edge_index(eid)
            if not tab[mask]:
                return False
        return True


# ---------------------------------------------------------------------------
# Trees over symbol spaces


class GeneralStrategy:
    """Policy choosing (edge, measure index) from the symbols drawn so far."""

    name = "general"

    def choose(self, prefix: tuple, g: Graph):
        raise NotImplementedError


class ConstChoice(GeneralStrategy):
    def __init__(self, which: int):
        self.which = which
        self.name = f"all-{which}"

    def choose(self, prefix, g):
        if len(prefix) == g.n_edges:
            return None
        return g.edge_ids[len(prefix)], self.which


class SplitChoice(GeneralStrategy):
    """Fixed split: listed edges from the second measure, the rest first."""

    def __init__(self, second_edges):
        self.second = frozenset(second_edges)
        self.name = f"split:{'+'.join(sorted(self.second))}"

    def choose(self, prefix, g):
        if len(prefix) == g.n_edges:
            return None
        eid = g.edge_ids[len(prefix)]
        return eid, (2 if eid in self.second else 1)


class AdaptiveChoice(GeneralStrategy):
    """First edge from measure 1; afterwards the measure index tracks whether
    the previously drawn symbol lies in a trigger set."""

    def __init__(self, trigger):
        self.trigger = frozenset(trigger)
        self.name = "adaptive"

    def choose(self, prefix, g):
        if len(prefix) == g.n_edges:
            return None
        eid = g.edge_ids[len(prefix)]
        if not prefix:
            return eid, 1
        return eid, (2 if prefix[-1][2] in self.trigger else 1)


def gen_enumerate(g: Graph, ds: DualSpace, t: GeneralStrategy) -> dict:
    """Exact distribution over symbol configurations built by the tree.

    Keys are tuples of (edge, which, symbol) sorted by edge id; values are
    probabilities summing to 1.
    """
    states = 1
    for _ in range(g.n_edges):
        states *= max(len(ds.omega1), len(ds.omega2))
        if states > config.MAX_ZIPPER_STATES:
            raise SizeGuardError("symbol-space enumeration too large")
    out: dict[tuple, float] = {}

    def rec(prefix: tuple, weight: float):
        step = t.choose(prefix, g)
        if step is None:
            if len(prefix) != g.n_edges:
                raise PercolabError("strategy stopped before assigning every edge")
            key = tuple(sorted(prefix))
            out[key] = out.get(key, 0.0) + weight
            return
        eid, which = step
        if eid not in g._eidx:
            raise PercolabError(f"strategy chose unknown edge {eid!r}")
        if any(x[0] == eid for x in prefix):
            raise PercolabError(f"strategy re-assigned edge {eid!r}")
        if which not in (1, 2):
            raise PercolabError(f"bad measure index {which!r}")
        omega, mu = (ds.omega1, ds.mu1) if which == 1 else (ds.omega2, ds.mu2)
        for sym, wt in zip(omega, mu):
            if wt:
                rec(prefix + ((eid, which, sym),), weight * wt)

    rec((), 1.0)
    return out


def event_probability(dist: dict, event) -> float:
    terms = []
    for key, wt in dist.items():
        symbols = {eid: (which, sym) for eid, which, sym in key}
        if event(symbols):
            terms.append(wt)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Condition and consequence checks


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    worst_slack: float
    worst_edge: str | None
    worst_context: tuple | None
    direction: str


def check_zipper_condition(ds: DualSpace, event_factory, g: Graph) -> ConditionReport:
    """Exhaustively verify the per-edge exchange condition for an event.

    ``event_factory(g)`` builds the event predicate.  For the forward
    direction the requirement is mu1(X1) <= mu2(X2) for every edge and every
    assignment of the other edges; reversed presets check the mirror image.
    """
    union = ds.union_symbols
    states = len(union) ** max(0, g.n_edges - 1) * g.n_edges
    if states > config.MAX_ZIPPER_STATES:
        raise SizeGuardError("condition check too large")
    event = event_factory(g)
    worst = math.inf
    at = (None, None)
    sides = ((1, ds.omega1, ds.mu1), (2, ds.omega2, ds.mu2))
    for eid in g.edge_ids:
        others = [e for e in g.edge_ids if e != eid]
        for combo in product(union, repeat=len(others)):
            symbols = {e: (0, s) for e, s in zip(others, combo)}
            m1, m2 = (_mass(omega, mu, [s for s in omega  # X1, then X2
                                        if event({**symbols, eid: (which, s)})])
                      for which, omega, mu in sides)
            slack = m2 - m1 if ds.direction == "forward" else m1 - m2
            if slack < worst:
                worst = slack
                at = (eid, combo)
    return ConditionReport(worst >= -config.DEFAULT_TOL, worst, at[0], at[1], ds.direction)


@dataclass(frozen=True)
class GenReport:
    p_all1: float
    p_mid: float
    p_all2: float
    slack_low: float   # p_mid - p_all1 for forward direction
    slack_high: float  # p_all2 - p_mid for forward direction
    ok: bool
    direction: str
    extras: dict


def check_gen_inequality(g: Graph, ds: DualSpace, t: GeneralStrategy,
                         event_factory) -> GenReport:
    """Exact three-way comparison: all-first tree, the given tree, all-second.

    For three-layer product events on the colored preset the report also
    carries the pairwise two-factor equalities (they must be exact).
    """
    event = event_factory(g)
    dists = [gen_enumerate(g, ds, tree) for tree in (ConstChoice(1), t, ConstChoice(2))]
    p1, pm, p2 = (event_probability(d, event) for d in dists)
    if ds.direction == "forward":
        lo, hi = pm - p1, p2 - pm
    else:
        lo, hi = p1 - pm, pm - p2
    extras = {}
    if isinstance(event, ProductEvent) and len(event.layers) >= 2:
        deltas = []
        for drop in range(len(event.layers)):
            sub = event.without(drop)
            q1, qm, q2 = (event_probability(d, sub) for d in dists)
            deltas.append(max(abs(q1 - qm), abs(q2 - qm)))
        extras["two_factor_max_delta"] = max(deltas)
    tol = config.DEFAULT_TOL
    return GenReport(p1, pm, p2, lo, hi, lo >= -tol and hi >= -tol, ds.direction, extras)
