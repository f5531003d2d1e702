"""Adaptive edge-revealing strategies and the splice operation.

A strategy is a deterministic policy that reveals edges one at a time,
assigning each revealed edge to the set S or its complement, and may stop at
any point; unrevealed edges land in the complement.  A run drives the policy
against a pair of configurations (c1, c2): both bits of each queried edge are
revealed to the policy, but every strategy in the built-in catalog branches
on the c1 bit alone (``uses_c2`` is False).

Policies are generators: they yield (edge_id, decision) and receive the pair
of revealed bits via send().  This makes adaptedness structural: a policy
only ever sees what it has queried.

Catalog (see ``make_strategy`` / ``parse_strategy``):

* ``bfs_cluster:v``       breadth-first reveal of v's open cluster, all to S.
* ``dfs:v,ORDER,DEC``     depth-first reveal from v.  ORDER is ``id``,
  ``right_hand`` or ``left_hand`` (the hand rules need a rotation and outer
  anchor); DEC is ``S``, ``Sbar``, ``until:w`` or ``untilany:w+x`` (reveal
  to S and stop once the target is visited).
* ``seq:[dfs:...;dfs:...]`` several depth-first passes sharing the set of
  queried edges; each pass restarts vertex visits.
* ``rhw_walks:a,b,k``     k successive right-hand walks from a toward b,
  everything queried goes to S; later walks skip edges already queried.
* ``dfs_stop_at:a,b,c``   sugar for ``dfs:a,id,untilany:b+c``.
* ``stop``                query nothing (S is empty).
* ``reveal_all:DEC``      query every edge in index order with one decision.

The hand rules: arriving at v along edge e, candidates are scanned starting
from the sharpest right turn, i.e. counterclockwise from e through the stored
clockwise rotation (left_hand mirrors this).  At the start vertex the scan
starts after the outer-boundary edge leaving it, so a walk with everything
open hugs the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import config
from .errors import SizeGuardError, StrategyError
from .graphs import Configuration, Graph, faces

S = "S"
SBAR = "Sbar"


@dataclass(frozen=True)
class Step:
    edge: str
    decision: str
    bit1: bool
    bit2: bool


@dataclass(frozen=True)
class RunTrace:
    """Ordered record of one strategy run; S is exactly the S-decided edges."""

    steps: tuple

    @property
    def s_edges(self) -> frozenset:
        return frozenset(st.edge for st in self.steps if st.decision == S)

    @property
    def queried(self) -> tuple:
        return tuple(st.edge for st in self.steps)

    def s_mask(self, g: Graph) -> int:
        m = 0
        for st in self.steps:
            if st.decision == S:
                m |= 1 << g.edge_index(st.edge)
        return m


class Strategy:
    """Base class; subclasses implement policy(g) as a bit-fed generator."""

    name = "strategy"
    uses_c2 = False

    def policy(self, g: Graph):
        raise NotImplementedError

    def __repr__(self):
        return f"<Strategy {self.name}>"


def run(t: Strategy, g: Graph, c1: Configuration, c2: Configuration) -> RunTrace:
    """Drive the policy against (c1, c2), validating the strategy contract."""
    if c1.graph is not g or c2.graph is not g:
        raise StrategyError("configurations belong to a different graph")
    steps = []
    queried = set()
    gen = t.policy(g)
    try:
        item = next(gen)
        while True:
            edge, decision = item
            if edge not in g._eidx:
                raise StrategyError(f"policy queried unknown edge {edge!r}")
            if edge in queried:
                raise StrategyError(f"policy re-queried edge {edge!r}")
            if decision not in (S, SBAR):
                raise StrategyError(f"bad decision {decision!r}")
            queried.add(edge)
            b1, b2 = c1[edge], c2[edge]
            steps.append(Step(edge, decision, b1, b2))
            item = gen.send((b1, b2))
    except StopIteration:
        pass
    return RunTrace(tuple(steps))


def splice(c1: Configuration, c2: Configuration, s_edges) -> Configuration:
    """Hybrid configuration: c1 on S, c2 elsewhere."""
    g = c1.graph
    if c2.graph is not g:
        raise ValueError("configurations belong to different graphs")
    s_mask = 0
    for eid in s_edges:
        s_mask |= 1 << g.edge_index(eid)
    return Configuration(g, (c1.mask & s_mask) | (c2.mask & ~s_mask))


def splice_mask(m1: int, m2: int, s_mask: int) -> int:
    return (m1 & s_mask) | (m2 & ~s_mask)


# ---------------------------------------------------------------------------
# Shared depth-first machinery


def _rh_candidates(g: Graph, v: str, arrival: str, mirror: bool):
    rot = g.rotation[v]
    d = len(rot)
    i = rot.index(arrival)
    if mirror:  # left hand: clockwise successors, arrival last
        return [rot[(i + k) % d] for k in range(1, d + 1)]
    return [rot[(i - k) % d] for k in range(1, d + 1)]


def _outer_leaving_edge(g: Graph, v: str) -> str:
    """Edge of the outer face cycle that leaves v (first occurrence)."""
    fs = faces(g)
    for eid, tail in fs.outer:
        if tail == v:
            return eid
    raise StrategyError(f"vertex {v!r} does not lie on the outer face")


def _candidates(g: Graph, v: str, arrival: str | None, order: str):
    if order == "id":
        return g.incident[v]
    if order in ("right_hand", "left_hand"):
        if g.rotation is None or g.outer_anchor is None:
            raise StrategyError(f"{order} order needs a rotation and outer anchor")
        pretend = arrival if arrival is not None else _outer_leaving_edge(g, v)
        return _rh_candidates(g, v, pretend, mirror=(order == "left_hand"))
    raise StrategyError(f"unknown order {order!r}")


def _dfs_pass(g, start, order, decision, targets, queried):
    """One depth-first reveal; returns True when a target stopped the pass.

    decision is "S" or "Sbar" applied to every queried edge; passes with
    targets always assign S (they stop as soon as a target is visited).
    Traversal follows edges open in c1 only, but closed candidates are still
    queried as they are scanned.
    """
    if start not in g._vidx:
        raise StrategyError(f"unknown start vertex {start!r}")
    for w in targets:
        if w not in g._vidx:
            raise StrategyError(f"unknown target vertex {w!r}")
    if start in targets:
        return True
    visited = {start}

    def go(v, arrival):
        for e in _candidates(g, v, arrival, order):
            if e in queried:
                continue
            queried.add(e)
            b1, _b2 = yield (e, decision)
            if b1:
                u = g.other_end(e, v)
                if u not in visited:
                    visited.add(u)
                    if u in targets:
                        return True
                    if (yield from go(u, e)):
                        return True
        return False

    return (yield from go(start, None))


class _Dfs(Strategy):
    def __init__(self, start, order, decision_spec):
        kind = decision_spec[0]
        if kind not in (S, SBAR, "until", "until_any"):
            raise StrategyError(f"unknown dfs decision {kind!r}")
        self.start = start
        self.order = order
        self.spec = decision_spec
        self.name = f"dfs:{start},{order},{_dec_text(decision_spec)}"

    def policy(self, g):
        kind = self.spec[0]
        if kind in (S, SBAR):
            decision, targets = kind, frozenset()
        else:
            decision, targets = S, frozenset(self.spec[1])
        yield from _dfs_pass(g, self.start, self.order, decision, targets, set())


class _Seq(Strategy):
    """Several depth-first passes sharing the queried-edge set."""

    def __init__(self, subs):
        self.subs = tuple(subs)
        for s in self.subs:
            if not isinstance(s, _Dfs):
                raise StrategyError("seq takes dfs strategies")
        self.name = "seq:[" + ";".join(s.name for s in self.subs) + "]"

    def policy(self, g):
        queried = set()
        for sub in self.subs:
            kind = sub.spec[0]
            if kind in (S, SBAR):
                decision, targets = kind, frozenset()
            else:
                decision, targets = S, frozenset(sub.spec[1])
            stopped = yield from _dfs_pass(g, sub.start, sub.order, decision,
                                           targets, queried)
            if stopped:
                return


class _BfsCluster(Strategy):
    """Reveal every edge with an end in the start vertex's open cluster, to S."""

    def __init__(self, v):
        self.start = v
        self.name = f"bfs_cluster:{v}"

    def policy(self, g):
        if self.start not in g._vidx:
            raise StrategyError(f"unknown start vertex {self.start!r}")
        visited = {self.start}
        queue = [self.start]
        qi = 0
        queried = set()
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for e in g.incident[v]:
                if e in queried:
                    continue
                queried.add(e)
                b1, _b2 = yield (e, S)
                if b1:
                    u = g.other_end(e, v)
                    if u not in visited:
                        visited.add(u)
                        queue.append(u)


class _RhwWalks(Strategy):
    """k right-hand walks from a toward b; everything queried goes to S."""

    def __init__(self, a, b, k):
        if k < 0:
            raise StrategyError("walk count must be >= 0")
        self.a, self.b, self.k = a, b, int(k)
        self.name = f"rhw_walks:{a},{b},{k}"

    def policy(self, g):
        queried = set()
        for _ in range(self.k):
            reached = yield from _dfs_pass(g, self.a, "right_hand", S,
                                           frozenset((self.b,)), queried)
            if not reached:
                return


class _Stop(Strategy):
    name = "stop"

    def policy(self, g):
        return
        yield  # pragma: no cover


class _RevealAll(Strategy):
    def __init__(self, decision):
        if decision not in (S, SBAR):
            raise StrategyError(f"bad decision {decision!r}")
        self.decision = decision
        self.name = f"reveal_all:{decision}"

    def policy(self, g):
        for e in g.edge_ids:
            _ = yield (e, self.decision)


class _ExtendRest(Strategy):
    """Run a base strategy, then reveal every remaining edge with one decision."""

    def __init__(self, base, decision=SBAR):
        self.base = base
        self.decision = decision
        self.uses_c2 = base.uses_c2
        self.name = f"cont:[{base.name}],{decision}"

    def policy(self, g):
        queried = set()
        gen = self.base.policy(g)
        try:
            item = next(gen)
            while True:
                queried.add(item[0])
                bits = yield item
                item = gen.send(bits)
        except StopIteration:
            pass
        for e in g.edge_ids:
            if e not in queried:
                _ = yield (e, self.decision)


def extend_with_rest(base: Strategy, decision: str = SBAR) -> Strategy:
    return _ExtendRest(base, decision)


def _dec_text(spec) -> str:
    if spec[0] in (S, SBAR):
        return spec[0]
    if spec[0] == "until":
        return f"until:{spec[1][0]}"
    return "untilany:" + "+".join(sorted(spec[1]))


# ---------------------------------------------------------------------------
# Construction


def make_strategy(kind: str, *args) -> Strategy:
    if kind == "bfs_cluster":
        (v,) = args
        return _BfsCluster(v)
    if kind == "dfs":
        start, order, dec = args
        return _Dfs(start, order, _parse_decision(dec))
    if kind == "seq":
        return _Seq([s if isinstance(s, _Dfs) else _dfs_from_spec(s) for s in args[0]])
    if kind == "rhw_walks":
        a, b, k = args
        return _RhwWalks(a, b, int(k))
    if kind == "dfs_stop_at":
        start, targets = args[0], args[1:]
        if not targets:
            raise StrategyError("dfs_stop_at needs at least one target")
        return _Dfs(start, "id", ("until_any", frozenset(targets)))
    if kind == "stop":
        return _Stop()
    if kind == "reveal_all":
        (dec,) = args
        return _RevealAll(dec)
    raise StrategyError(f"unknown strategy kind {kind!r}")


def _parse_decision(text):
    if isinstance(text, tuple):
        return text
    if text == "S":
        return (S,)
    if text == "Sbar":
        return (SBAR,)
    if text.startswith("until:"):
        return ("until", (text[len("until:"):],))
    if text.startswith("untilany:"):
        return ("until_any", frozenset(text[len("untilany:"):].split("+")))
    raise StrategyError(f"unknown dfs decision {text!r}")


def _dfs_from_spec(text: str) -> _Dfs:
    if not text.startswith("dfs:"):
        raise StrategyError(f"seq items must be dfs specs, got {text!r}")
    parts = text[len("dfs:"):].split(",", 2)
    if len(parts) != 3:
        raise StrategyError(f"dfs spec needs start,order,decision: {text!r}")
    return _Dfs(parts[0], parts[1], _parse_decision(parts[2]))


def parse_strategy(spec: str) -> Strategy:
    """Build a catalog strategy from its CLI string form."""
    spec = spec.strip()
    if spec == "stop":
        return _Stop()
    kind, _, rest = spec.partition(":")
    if kind == "seq":
        if not (rest.startswith("[") and rest.endswith("]")):
            raise StrategyError("seq spec looks like seq:[dfs:...;dfs:...]")
        return _Seq([_dfs_from_spec(x) for x in rest[1:-1].split(";") if x])
    if kind == "dfs":
        return _dfs_from_spec(spec)
    if kind == "bfs_cluster":
        return make_strategy("bfs_cluster", rest)
    if kind == "rhw_walks":
        a, b, k = rest.split(",")
        return make_strategy("rhw_walks", a, b, int(k))
    if kind == "dfs_stop_at":
        parts = rest.split(",")
        return make_strategy("dfs_stop_at", *parts)
    if kind == "reveal_all":
        return make_strategy("reveal_all", rest)
    raise StrategyError(f"unknown strategy spec {spec!r}")


# ---------------------------------------------------------------------------
# Continuation checking


def trace_signature(t: Strategy, g: Graph, c1: Configuration, c2: Configuration):
    return tuple((st.edge, st.decision) for st in run(t, g, c1, c2).steps)


def verify_continuation(t1: Strategy, t2: Strategy, g: Graph) -> bool:
    """True when t1's trace is a prefix of t2's on every configuration pair."""
    if g.n_edges > config.MAX_CONTINUATION_EDGES:
        raise SizeGuardError(
            f"continuation check limited to {config.MAX_CONTINUATION_EDGES} edges")
    n = g.n_edges
    # strategies that never read c2 are checked against c2 = 0 only
    c2_masks = range(1 << n) if t1.uses_c2 or t2.uses_c2 else (0,)
    for m1, m2 in product(range(1 << n), c2_masks):
        c1, c2 = Configuration(g, m1), Configuration(g, m2)
        s1 = trace_signature(t1, g, c1, c2)
        s2 = trace_signature(t2, g, c1, c2)
        if s2[:len(s1)] != s1:
            return False
    return True
