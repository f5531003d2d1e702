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

The catalog (``parse_strategy``; ``make_strategy(kind, *args)`` builds the
spec text) is made of reveal passes that share the set of queried edges.
A pass reveals from a start vertex along edges open in c1, scanning
candidates in ``id``, ``right_hand`` or ``left_hand`` order (the hand rules
need a rotation and outer anchor), and assigns ``S`` or ``Sbar`` to all it
queries, or S until it visits a target (``until:w``, ``untilany:w+x``),
which ends the run.  Passes are depth-first, or breadth-first for
``bfs_cluster``; one iterative scan (``_scan``) runs them all, with no
depth limit.

* ``dfs:v,ORDER,DEC``; ``dfs_stop_at:v,w,x`` is ``dfs:v,id,untilany:w+x``.
* ``seq:[dfs:...;dfs:...]``  passes in turn, each restarting vertex visits.
* ``stop``  no pass (S is empty); its continuation ``reveal_all:S|Sbar``
  reveals every edge in index order with one decision.
* ``rhw_walks:a,b,k``  k right-hand passes until b that run until one
  misses b (``until_miss``); no more than E + 1 of them ever run.
* ``bfs_cluster:v``  breadth-first reveal of v's open cluster, all to S.

Malformed specs raise StrategyError when built, unknown vertices when run.
The spec text is the strategy's name.

``run`` records the steps of one configuration pair; it is the public
per-pair view.  The engines read a strategy through ``_reveal_columns``
instead, which gives the queried and S sets of many configuration pairs at
once as edge columns (bit i of column j: edge j in pair i); the base class
runs the policy once per pair in ``keep`` (all without it).  Passes without
targets (``bfs_cluster``, ``dfs:v,ORDER,S|Sbar``, ``seq`` lists of them and
``stop``) and continuations of those (``reveal_all``) reveal a reach fixed
point, whatever their scan order: pass k reaches from its start over the
open edges that no earlier pass queried, and queries the unqueried edges at
the vertices it reaches.  Their ``_reveal_columns`` reads it from the
bit-parallel reachability of ``events``.  Pass lists with a target run
``_lockstep``, the pass loop of ``policy`` over ``_scan_columns``, a numpy
twin of ``_scan`` that steps the frontiers of every configuration in lock
step.

The hand rules: arriving at v along edge e, candidates are scanned starting
from the sharpest right turn, i.e. counterclockwise from e through the stored
clockwise rotation (left_hand mirrors this).  At the start vertex the scan
starts after the outer-boundary edge leaving it, so a walk with everything
open hugs the boundary.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import config
from .errors import SizeGuardError, StrategyError
from .events import _lanes, _reach_masks, _spread, _to_byte_rows, _transpose, _unpacked
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

    def _reveal_columns(self, g: Graph, cols1: list[int], n: int, cols2=None, keep=None):
        """(queried, S) edge columns of the runs over n configuration pairs,
        from one run per pair; the catalog's overrides never read c2.

        cols1 and cols2 are the edge columns of c1 and c2; cols2 None means
        c2 is empty in every pair.  A pair query passes ``keep``: S is
        revealed on the configurations in A, chosen by row, so the policy
        runs on those pairs alone and the other lanes are unspecified.
        """
        lanes = slice(None) if keep is None else _lanes(keep, n)
        m2s = _transpose(cols2, n, keep) if cols2 is not None else [0] * n
        queried, s_masks = [], []
        for m1, m2 in zip(_transpose(cols1, n, keep), m2s):
            tr = run(self, g, Configuration(g, m1), Configuration(g, m2))
            queried.append(Configuration.from_open(g, tr.queried).mask)
            s_masks.append(tr.s_mask(g))
        return tuple(_spread(_unpacked(m, g.n_edges).T, lanes, n) for m in (queried, s_masks))

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
    s_mask = Configuration.from_open(g, s_edges).mask
    return Configuration(g, splice_mask(c1.mask, c2.mask, s_mask))


def splice_mask(m1: int, m2: int, s_mask: int) -> int:
    return (m1 & s_mask) | (m2 & ~s_mask)


# ---------------------------------------------------------------------------
# Reveal passes


def _outer_leaving_edge(g: Graph, v: str) -> str:
    """Edge of the outer face cycle that leaves v (first occurrence)."""
    fs = faces(g)
    for eid, tail in fs.outer:
        if tail == v:
            return eid
    raise StrategyError(f"vertex {v!r} does not lie on the outer face")


def _candidates(g: Graph, v: str, arrival: str | None, order: str):
    """The edges at v in scan order, reached along ``arrival`` (None at the start)."""
    if order in ("id", "bfs"):  # the hot path of runs: no list is built
        return g.incident[v]
    if g.rotation is None or g.outer_anchor is None:
        raise StrategyError(f"{order} order needs a rotation and outer anchor")
    rot = g.rotation[v]
    i = rot.index(arrival if arrival is not None else _outer_leaving_edge(g, v))
    # left_hand takes clockwise successors, right_hand counterclockwise; arrival last
    step = 1 if order == "left_hand" else -1
    return [rot[(i + step * k) % len(rot)] for k in range(1, len(rot) + 1)]


def _first_candidates(g, start, order, targets):
    """The start's candidates, or None when the start is a target.  Raises
    what a run of the pass raises before its first query, in the same order:
    the start vertex, the targets, then the start's candidates."""
    if start not in g._vidx:
        raise StrategyError(f"unknown start vertex {start!r}")
    for w in targets:
        if w not in g._vidx:
            raise StrategyError(f"unknown target vertex {w!r}")
    return None if start in targets else _candidates(g, start, None, order)


def _touching(g, reach) -> list[int]:
    """Per edge, the configurations where an end of it is in the reach map."""
    return [reach[x] | reach[y] for _, x, y in g.edges]


def _scan(g, start, order, decision, targets, queried):
    """One reveal pass; returns True when a target stopped the pass.

    decision is "S" or "Sbar" applied to every queried edge; passes with
    targets always assign S (they stop as soon as a target is visited).
    Traversal follows edges open in c1 only, but closed candidates are still
    queried as they are scanned.  The frontier holds (vertex, candidates)
    entries of the visited vertices: depth-first orders read the newest, so
    they descend along each open edge as soon as it is revealed, and ``bfs``
    reads the oldest; an entry leaves when its candidates run out.
    """
    first = _first_candidates(g, start, order, targets)
    if first is None:
        return True
    visited = {start}
    frontier = deque([(start, iter(first))])
    read = 0 if order == "bfs" else -1
    while frontier:
        v, cands = frontier[read]
        e = next(cands, None)
        if e is None:
            del frontier[read]
        elif e not in queried:
            queried.add(e)
            b1, _b2 = yield (e, decision)
            if b1:
                u = g.other_end(e, v)
                if u not in visited:
                    visited.add(u)
                    if u in targets:
                        return True
                    frontier.append((u, iter(_candidates(g, u, e, order))))
    return False


def _lockstep(g, passes, cols, n, until_miss, keep=None):
    """(queried, S) edge columns of a strategy made of the given passes, on
    the n configurations c1 given as edge columns; the caller has checked
    every pass.

    The passes run in turn on the rows whose runs go on, under the stop
    rule of ``_Passes.policy``, until no row is left or a pass starts on one
    of its targets.  The rows start at the configurations in ``keep`` (all
    without it), side by side in edge-major arrays.  Passes that share
    (start, order) share a ``_pass_table``.  The callers bound n: MC scans
    one sample block at a time, and exact calls at most 2^16 configurations.
    """
    lanes = slice(None) if keep is None else _lanes(keep, n)
    open1 = np.unpackbits(_to_byte_rows(cols, n), axis=1, count=n,
                          bitorder="little").view(bool)[:, lanes]
    revealed = np.zeros((2,) + open1.shape, bool)  # queried, S
    rows = np.arange(open1.shape[1])
    tables = {}
    for start, order, decision, targets in passes:
        if not rows.size or start in targets:
            break
        if (start, order) not in tables:
            tables[start, order] = _pass_table(g, start, order)
        hit = _scan_columns(g, tables[start, order], decision, targets, open1, *revealed, rows)
        rows = rows[hit == until_miss]
    del open1  # free the kept rows before the full-width ones are built
    return tuple(_spread(half, lanes, n) for half in revealed)


def _pass_table(g, start, order):
    """The states of a pass as slots: state 0 is (start, None); state 1 + 2j
    is (x, e_j) and 2 + 2j is (y, e_j) for edge e_j = (x, y).  Slot [s, k]
    holds candidate k of state s (``_candidates``), a row running one past
    the top degree.  Gives per flat slot the candidate's edge index, the
    vertex and first slot of the state it leads to, and its own state's end
    slot; and the start's vertex index."""
    keys = [(start, None)] + [(v, e) for e, x, y in g.edges for v in (x, y)]
    here, degree = np.array([(g._vidx[v], len(g.incident[v])) for v, _ in keys]).T
    width = int(degree.max()) + 1
    edge = np.zeros((len(keys), width), np.int64)
    for row, d, (v, arrival) in zip(edge, degree, keys):
        row[:d] = [g._eidx[e] for e in _candidates(g, v, arrival, order)]
    x, y = np.array(g._u_arr)[edge], np.array(g._v_arr)[edge]
    far = x + y - here[:, None]
    ahead = (1 + 2 * edge + (far != x)) * width  # the state (far, edge)
    own_end = (np.arange(0, edge.size, width) + degree).repeat(width)
    return edge.ravel(), far.ravel(), ahead.ravel(), own_end, here[0]


def _scan_columns(g, table, decision, targets, open1, queried, s, rows):
    """Numpy twin of ``_scan``: one pass over the configurations ``rows``,
    whose columns of the [E, n] bool arrays hold c1 (open1) and the queried
    and S edges so far; returns, per row, whether a target stopped the pass.

    ``table`` is the pass's ``_pass_table``; the pass is depth-first.  Every
    configuration keeps a stack of V entries, each the slot of its state's
    next candidate.  An iteration pops each running configuration's top
    entry or queries its first candidate not yet queried: unlike ``_scan``,
    skipping a queried candidate takes no iteration of its own.
    """
    edge, far, ahead, own_end, start = table
    is_target = np.zeros(g.n_vertices, bool)
    is_target[[g._vidx[w] for w in targets]] = True
    # per-configuration stacks of V entries, flattened: entry k of row i is base[i] + k
    base = np.arange(len(rows)) * g.n_vertices
    slot = np.zeros(len(rows) * g.n_vertices, np.int64)  # state 0, (start, None), at slot 0
    visited = np.zeros(len(rows) * g.n_vertices, bool)
    visited[base + start] = True
    tail = base + 1  # the live entries of row i are base[i] .. tail[i] - 1
    stopped = np.zeros(len(rows), bool)
    q_flat, s_flat, open_flat = queried.reshape(-1), s.reshape(-1), open1.reshape(-1)
    n = open1.shape[1]
    live = np.arange(len(rows))
    while live.size:
        at = tail[live] - 1
        f = slot[at]
        ends, col = own_end[f], rows[live]
        qe = edge[f] * n + col
        k = np.flatnonzero(q_flat[qe] & (f < ends))
        while k.size:  # skip queried candidates: only these rows step on
            f[k] += 1
            qe[k] = edge[f[k]] * n + col[k]
            k = k[q_flat[qe[k]] & (f[k] < ends[k])]
        out = f >= ends
        tail[live[out]] -= 1
        i, at, f, qe = live[~out], at[~out], f[~out], qe[~out]
        slot[at] = f + 1
        q_flat[qe] = True
        if decision == S:
            s_flat[qe] = True
        v = base[i] + far[f]
        cross = open_flat[qe] & ~visited[v]
        i, f, v = i[cross], f[cross], v[cross]
        visited[v] = True
        hit = is_target[far[f]]
        stopped[i[hit]] = True
        i, f = i[~hit], f[~hit]
        top = tail[i]
        slot[top] = ahead[f]
        tail[i] = top + 1
        live = live[(tail[live] > base[live]) & ~stopped[live]]
    return stopped


class _Passes(Strategy):
    """(start, order, decision, targets) passes sharing the queried edges,
    read through ``_passes(g)``.  A run ends at the first pass that reaches
    a target, or with ``until_miss`` at the first that misses; either way
    also at a pass that starts on its own target.  The lock-step scan is
    depth-first: ``_build`` makes ``bfs`` passes only alone and without
    targets, which take the reach path."""

    until_miss = False

    def __init__(self, passes):
        self.passes = tuple(passes)

    def _passes(self, g):
        return self.passes

    def policy(self, g):
        queried = set()
        for start, order, decision, targets in self._passes(g):
            hit = yield from _scan(g, start, order, decision, targets, queried)
            if hit != self.until_miss or start in targets:
                return

    def _reveal_columns(self, g, cols, n, cols2=None, keep=None):
        passes = self._passes(g)
        # each distinct pass raises what its run raises, before either engine
        for start, order, _, targets in dict.fromkeys(passes):
            _first_candidates(g, start, order, targets)
        if any(targets for *_, targets in passes):
            return _lockstep(g, passes, cols, n, self.until_miss, keep)
        # reach sweeps on every configuration cost less than picking out keep
        full = (1 << n) - 1
        queried = [0] * g.n_edges
        s = [0] * g.n_edges
        for start, order, decision, _ in passes:
            free = [col & (full ^ q) for col, q in zip(cols, queried)]
            reach = _reach_masks(g, free, n, (start,))[start]
            for j, touch in enumerate(_touching(g, reach)):
                new = touch & (full ^ queried[j])
                queried[j] |= new
                if decision == S:
                    s[j] |= new
        return queried, s


class _RhwWalks(_Passes):
    """k right-hand walks from a toward b, all to S: a pass list that runs
    until a walk misses b.  A walk that reaches b != a queries a new edge,
    so at most E + 1 walks run; a == b ends the run at the first walk."""

    until_miss = True

    def __init__(self, a, b, k):
        super().__init__(((a, "right_hand", S, frozenset((b,))),))
        self.k = k

    def _passes(self, g):
        return self.passes * min(self.k, g.n_edges + 1)


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

    def _reveal_columns(self, g, cols1, n, cols2=None, keep=None):
        queried, s = self.base._reveal_columns(g, cols1, n, cols2, keep)
        full = (1 << n) - 1
        if self.decision == S:
            s = [sj | (full ^ qj) for sj, qj in zip(s, queried)]
        return [full] * g.n_edges, s


def extend_with_rest(base: Strategy, decision: str = SBAR) -> Strategy:
    if decision not in (S, SBAR):
        raise StrategyError(f"bad decision {decision!r}")
    return _ExtendRest(base, decision)


# ---------------------------------------------------------------------------
# Construction

_USAGE = {
    "stop": "stop",
    "reveal_all": "reveal_all:S|Sbar",
    "bfs_cluster": "bfs_cluster:v",
    "dfs": "dfs:v,id|right_hand|left_hand,S|Sbar|until:w|untilany:w+x",
    "dfs_stop_at": "dfs_stop_at:v,w[,x...]",
    "seq": "seq:[dfs:...;dfs:...]",
    "rhw_walks": "rhw_walks:a,b,k with k >= 0",
}


def _pass(text):
    """(start, order, decision, targets) of one ``dfs:v,ORDER,DEC`` spec."""
    head, _, args = text.partition(":")
    start, order, dec = args.split(",")
    if head != "dfs" or not start or order not in ("id", "right_hand", "left_hand"):
        raise ValueError
    if dec in (S, SBAR):
        return start, order, dec, frozenset()
    mode, _, names = dec.partition(":")
    targets = names.split("+")
    if all(targets) and (mode == "untilany" or mode == "until" and len(targets) == 1):
        return start, order, S, frozenset(targets)
    raise ValueError


def _build(spec):
    """The strategy a well-formed spec names; ValueError otherwise."""
    kind, colon, rest = spec.partition(":")
    args = rest.split(",") if colon else []
    if not all(args):
        raise ValueError
    if kind == "stop" and not args:
        return _Passes(())
    if kind == "reveal_all" and len(args) == 1 and args[0] in (S, SBAR):
        return _ExtendRest(_Passes(()), args[0])
    if kind == "bfs_cluster" and len(args) == 1:
        return _Passes(((args[0], "bfs", S, frozenset()),))
    if kind == "dfs":
        return _Passes((_pass(spec),))
    if kind == "seq" and rest[:1] + rest[-1:] == "[]":
        return _Passes(map(_pass, rest[1:-1].split(";")))
    if kind == "dfs_stop_at" and len(args) >= 2:
        return _Passes(((args[0], "id", S, frozenset(args[1:])),))
    if kind == "rhw_walks" and len(args) == 3 and int(args[2]) >= 0:
        return _RhwWalks(args[0], args[1], int(args[2]))
    raise ValueError


def parse_strategy(spec: str) -> Strategy:
    """Build a catalog strategy from its spec text, which becomes its name.

    A malformed spec raises StrategyError here, before any run; vertex
    names are checked against the graph when the strategy runs.
    """
    spec = spec.strip()
    kind = spec.partition(":")[0]
    if kind not in _USAGE:
        raise StrategyError(f"unknown strategy kind {kind!r} in {spec!r}")
    try:
        t = _build(spec)
    except ValueError:
        raise StrategyError(
            f"malformed strategy spec {spec!r}; expected {_USAGE[kind]}") from None
    t.name = spec
    return t


def make_strategy(kind: str, *args) -> Strategy:
    """parse_strategy of ``kind:arg,arg,...``; seq takes one list of dfs specs."""
    if kind == "seq":
        args = ["[" + ";".join(items) + "]" for items in args]
    return parse_strategy(kind + (":" + ",".join(map(str, args)) if args else ""))


# ---------------------------------------------------------------------------
# Continuation checking


def trace_signature(t: Strategy, g: Graph, c1: Configuration, c2: Configuration):
    return tuple((st.edge, st.decision) for st in run(t, g, c1, c2).steps)


def verify_continuation(t1: Strategy, t2: Strategy, g: Graph) -> bool:
    """True when t1's trace is a prefix of t2's on every configuration pair.

    Strategies that never read c2 are checked against c2 = 0 only: 2^E
    pairs, else 4^E.  More than 2^MAX_CONTINUATION_EDGES pairs are refused.
    """
    n = g.n_edges
    c2_bits = n if t1.uses_c2 or t2.uses_c2 else 0
    if n + c2_bits > config.MAX_CONTINUATION_EDGES:
        raise SizeGuardError("continuation check limited to "
                             f"2^{config.MAX_CONTINUATION_EDGES} configuration pairs")
    for m1, m2 in product(range(1 << n), range(1 << c2_bits)):
        c1, c2 = Configuration(g, m1), Configuration(g, m2)
        s1 = trace_signature(t1, g, c1, c2)
        s2 = trace_signature(t2, g, c1, c2)
        if s2[:len(s1)] != s1:
            return False
    return True
