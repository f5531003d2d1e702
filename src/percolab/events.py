"""Connection-event expressions: parsing, evaluation, monotonicity, witnesses.

Grammar (ASCII)::

    expr      := term ('U' term)*
    term      := factor ('&' factor)*
    factor    := '!' factor | '(' expr ')' | atom
    atom      := partition | 'npaths(' name ',' name ',' int ')'
    partition := group ('|' group)*
    group     := name (',' name)*

Names match [A-Za-z_][A-Za-z0-9_]*; 'U' and 'npaths' are reserved.  The
partition bar binds tighter than '&', which binds tighter than 'U'; '!' is
prefix negation.  At most 100 '(' and '!' may be open at once.

A partition atom holds when every group sits inside one open cluster and
distinct groups sit in distinct clusters.  ``npaths(u,v,n)`` holds when the
open subgraph carries n pairwise edge-disjoint u-v paths, decided by unit
capacity max-flow.

One walker, ``_fold``, knows the shapes of unions, intersections and
complements: printing, atom lists, syntactic monotonicity and the column
evaluator are folds of the tree.  That evaluator decides every
configuration set, held as one n-bit integer per edge (bit i set when the
edge is open in configuration i): one configuration for ``evaluate`` and
``evaluate_mask``, samples for Monte Carlo, periodic columns for
enumeration, monotonicity and the witness splits of disjoint occurrence.
Partition atoms read bit-parallel reachability; npaths atoms read the
levels of one max-flow that augments on the columns, for every
configuration at once.  The tests keep an independent per-mask reference
(cluster labels and a per-mask max-flow) in ``tests/oracles.py``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_, or_

import numpy as np

from . import config
from .errors import (EvaluationError, EventSyntaxError, MonotonicityError,
                     SizeGuardError)
from .graphs import Configuration, Graph


@dataclass(frozen=True)
class PartitionAtom:
    groups: tuple  # tuple of tuples of vertex names


@dataclass(frozen=True)
class NPathsAtom:
    u: str
    v: str
    n: int


@dataclass(frozen=True)
class Union:
    items: tuple


@dataclass(frozen=True)
class Intersect:
    items: tuple


@dataclass(frozen=True)
class Complement:
    item: object


EventExpr = object  # any of the five node types above


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NONE = "none"


_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(\d+)|([,|&!()U]))")
_RESERVED = {"U", "npaths"}
# the parser spends about three frames per '(' and the walkers one per
# level, so nesting stays far below the interpreter's recursion limit
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise EventSyntaxError(f"unexpected character {stripped[0]!r}",
                                       len(text) - len(stripped))
            name, num, sym = m.groups()
            at = m.start(1) if name else m.start(2) if num else m.start(3)
            if name == "U":
                self.toks.append(("op", "U", at))
            elif name:
                self.toks.append(("name", name, at))
            elif num:
                self.toks.append(("int", num, at))
            else:
                self.toks.append(("op", sym, at))
            pos = m.end()
        self.i = 0
        self.depth = 0  # '(' and '!' open around the current factor

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "", len(self.text))

    def take(self, kind=None, value=None):
        t = self.peek()
        if kind and t[0] != kind or value and t[1] != value:
            raise EventSyntaxError(f"expected {value or kind}, got {t[1] or 'end of input'}", t[2])
        self.i += 1
        return t

    def expr(self):
        items = [self.term()]
        while self.peek()[:2] == ("op", "U"):
            self.take()
            items.append(self.term())
        return items[0] if len(items) == 1 else Union(tuple(items))

    def term(self):
        items = [self.factor()]
        while self.peek()[:2] == ("op", "&"):
            self.take()
            items.append(self.factor())
        return items[0] if len(items) == 1 else Intersect(tuple(items))

    def factor(self):
        t = self.peek()
        if t[:2] not in (("op", "!"), ("op", "(")):
            return self.atom()
        self.take()
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise EventSyntaxError(f"more than {_MAX_NESTING} nested '(' or '!'", t[2])
        if t[1] == "!":
            e = Complement(self.factor())
        else:
            e = self.expr()
            self.take("op", ")")
        self.depth -= 1
        return e

    def atom(self):
        t = self.peek()
        if t[0] != "name":
            raise EventSyntaxError(f"expected an atom, got {t[1] or 'end of input'}", t[2])
        if t[1] == "npaths":
            self.take()
            self.take("op", "(")
            u = self.name()
            self.take("op", ",")
            v = self.name()
            self.take("op", ",")
            ntok = self.take("int")
            self.take("op", ")")
            n = int(ntok[1])
            if n < 1:
                raise EventSyntaxError("npaths needs n >= 1", ntok[2])
            return NPathsAtom(u, v, n)
        return self.partition()

    def name(self):
        t = self.take("name")
        if t[1] in _RESERVED:
            raise EventSyntaxError(f"{t[1]!r} is reserved", t[2])
        return t[1]

    def partition(self):
        groups = [self.group()]
        while self.peek()[:2] == ("op", "|"):
            self.take()
            groups.append(self.group())
        seen = set()
        for grp in groups:
            for v in grp:
                if v in seen:
                    raise EventSyntaxError(f"vertex {v!r} appears in two groups")
                seen.add(v)
        return PartitionAtom(tuple(groups))

    def group(self):
        names = [self.name()]
        while self.peek()[:2] == ("op", ","):
            self.take()
            names.append(self.name())
        return tuple(names)


def parse_event(text: str) -> EventExpr:
    p = _Parser(text)
    e = p.expr()
    t = p.peek()
    if t[0] != "eof":
        raise EventSyntaxError(f"trailing input {t[1]!r}", t[2])
    return e


def _fold(e: EventExpr, atom, join, meet, neg):
    """The one walk over an expression tree, bottom up: ``atom(a)`` at each
    partition or npaths atom, ``join`` and ``meet`` over the list of folded
    items of a union and an intersection, ``neg`` over the folded item of a
    complement."""
    if isinstance(e, (PartitionAtom, NPathsAtom)):
        return atom(e)
    if isinstance(e, Union):
        return join([_fold(x, atom, join, meet, neg) for x in e.items])
    if isinstance(e, Intersect):
        return meet([_fold(x, atom, join, meet, neg) for x in e.items])
    if isinstance(e, Complement):
        return neg(_fold(e.item, atom, join, meet, neg))
    raise TypeError(f"not an event expression: {e!r}")


def unparse(e: EventExpr) -> str:
    """Canonical text for an expression; parse(unparse(e)) == e."""
    # a part is (text, binding): 0 union, 1 intersection, 2 other; looser parts get parens
    def wrap(parts, tight):
        return [f"({text})" if binding < tight else text for text, binding in parts]

    def atom(a):
        if isinstance(a, NPathsAtom):
            return f"npaths({a.u},{a.v},{a.n})", 2
        return "|".join(",".join(grp) for grp in a.groups), 2

    return _fold(e, atom,
                 lambda xs: (" U ".join(wrap(xs, 1)), 0),
                 lambda xs: (" & ".join(wrap(xs, 2)), 1),
                 lambda x: ("!" + wrap([x], 2)[0], 2))[0]


def atoms(e: EventExpr) -> list:
    """The partition and npaths atoms of an expression, left to right."""
    def concat(lists):
        return [a for xs in lists for a in xs]
    return _fold(e, lambda a: [a], concat, concat, lambda xs: xs)


def _named(a) -> tuple:
    """The vertices a partition or npaths atom names."""
    return (a.u, a.v) if isinstance(a, NPathsAtom) else sum(a.groups, ())


def _resolve(e: EventExpr, g: Graph):
    for a in atoms(e):
        if isinstance(a, NPathsAtom) and a.n < 1:
            raise ValueError(f"npaths needs n >= 1, got {a.n}")
        for v in _named(a):
            if v not in g._vidx:
                raise EvaluationError(f"event references unknown vertex {v!r}")


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_mask(e: EventExpr, g: Graph, mask: int) -> bool:
    """Truth of the (resolved) event on one configuration mask."""
    return bool(_evaluate_columns(e, g, [mask >> j & 1 for j in range(g.n_edges)], 1))


def evaluate(e: EventExpr, g: Graph, c: Configuration) -> bool:
    """Truth of the event on one configuration."""
    if c.graph is not g:
        raise EvaluationError("configuration belongs to a different graph")
    _resolve(e, g)
    return evaluate_mask(e, g, c.mask)


# ---------------------------------------------------------------------------
# Bit-parallel evaluation on configuration columns


def _columns(n_edges: int) -> list[int]:
    """Periodic edge columns over all 2^E masks: bit m of column j is bit j of m."""
    n = 1 << n_edges
    nbytes = max(1, n >> 3)
    full = (1 << n) - 1
    cols = []
    for j in range(n_edges):
        if j < 3:
            pattern = (b"\xaa", b"\xcc", b"\xf0")[j] * nbytes
        else:
            half = 1 << (j - 3)
            pattern = (bytes(half) + b"\xff" * half) * (nbytes // (2 * half))
        cols.append(int.from_bytes(pattern, "little") & full)
    return cols


def _to_byte_rows(rows: list[int], width: int) -> np.ndarray:
    """Read-only uint8 [len(rows), ceil(width / 8)]: the rows, little-endian."""
    nbytes = (width + 7) // 8
    data = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    return np.frombuffer(data, dtype=np.uint8).reshape(len(rows), nbytes)


def _from_byte_rows(rows: np.ndarray) -> list[int]:
    """The ints of ``_to_byte_rows`` rows."""
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _transpose(rows: list[int], width: int) -> list[int]:
    """Bit-matrix transpose: bit i of output j is bit j of rows[i].

    Turns edge columns (width = n configurations) into per-configuration
    masks, and masks (width = E edges) back into columns.
    """
    bits = np.unpackbits(_to_byte_rows(rows, width), axis=1, bitorder="little")
    return _from_byte_rows(np.packbits(bits[:, :width].T, axis=1, bitorder="little"))


def _reach_masks(g: Graph, cols: list[int], n: int, sources, targets=None) -> dict:
    """source vertex -> {vertex -> bitmask of configurations where connected},
    over the vertices in ``targets``, or over every vertex."""
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
                # configurations where the edge is open and one end is reached
                t = (reach[ui] ^ reach[vi]) & col
                if t:
                    reach[ui] |= t
                    reach[vi] |= t
                    changed = True
        out[s] = {v: reach[g.vertex_index(v)] for v in targets or g.vertices}
    return out


def _flow_levels(g: Graph, cols: list[int], n: int, u: str, v: str, cap: int) -> list[int]:
    """Entry k-1: bitmask of the n column configurations with at least k
    pairwise edge-disjoint open u-v paths, for k up to min(cap, deg u, deg v).

    Deeper levels are 0, or every configuration when u == v.  Unit-capacity
    augmenting paths run on all configurations at once.  Arcs 2j and 2j+1
    cross edge j in its two directions, and ``flow[x]`` holds the
    configurations where edge j carries flow along arc x.  Round k grows the
    residual reach of u, from the configurations of level k-1, and records in
    ``into[x]`` where arc x first reached its head; the configurations that
    reach v form level k, and each augments along its arrival arcs, walked
    back from v.
    """
    depth = min(cap, g.degree(u), g.degree(v))
    if u == v:
        return [(1 << n) - 1] * depth
    s, t = g.vertex_index(u), g.vertex_index(v)
    arcs = [arc for a, b in zip(g._u_arr, g._v_arr) for arc in ((a, b), (b, a))]
    flow = [0] * len(arcs)
    levels = []
    alive = (1 << n) - 1
    while len(levels) < depth:
        # flow runs on open edges only, so col ^ f is col & ~f
        res = [cols[x >> 1] ^ f for x, f in enumerate(flow)]
        walk = len(levels) + 1 < depth  # no walk back after the last level
        into = [0] * len(arcs)
        reach = [0] * g.n_vertices
        reach[s] = alive
        changed = True
        while changed:
            changed = False
            for x, (a, b) in enumerate(arcs):
                new = reach[a] & res[x]
                new ^= new & reach[b]
                if new:
                    reach[b] |= new
                    if walk:
                        into[x] |= new
                    changed = True
        alive = reach[t]
        if not alive:
            break
        levels.append(alive)
        if not walk:
            break
        at = [0] * g.n_vertices  # configurations whose walk back is at each vertex
        at[t] = alive
        moved = True
        while moved:
            moved = False
            for x, (a, b) in enumerate(arcs):
                step = at[b] & into[x]
                if step:
                    undo = step & flow[x ^ 1]  # cancels flow the other way
                    flow[x ^ 1] ^= undo
                    flow[x] |= step ^ undo
                    at[b] ^= step
                    at[a] |= step
                    moved = True
    return levels


def _evaluate_columns(e: EventExpr, g: Graph, cols: list[int], n: int) -> int:
    """Bitmask of the n column configurations where the (resolved) event holds."""
    return _evaluate_many([e], g, cols, n)[0]


def _evaluate_many(events: list, g: Graph, cols: list[int], n: int) -> list[int]:
    """Per (resolved) event, the bitmask of the n column configurations where
    it holds.

    A partition atom reads reach from the first vertex of each group.
    npaths(u,v,1) atoms read u-v reach; the others read the flow levels of
    their (u, v).  The events share the work: reach is swept once from each
    such vertex, and kept only to the vertices the events name, and flow
    levels are computed once per distinct (u, v), up to the largest n asked
    for.
    """
    found = [a for e in events for a in atoms(e)]
    nps = [a for a in found if isinstance(a, NPathsAtom)]
    # reach starts from the first vertex of every partition group and from
    # the first end of every npaths(u,v,1) atom
    reps = sorted({grp[0] for a in found if isinstance(a, PartitionAtom)
                   for grp in a.groups} | {a.u for a in nps if a.n == 1})
    reach = _reach_masks(g, cols, n, reps, {v for a in found for v in _named(a)})
    full = (1 << n) - 1
    caps = {(a.u, a.v): a.n for a in sorted(nps, key=lambda a: a.n) if a.n > 1}  # largest n
    levels = {(u, v): _flow_levels(g, cols, n, u, v, cap) for (u, v), cap in caps.items()}

    def atom(a):
        if isinstance(a, NPathsAtom):
            got = [reach[a.u][a.v]] if a.n == 1 else levels[a.u, a.v]
            return got[a.n - 1] if a.n <= len(got) else full if a.u == a.v else 0
        acc = full
        for grp in a.groups:
            for v in grp[1:]:
                acc &= reach[grp[0]][v]
        for x, y in combinations([grp[0] for grp in a.groups], 2):
            acc &= full ^ reach[x][y]
        return acc

    return [_fold(e, atom, lambda xs: reduce(or_, xs, 0), lambda xs: reduce(and_, xs, full),
                  full.__xor__) for e in events]


# ---------------------------------------------------------------------------
# Monotonicity


def monotonicity(e: EventExpr, g: Graph | None = None) -> Monotonicity:
    """Syntactic monotonicity classification, with an exhaustive fallback.

    Without a graph the answer is purely syntactic and may be NONE even for
    monotone events.  With a graph a NONE verdict is settled exactly from
    the truth table (so up to ``MAX_EXACT_EDGES`` edges): for each edge j,
    the configurations with j closed are compared with the same
    configurations with j opened.
    """
    m = _syntactic(e)
    if m is not Monotonicity.NONE or g is None:
        return m
    from .exact import truth_table
    tab = truth_table(g, e)
    # axis 1 of view j is bit j of the mask: 0 with edge j closed, 1 open
    views = [tab.reshape(-1, 2, 1 << j) for j in range(g.n_edges)]
    if all((v[:, 0] <= v[:, 1]).all() for v in views):
        return Monotonicity.INCREASING
    if all((v[:, 0] >= v[:, 1]).all() for v in views):
        return Monotonicity.DECREASING
    return Monotonicity.NONE


def _syntactic(e) -> Monotonicity:
    inc, dec, none = Monotonicity.INCREASING, Monotonicity.DECREASING, Monotonicity.NONE

    def atom(a):
        if isinstance(a, NPathsAtom) or len(a.groups) == 1:
            return inc
        return dec if all(len(grp) == 1 for grp in a.groups) else none

    def same(kinds):  # a union or intersection of like items keeps their kind
        return kinds[0] if len(set(kinds)) == 1 else none

    return _fold(e, atom, same, same, {inc: dec, dec: inc, none: none}.get)


def require_increasing(e: EventExpr, g: Graph, what: str = "event") -> None:
    try:
        m = monotonicity(e, g)
    except SizeGuardError as exc:
        raise SizeGuardError(f"{what} {unparse(e)} is not syntactically monotone, "
                             f"and its truth table is refused: {exc}") from exc
    if m is not Monotonicity.INCREASING:
        raise MonotonicityError(f"{what} must be increasing, got {m.value}: {unparse(e)}")


# ---------------------------------------------------------------------------
# Disjoint occurrence by witness splits
#
# For increasing events A and B, two disjoint witnesses inside open(c) exist
# exactly when open(c) splits into W and open(c) minus W with A holding on W
# alone and B holding on the rest alone.  Enumerating splits of the open set
# is therefore a complete decision procedure.  The 2^k splits of k open
# edges are evaluated at once, as the periodic columns over those edges.


def _require_operands(A: EventExpr, B: EventExpr, g: Graph) -> None:
    """Validate a disjoint-occurrence query: increasing operands on g's vertices."""
    require_increasing(A, g, "first operand")
    require_increasing(B, g, "second operand")
    _resolve(A, g)
    _resolve(B, g)


def _split_occurs(A: EventExpr, B: EventExpr, g: Graph, m1: int, m2: int,
                  s_mask: int) -> bool:
    """The witness split of ``sq_s_occurrence`` on masks, operands validated.

    Column i of the split set is periodic over the i-th open S-edge of c1.
    A reads those columns plus the open c1 edges outside S; B reads their
    complements plus the open c2 edges outside S.
    """
    s_open = s_mask & m1
    k = s_open.bit_count()
    if k > config.MAX_WITNESS_OPEN:
        raise SizeGuardError(
            f"more than {config.MAX_WITNESS_OPEN} open edges in witness search")
    n = 1 << k
    full = (1 << n) - 1
    fixed_a, fixed_b = m1 & ~s_mask, m2 & ~s_mask
    cols_a = [full if fixed_a >> j & 1 else 0 for j in range(g.n_edges)]
    cols_b = [full if fixed_b >> j & 1 else 0 for j in range(g.n_edges)]
    for j, col in zip([j for j in range(g.n_edges) if s_open >> j & 1], _columns(k)):
        cols_a[j], cols_b[j] = col, full ^ col
    t_a = _evaluate_columns(A, g, cols_a, n)
    return bool(t_a) and bool(t_a & _evaluate_columns(B, g, cols_b, n))


def disjoint_occurrence(A: EventExpr, B: EventExpr, g: Graph, c: Configuration) -> bool:
    """A and B occur on disjoint open edge sets of c (both must be increasing)."""
    return sq_s_occurrence(A, B, g, c, c, g.edge_ids)


def sq_s_occurrence(A: EventExpr, B: EventExpr, g: Graph,
                    c1: Configuration, c2: Configuration, s_edges) -> bool:
    """Disjoint occurrence relative to a revealed set S.

    A must occur in c1 and B in the c1-over-S / c2-over-complement hybrid,
    with the two witnesses allowed to overlap only outside S.  Equivalent
    split form: some W inside S-and-open(c1) has A holding on W plus the
    open c1 edges outside S, and B holding on the remaining open c1 edges of
    S plus the open c2 edges outside S.
    """
    if c1.graph is not g or c2.graph is not g:
        raise EvaluationError("configurations belong to a different graph")
    _require_operands(A, B, g)
    return _split_occurs(A, B, g, c1.mask, c2.mask, Configuration.from_open(g, s_edges).mask)
