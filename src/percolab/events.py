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
from functools import cache, lru_cache, reduce
from itertools import combinations
from operator import and_, or_
from types import MappingProxyType

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


_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(\d+)|([,|&!()U])|(\S))")
_RESERVED = {"npaths"}  # a bare U is always the union operator
# the parser spends about three frames per '(' and the walkers one per
# level, so nesting stays far below the interpreter's recursion limit
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.toks: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(text):
            name, num, sym, bad = m.groups()
            if bad:
                raise EventSyntaxError(f"unexpected character {bad!r}", m.start(4))
            kind = "int" if num else "name" if name and name != "U" else "op"
            self.toks.append((kind, m[m.lastindex], m.start(m.lastindex)))
        self.toks.append(("eof", "", len(text)))
        self.i = 0
        self.depth = 0  # '(' and '!' open around the current factor

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        t = self.peek()
        if kind and t[0] != kind or value and t[1] != value:
            raise EventSyntaxError(f"expected {value or kind}, got {t[1] or 'end of input'}", t[2])
        self.i += 1
        return t

    def items(self, item, sep):
        """item (sep item)*, as a list."""
        xs = [item()]
        while self.peek()[:2] == ("op", sep):
            self.i += 1
            xs.append(item())
        return xs

    def expr(self):
        xs = self.items(self.term, "U")
        return xs[0] if len(xs) == 1 else Union(tuple(xs))

    def term(self):
        xs = self.items(self.factor, "&")
        return xs[0] if len(xs) == 1 else Intersect(tuple(xs))

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
        first = self.i
        groups = self.items(lambda: tuple(self.items(self.name, ",")), "|")
        seen = set()
        for kind, v, pos in self.toks[first:self.i]:
            if kind == "name" and v in seen:
                raise EventSyntaxError(f"vertex {v!r} is named twice", pos)
            seen.add(v)
        return PartitionAtom(tuple(groups))

    def name(self):
        t = self.take("name")
        if t[1] in _RESERVED:
            raise EventSyntaxError(f"{t[1]!r} is reserved", t[2])
        return t[1]


@lru_cache
def parse_event(text: str) -> EventExpr:
    """The tree of an event text; trees are immutable, so a repeated text
    shares one."""
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


def _transpose(rows: list[int], width: int, keep: int | None = None) -> list[int]:
    """Bit-matrix transpose: bit i of output j is bit j of rows[i].

    Turns edge columns (width = n configurations) into per-configuration
    masks, and masks (width = E edges) back into columns.  With ``keep``,
    only the outputs j whose bit is set in keep are built, in order.
    """
    bits = _unpacked(rows, width)
    if keep is not None:
        bits = bits[:, _unpacked([keep], width)[0].view(bool)]
    return _from_byte_rows(np.packbits(bits.T, axis=1, bitorder="little"))


def _lanes(mask: int, width: int) -> np.ndarray:
    """The positions of the set bits of a width-bit mask, ascending."""
    return np.flatnonzero(_unpacked([mask], width)[0])


def _spread(bits: np.ndarray, lanes, width: int) -> list[int]:
    """Width-bit rows with bits[j, i] at bit lanes[i] of row j, 0 elsewhere."""
    out = np.zeros((len(bits), width), bool)
    out[:, lanes] = bits
    return _from_byte_rows(np.packbits(out, axis=1, bitorder="little"))


def _unpacked(rows: list[int], width: int) -> np.ndarray:
    """uint8 [len(rows), width]: bit j of rows[i] at (i, j)."""
    return np.unpackbits(_to_byte_rows(rows, width), axis=1, bitorder="little")[:, :width]


def _reach_masks(g: Graph, cols: list[int], n: int, sources, targets=None) -> dict:
    """source vertex -> {vertex -> bitmask of configurations where connected},
    over the vertices in ``targets``, or over every vertex.  The sweeps skip
    the edges closed in every configuration (column 0), about two fifths of
    the edges in the few-configuration columns of the witness search."""
    full = (1 << n) - 1
    out = {}
    edge_list = [(col, ui, vi) for col, ui, vi in zip(cols, g._u_arr, g._v_arr) if col]
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


@cache
def _plan(events: tuple) -> tuple[dict, list, frozenset]:
    """What ``_evaluate_many`` reads from the events alone: the flow cap per
    (u, v), the reach sources and the named vertices.  Events are immutable,
    so each tuple of them is planned once per process."""
    found = [a for e in events for a in atoms(e)]
    nps = [a for a in found if isinstance(a, NPathsAtom)]
    caps = {(a.u, a.v): a.n for a in sorted(nps, key=lambda a: a.n) if a.n > 1}  # largest n
    reps = sorted({grp[0] for a in found if isinstance(a, PartitionAtom)
                   for grp in a.groups} | {a.u for a in nps if (a.u, a.v) not in caps})
    return caps, reps, frozenset(v for a in found for v in _named(a))


def _evaluate_many(events: list, g: Graph, cols: list[int], n: int) -> list[int]:
    """Per (resolved) event, the bitmask of the n column configurations where
    it holds.

    A partition atom reads reach from the first vertex of each group.
    npaths atoms read the flow levels of their (u, v), built once up to the
    largest n asked for when some n > 1 is; otherwise npaths(u,v,1) reads
    u-v reach, which is level 1.  Reach is swept once from each vertex that
    needs it, and kept only to the vertices the events name.  These caps,
    sources and names come from ``_plan``, once per tuple of events.
    """
    caps, reps, named = _plan(tuple(events))
    levels = {(u, v): _flow_levels(g, cols, n, u, v, cap) for (u, v), cap in caps.items()}
    reach = _reach_masks(g, cols, n, reps, named)
    full = (1 << n) - 1

    def atom(a):
        if isinstance(a, NPathsAtom):
            got = levels[a.u, a.v] if (a.u, a.v) in levels else [reach[a.u][a.v]]
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
    the event's packed hit bits (so up to ``MAX_EXACT_EDGES`` edges): for
    each edge j, the configurations with j closed are compared with the
    same configurations with j opened, a byte at a time.  Mask m is bit
    m % 8 of byte m // 8, so edges 0-2 pair the bits of each byte by a shift
    and a mask, and each higher edge pairs the two halves of runs of bytes.
    A graph of under 3 edges leaves the spare bits of its one byte 0, which
    compare equal.
    """
    m = _syntactic(e)
    if m is not Monotonicity.NONE or g is None:
        return m
    from .exact import _hit_bits
    bits = _hit_bits(g, [e])[0]
    on = off = False  # some opening turns e on; some turns it off
    for j in range(g.n_edges):
        if j < 3:
            flips = bits >> (1 << j)
            flips ^= bits
            flips &= (0x55, 0x33, 0x0F)[j]  # the bits of a byte with edge j closed
            closed = bits
        else:
            halves = bits.reshape(-1, 2, 1 << (j - 3))
            closed = halves[:, 0]
            flips = closed ^ halves[:, 1]
        # flips: the configurations with j closed where opening j changes e
        changed = flips & closed
        off = off or bool(changed.any())
        changed ^= flips
        on = on or bool(changed.any())
        if on and off:
            return Monotonicity.NONE
    return Monotonicity.DECREASING if off else Monotonicity.INCREASING


@cache
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
                             f"and its hit bits are refused: {exc}") from exc
    if m is not Monotonicity.INCREASING:
        raise MonotonicityError(f"{what} must be increasing, got {m.value}: {unparse(e)}")


# ---------------------------------------------------------------------------
# Disjoint occurrence by a bounded search over witness splits
#
# For increasing events A and B, two disjoint witnesses inside open(c) exist
# exactly when open(c) splits into W and open(c) minus W with A holding on W
# alone and B holding on the rest alone, so a search over the splits is a
# complete decision procedure.  The search gives the open S-edges of c1 to
# A's side or to B's, one edge at a time.  Both events are increasing, so a
# partial split bounds all of its completions:
#
# - none succeeds when A fails with every undecided edge on its side, or B
#   with every undecided edge on its side (the reach bounds);
# - an undecided edge that A cannot do without must go to A, one that B
#   cannot do without must go to B, and an edge that both need fails the
#   node;
# - the split succeeds once A holds on its assigned edges alone, because B
#   then holds with every undecided edge on its side, and in the mirror case;
# - an undecided edge on a tree that hangs off A's usable edges and holds
#   none of A's vertices goes to B, since A reads the same without it, and
#   in the mirror case.
#
# A node with at most ``_LEAF_OPEN`` undecided edges is a leaf: their 2^k
# splits are evaluated at once, as the periodic columns over those edges,
# much faster on few edges than further search.  Any other node is a search
# node and applies the rules above, the dangling trees first; when those
# leave at most ``_LEAF_OPEN`` edges undecided, the node is decided as a leaf
# on the rest.  A root search node first runs a degree bound
# (``_degree_bound``): no split succeeds where some vertex has fewer usable
# edges than the two operands' witnesses take there together.  Every node
# counts against ``config.MAX_WITNESS_NODES``; a query past it is refused.

_LEAF_OPEN = 10  # undecided edges that the column split takes over
_leaf_columns = cache(_columns)  # the periodic columns of a leaf, by its width


def _require_operands(A: EventExpr, B: EventExpr, g: Graph) -> None:
    """Validate a disjoint-occurrence query: increasing operands on g's vertices."""
    require_increasing(A, g, "first operand")
    require_increasing(B, g, "second operand")
    _resolve(A, g)
    _resolve(B, g)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _split_columns(A: EventExpr, B: EventExpr, g: Graph, base_a: int, rest: int,
                   base_b: int) -> bool:
    """Does some split of the edges of rest give A on its part plus base_a,
    and B on the other part plus base_b?  All 2^k splits at once: column i
    is periodic over the i-th edge of rest, A reads the columns and B their
    complements."""
    k = rest.bit_count()
    n = 1 << k
    full = (1 << n) - 1
    cols_a = [full if base_a >> j & 1 else 0 for j in range(g.n_edges)]
    cols_b = [full if base_b >> j & 1 else 0 for j in range(g.n_edges)]
    for j, col in zip(_bits(rest), _leaf_columns(k)):
        cols_a[j], cols_b[j] = col, full ^ col
    t_a = _evaluate_columns(A, g, cols_a, n)
    return bool(t_a) and bool(t_a & _evaluate_columns(B, g, cols_b, n))


def _probe(e: EventExpr, g: Graph, base: int, und: int) -> tuple[bool, bool, int]:
    """The bounds of one side in one evaluator call: does e hold on base | und
    and on base alone, and which undecided edges does it fail without?

    Configuration 0 is base | und, 1 is base, and 2 + i is base | und less
    the i-th undecided edge.
    """
    idx = _bits(und)
    n = len(idx) + 2
    full = (1 << n) - 1
    cols = [full if base >> j & 1 else 0 for j in range(g.n_edges)]
    for i, j in enumerate(idx):
        cols[j] = full ^ 2 ^ (4 << i)
    got = _evaluate_columns(e, g, cols, n)
    need = sum(1 << j for i, j in enumerate(idx) if not got >> (i + 2) & 1)
    return bool(got & 1), bool(got & 2), need


def _degrees(g: Graph, *masks: int) -> list[int]:
    """Per vertex index, the edges at it in each mask, summed over the masks."""
    deg = [0] * g.n_vertices
    for mask in masks:
        for j in _bits(mask):
            deg[g._u_arr[j]] += 1
            deg[g._v_arr[j]] += 1
    return deg


@cache
def _vertex_needs(e: EventExpr) -> MappingProxyType:
    """Vertex -> the number of pairwise edge-disjoint paths that every
    witness of an increasing event carries from it: n at both ends of
    ``npaths(u,v,n)``, 1 at each vertex of a one-group partition.  A union
    needs the least of its items, at vertices that every item needs, and an
    intersection the most.  Complements and many-group partitions need
    nothing.  Computed once per event, so the mapping is read-only."""
    def atom(a):
        if isinstance(a, NPathsAtom):
            return {a.u: a.n, a.v: a.n} if a.u != a.v else {}
        grp = a.groups[0]
        return dict.fromkeys(grp, 1) if len(a.groups) == 1 and len(grp) > 1 else {}

    def join(ds):
        return {x: min(d[x] for d in ds) for x in reduce(and_, (d.keys() for d in ds))}

    def meet(ds):
        return {x: max(d.get(x, 0) for d in ds) for x in reduce(or_, (d.keys() for d in ds))}

    return MappingProxyType(_fold(e, atom, join, meet, lambda _: {}))


def _degree_bound(A: EventExpr, B: EventExpr, g: Graph, fixed_a: int, fixed_b: int,
                  s_open: int) -> bool:
    """False when, at some vertex x that both operands need (``_vertex_needs``),
    the edges at x cannot carry both needs: A's paths and B's leave x on
    distinct open S-edges, and an edge outside S serves A when open in c1
    and B when open in c2."""
    need_a, need_b = _vertex_needs(A), _vertex_needs(B)
    deg = _degrees(g, s_open, fixed_a, fixed_b)
    return all(need_a[x] + need_b[x] <= deg[g.vertex_index(x)]
               for x in need_a.keys() & need_b.keys())


def _dangling(g: Graph, usable: int, named: set) -> int:
    """The edges of usable on trees that hang off the rest at one vertex and
    hold no named vertex.  No path between named vertices uses them, so an
    event on those vertices reads the same with or without them."""
    inc = [[j for j in js if usable >> j & 1] for js in g._incident_idx]
    deg = [len(js) for js in inc]
    ends = [x for x, d in enumerate(deg) if d == 1 and x not in named]
    out = 0
    while ends:
        x = ends.pop()
        live = [j for j in inc[x] if not out >> j & 1]
        if not live:  # the other end of a lone edge, already cut off
            continue
        j, = live
        out |= 1 << j
        y = g._u_arr[j] + g._v_arr[j] - x
        deg[y] -= 1
        if deg[y] == 1 and y not in named:
            ends.append(y)
    return out


def _split_occurs(A: EventExpr, B: EventExpr, g: Graph, m1: int, m2: int,
                  s_mask: int) -> bool:
    """The witness split of ``sq_s_occurrence`` on masks, operands validated.

    A reads the open c1 edges outside S plus its side of the open S-edges of
    c1, and B the open c2 edges outside S plus its side.  Every node of the
    search is a leaf or a search node (block comment).  It runs depth first,
    A's side first; a search node pushes its forced edges back as the next
    node, or else branches on the undecided edge that meets the most decided
    edges.
    """
    s_open = s_mask & m1
    fixed_a, fixed_b = m1 & ~s_mask, m2 & ~s_mask
    nodes = 0
    stack = [(0, 0, s_open)]  # (A's side, B's side, undecided) of the nodes to visit
    while stack:
        a_side, b_side, und = stack.pop()
        search = und.bit_count() > _LEAF_OPEN
        if search and not nodes:  # a root above the leaf size
            if not _degree_bound(A, B, g, fixed_a, fixed_b, s_open):
                return False
            named_a, named_b = ({g.vertex_index(v) for v in _plan((e,))[2]} for e in (A, B))
        nodes += 1
        if nodes > config.MAX_WITNESS_NODES:
            raise SizeGuardError(
                f"witness search needs more than {config.MAX_WITNESS_NODES} nodes")
        if search:
            to_b = und & _dangling(g, fixed_a | a_side | und, named_a)
            to_a = und & ~to_b & _dangling(g, fixed_b | b_side | und, named_b)
            a_side, b_side, und = a_side | to_a, b_side | to_b, und ^ (to_a | to_b)
        if und.bit_count() <= _LEAF_OPEN:
            if _split_columns(A, B, g, fixed_a | a_side, und, fixed_b | b_side):
                return True
            continue
        up_a, low_a, need_a = _probe(A, g, fixed_a | a_side, und)
        if not up_a:
            continue
        up_b, low_b, need_b = _probe(B, g, fixed_b | b_side, und)
        if not up_b or need_a & need_b:
            continue
        if low_a or low_b:
            return True
        if need_a | need_b:
            stack.append((a_side | need_a, b_side | need_b, und ^ (need_a | need_b)))
            continue
        deg = _degrees(g, fixed_a | a_side | fixed_b | b_side)
        e = 1 << max(_bits(und), key=lambda j: deg[g._u_arr[j]] + deg[g._v_arr[j]])
        stack += [(a_side, b_side | e, und ^ e), (a_side | e, b_side, und ^ e)]
    return False


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
