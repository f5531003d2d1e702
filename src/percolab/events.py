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
prefix negation.

A partition atom holds when every group sits inside one open cluster and
distinct groups sit in distinct clusters.  ``npaths(u,v,n)`` holds when the
open subgraph carries n pairwise edge-disjoint u-v paths, decided by unit
capacity max-flow.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from . import config
from .errors import (EvaluationError, EventSyntaxError, MonotonicityError,
                     SizeGuardError)
from .graphs import Configuration, Graph, cluster_labels


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
        if t[:2] == ("op", "!"):
            self.take()
            return Complement(self.factor())
        if t[:2] == ("op", "("):
            self.take()
            e = self.expr()
            self.take("op", ")")
            return e
        return self.atom()

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


def unparse(e: EventExpr) -> str:
    """Canonical text for an expression; parse(unparse(e)) == e."""
    if isinstance(e, PartitionAtom):
        return "|".join(",".join(grp) for grp in e.groups)
    if isinstance(e, NPathsAtom):
        return f"npaths({e.u},{e.v},{e.n})"
    if isinstance(e, Union):
        return " U ".join(_wrap(x, for_union=True) for x in e.items)
    if isinstance(e, Intersect):
        return " & ".join(_wrap(x) for x in e.items)
    if isinstance(e, Complement):
        return "!" + _wrap(e.item)
    raise TypeError(f"not an event expression: {e!r}")


def _wrap(e, for_union=False):
    text = unparse(e)
    if isinstance(e, Union) or (isinstance(e, Intersect) and not for_union):
        return f"({text})"
    return text


def atoms(e: EventExpr):
    """The partition and npaths atoms of an expression, left to right."""
    if isinstance(e, (PartitionAtom, NPathsAtom)):
        yield e
    elif isinstance(e, (Union, Intersect)):
        for x in e.items:
            yield from atoms(x)
    elif isinstance(e, Complement):
        yield from atoms(e.item)
    else:
        raise TypeError(f"not an event expression: {e!r}")


def _resolve(e: EventExpr, g: Graph):
    for a in atoms(e):
        names = (a.u, a.v) if isinstance(a, NPathsAtom) else sum(a.groups, ())
        for v in names:
            if v not in g._vidx:
                raise EvaluationError(f"event references unknown vertex {v!r}")


# ---------------------------------------------------------------------------
# Unit-capacity max-flow on the open subgraph (edge-disjoint paths)


def open_maxflow(g: Graph, mask: int, u: str, v: str, cap: int | None = None) -> int:
    """Number of pairwise edge-disjoint open u-v paths (stops early at cap)."""
    if u == v:
        return 1 << 30
    s = g.vertex_index(u)
    t = g.vertex_index(v)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n_vertices)]
    m = mask
    i = 0
    while m:
        if m & 1:
            a, b = g._u_arr[i], g._v_arr[i]
            adj[a].append((i, b))
            adj[b].append((i, a))
        m >>= 1
        i += 1
    # flow state per edge: 0 unused, +1 used u->v, -1 used v->u
    state = [0] * g.n_edges
    flow = 0
    while cap is None or flow < cap:
        prev = [-1] * g.n_vertices
        prev_edge = [-1] * g.n_vertices
        prev[s] = s
        queue = [s]
        qi = 0
        found = False
        while qi < len(queue) and not found:
            x = queue[qi]
            qi += 1
            for eidx, y in adj[x]:
                if prev[y] != -1:
                    continue
                direction = 1 if x == g._u_arr[eidx] else -1
                # traversable if unused, or undoing the opposite direction
                if state[eidx] == 0 or state[eidx] == -direction:
                    prev[y] = x
                    prev_edge[y] = eidx
                    if y == t:
                        found = True
                        break
                    queue.append(y)
        if not found:
            break
        y = t
        while y != s:
            eidx = prev_edge[y]
            x = prev[y]
            direction = 1 if x == g._u_arr[eidx] else -1
            state[eidx] = 0 if state[eidx] == -direction else direction
            y = x
        flow += 1
    return flow


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_mask(e: EventExpr, g: Graph, mask: int, labels=None) -> bool:
    if isinstance(e, PartitionAtom):
        if labels is None:
            labels = cluster_labels(g, mask)
        reps = []
        for grp in e.groups:
            first = labels[g.vertex_index(grp[0])]
            for v in grp[1:]:
                if labels[g.vertex_index(v)] != first:
                    return False
            reps.append(first)
        return len(set(reps)) == len(reps)
    if isinstance(e, NPathsAtom):
        return open_maxflow(g, mask, e.u, e.v, cap=e.n) >= e.n
    if isinstance(e, Union):
        return any(evaluate_mask(x, g, mask, labels) for x in e.items)
    if isinstance(e, Intersect):
        return all(evaluate_mask(x, g, mask, labels) for x in e.items)
    if isinstance(e, Complement):
        return not evaluate_mask(e.item, g, mask, labels)
    raise TypeError(f"not an event expression: {e!r}")


def evaluate(e: EventExpr, g: Graph, c: Configuration) -> bool:
    """Truth of the event on one configuration."""
    if c.graph is not g:
        raise EvaluationError("configuration belongs to a different graph")
    _resolve(e, g)
    labels = None
    if any(isinstance(a, PartitionAtom) for a in atoms(e)):
        labels = cluster_labels(g, c.mask)
    return evaluate_mask(e, g, c.mask, labels)


# ---------------------------------------------------------------------------
# Monotonicity


def monotonicity(e: EventExpr, g: Graph | None = None) -> Monotonicity:
    """Syntactic monotonicity classification, with a brute-force fallback.

    Without a graph the answer is purely syntactic and may be NONE even for
    monotone events.  With a graph (<= 16 edges) a NONE verdict is settled
    exactly by checking single-edge flips over all configurations.
    """
    m = _syntactic(e)
    if m is not Monotonicity.NONE or g is None:
        return m
    if g.n_edges > config.MAX_CONTINUATION_EDGES:
        raise SizeGuardError("brute-force monotonicity limited to 16 edges")
    _resolve(e, g)
    inc = dec = True
    for mask in range(1 << g.n_edges):
        val = evaluate_mask(e, g, mask)
        for i in range(g.n_edges):
            if mask >> i & 1:
                continue
            up = evaluate_mask(e, g, mask | (1 << i))
            if val and not up:
                inc = False
            if up and not val:
                dec = False
        if not inc and not dec:
            return Monotonicity.NONE
    if inc:
        return Monotonicity.INCREASING
    if dec:
        return Monotonicity.DECREASING
    return Monotonicity.NONE


def _syntactic(e) -> Monotonicity:
    if isinstance(e, PartitionAtom):
        if len(e.groups) == 1:
            return Monotonicity.INCREASING
        if all(len(grp) == 1 for grp in e.groups):
            return Monotonicity.DECREASING
        return Monotonicity.NONE
    if isinstance(e, NPathsAtom):
        return Monotonicity.INCREASING
    if isinstance(e, (Union, Intersect)):
        kinds = {_syntactic(x) for x in e.items}
        if kinds == {Monotonicity.INCREASING}:
            return Monotonicity.INCREASING
        if kinds == {Monotonicity.DECREASING}:
            return Monotonicity.DECREASING
        return Monotonicity.NONE
    if isinstance(e, Complement):
        inner = _syntactic(e.item)
        if inner is Monotonicity.INCREASING:
            return Monotonicity.DECREASING
        if inner is Monotonicity.DECREASING:
            return Monotonicity.INCREASING
        return Monotonicity.NONE
    raise TypeError(f"not an event expression: {e!r}")


def require_increasing(e: EventExpr, g: Graph, what: str = "event") -> None:
    m = monotonicity(e)
    if m is Monotonicity.NONE and g.n_edges <= config.MAX_CONTINUATION_EDGES:
        m = monotonicity(e, g)
    if m is not Monotonicity.INCREASING:
        raise MonotonicityError(f"{what} must be increasing, got {m.value}: {unparse(e)}")


# ---------------------------------------------------------------------------
# Disjoint occurrence by witness-split enumeration
#
# For increasing events A and B, two disjoint witnesses inside open(c) exist
# exactly when open(c) splits into W and open(c) minus W with A holding on W
# alone and B holding on the rest alone.  Enumerating splits of the open set
# is therefore a complete decision procedure.


def _iter_submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def disjoint_occurrence(A: EventExpr, B: EventExpr, g: Graph, c: Configuration) -> bool:
    """A and B occur on disjoint open edge sets of c (both must be increasing)."""
    if c.graph is not g:
        raise EvaluationError("configuration belongs to a different graph")
    require_increasing(A, g, "first operand")
    require_increasing(B, g, "second operand")
    _resolve(A, g)
    _resolve(B, g)
    open_mask = c.mask
    if open_mask.bit_count() > config.MAX_WITNESS_OPEN:
        raise SizeGuardError(
            f"more than {config.MAX_WITNESS_OPEN} open edges in witness search")
    for w in _iter_submasks(open_mask):
        if evaluate_mask(A, g, w) and evaluate_mask(B, g, open_mask & ~w):
            return True
    return False


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
    require_increasing(A, g, "first operand")
    require_increasing(B, g, "second operand")
    _resolve(A, g)
    _resolve(B, g)
    s_mask = 0
    for eid in s_edges:
        s_mask |= 1 << g.edge_index(eid)
    sbar = ((1 << g.n_edges) - 1) & ~s_mask
    s_open = s_mask & c1.mask
    if s_open.bit_count() > config.MAX_WITNESS_OPEN:
        raise SizeGuardError(
            f"more than {config.MAX_WITNESS_OPEN} open edges in witness search")
    fixed_a = sbar & c1.mask
    fixed_b = sbar & c2.mask
    for w in _iter_submasks(s_open):
        if evaluate_mask(A, g, w | fixed_a) and \
           evaluate_mask(B, g, (s_open & ~w) | fixed_b):
            return True
    return False
