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

One column evaluator decides every configuration set, held as one n-bit
integer per edge (bit i set when the edge is open in configuration i): one
configuration for ``evaluate``, samples for Monte Carlo, periodic columns
for enumeration, monotonicity and the witness splits of disjoint occurrence.
``evaluate_mask`` (cluster labels, max-flow) is its per-mask reference.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

import numpy as np

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
    return bool(_evaluate_columns(e, g, [c.mask >> j & 1 for j in range(g.n_edges)], 1))


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


def _rows(bits: np.ndarray) -> list[int]:
    """One integer per row of a 0/1 array: bit j is bits[row, j]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bit_matrix(data: bytes, nrows: int, nbytes: int) -> np.ndarray:
    """0/1 array of nrows rows of nbytes bytes laid end to end: bit j of row
    i is bit j of the i-th row."""
    arr = np.frombuffer(data, dtype=np.uint8).reshape(nrows, nbytes)
    return np.unpackbits(arr, axis=1, bitorder="little")


def _transpose(rows: list[int], width: int) -> list[int]:
    """Bit-matrix transpose: bit i of output j is bit j of rows[i].

    Turns edge columns (width = n configurations) into per-configuration
    masks, and masks (width = E edges) back into columns.
    """
    nbytes = (width + 7) // 8
    bits = _bit_matrix(b"".join(r.to_bytes(nbytes, "little") for r in rows),
                       len(rows), nbytes)
    return _rows(bits[:, :width].T)


def _reach_masks(g: Graph, cols: list[int], n: int, sources) -> dict:
    """source vertex -> {vertex -> bitmask of configurations where connected}."""
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
        out[s] = {v: reach[g.vertex_index(v)] for v in g.vertices}
    return out


def _flow_levels(g: Graph, cols: list[int], n: int, u: str, v: str, cap: int,
                 need: int) -> list[int]:
    """Entry k-1: bitmask of the n column configurations with at least k
    edge-disjoint open u-v paths.

    One capped max-flow runs per configuration in the ``need`` bitmask; the
    others read 0.  Masks are transposed from the columns one block of
    configurations at a time, so memory stays at the size of the columns.
    """
    nbytes = (n + 7) // 8
    as_bytes = {c: c.to_bytes(nbytes, "little") for c in set(cols)}  # one copy per distinct column
    rows = [as_bytes[c] for c in cols] + [need.to_bytes(nbytes, "little")]
    step = 1 << 13  # bytes per block: 2^16 configurations
    chunks: list[list[bytes]] = [[] for _ in range(cap)]
    for lo in range(0, nbytes, step):
        bits = _bit_matrix(b"".join(r[lo:lo + step] for r in rows), len(rows),
                           min(step, nbytes - lo))
        want = np.flatnonzero(bits[-1])  # the last row is need
        flows = np.zeros(bits.shape[1], dtype=np.int64)
        flows[want] = [open_maxflow(g, m, u, v, cap=cap) for m in _rows(bits[:-1, want].T)]
        for k in range(cap):
            chunks[k].append(np.packbits(flows > k, bitorder="little").tobytes())
    return [int.from_bytes(b"".join(c), "little") for c in chunks]


def _compile_bitparallel(e: EventExpr, reach: dict, full: int, npaths: dict) -> int:
    """Bitmask of the columns' configurations where the event holds.

    ``reach`` holds ``_reach_masks`` from the first vertex of each group;
    npaths atoms are read from ``npaths`` (atom -> bitmask).
    """
    if isinstance(e, PartitionAtom):
        acc = full
        reps = [grp[0] for grp in e.groups]
        for grp in e.groups:
            for v in grp[1:]:
                acc &= reach[grp[0]][v]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                acc &= full ^ reach[reps[i]][reps[j]]
        return acc
    if isinstance(e, NPathsAtom):
        return npaths[e]
    if isinstance(e, Union):
        acc = 0
        for x in e.items:
            acc |= _compile_bitparallel(x, reach, full, npaths)
        return acc
    if isinstance(e, Intersect):
        acc = full
        for x in e.items:
            acc &= _compile_bitparallel(x, reach, full, npaths)
        return acc
    if isinstance(e, Complement):
        return full ^ _compile_bitparallel(e.item, reach, full, npaths)
    raise TypeError(f"cannot bit-compile {e!r}")


def _evaluate_columns(e: EventExpr, g: Graph, cols: list[int], n: int,
                      npaths: dict | None = None, need: int | None = None) -> int:
    """Bitmask of the n column configurations where the (resolved) event holds.

    Without ``npaths`` (atom -> bitmask), npaths(u,v,1) atoms read u-v reach,
    and the others run one max-flow per configuration and distinct (u, v),
    capped at the largest n asked for, on the configurations in ``need``
    (default: all) where u and v are connected.  Outside ``need`` the answer
    is unspecified.
    """
    nps = [a for a in atoms(e) if isinstance(a, NPathsAtom)] if npaths is None else []
    # reach starts from the first vertex of every partition group and from
    # the first end of every npaths atom
    reps = sorted({grp[0] for a in atoms(e) if isinstance(a, PartitionAtom)
                   for grp in a.groups} | {a.u for a in nps})
    reach = _reach_masks(g, cols, n, reps)
    full = (1 << n) - 1
    if npaths is None:
        caps = {(a.u, a.v): a.n for a in sorted(nps, key=lambda a: a.n)}  # largest n
        need = full if need is None else need
        levels = {(u, v): _flow_levels(g, cols, n, u, v, cap, need & reach[u][v])
                  for (u, v), cap in caps.items() if cap > 1}
        npaths = {a: reach[a.u][a.v] if a.n == 1 else levels[a.u, a.v][a.n - 1]
                  for a in nps}
    return _compile_bitparallel(e, reach, full, npaths)


# ---------------------------------------------------------------------------
# Monotonicity


def monotonicity(e: EventExpr, g: Graph | None = None) -> Monotonicity:
    """Syntactic monotonicity classification, with an exhaustive fallback.

    Without a graph the answer is purely syntactic and may be NONE even for
    monotone events.  With a graph (<= 16 edges) a NONE verdict is settled
    exactly from the truth table: for each edge j, the configurations with j
    closed are compared with the same configurations with j opened.
    """
    m = _syntactic(e)
    if m is not Monotonicity.NONE or g is None:
        return m
    if g.n_edges > config.MAX_CONTINUATION_EDGES:
        raise SizeGuardError("brute-force monotonicity limited to 16 edges")
    from .exact import truth_table
    tab = np.frombuffer(truth_table(g, e), dtype=np.uint8)
    # axis 1 of view j is bit j of the mask: 0 with edge j closed, 1 open
    views = [tab.reshape(-1, 2, 1 << j) for j in range(g.n_edges)]
    if all((v[:, 0] <= v[:, 1]).all() for v in views):
        return Monotonicity.INCREASING
    if all((v[:, 0] >= v[:, 1]).all() for v in views):
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
    complements plus the open c2 edges outside S.  B runs max-flow only on
    the splits where A holds.
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
    return bool(t_a) and bool(t_a & _evaluate_columns(B, g, cols_b, n, need=t_a))


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
