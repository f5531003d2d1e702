"""Finite marked graphs with edge probabilities and optional plane embeddings.

Graph file format (UTF-8, line based, ``#`` starts a comment)::

    vertex <name>
    edge <edge-id> <vertex> <vertex> <p>
    rotation <vertex> <edge-id> ...     # clockwise cyclic order, optional
    outerface <edge-id> <vertex>        # directed boundary edge, optional
    mark <vertex> <vertex> [<vertex>]

Unknown directives are errors.  Graphs must be simple and connected; marks
name 2 or 3 distinct vertices.  When rotations are given they must cover
every vertex, each listing exactly the incident edges, and they must describe
a plane embedding (Euler's formula is enforced).

Conventions: rotations are the clockwise order of a drawing.  Face traversal
follows the successor rule: after entering vertex ``v`` along edge ``e`` the
walk leaves along the edge following ``e`` in ``rotation[v]``.  That rule
splits the directed edges into face cycles; the cycle containing the
``outerface`` directed edge is the outer face.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import GraphFormatError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Graph:
    """Immutable simple connected graph with per-edge open probabilities.

    Edges are indexed 0..m-1 in lexicographic edge-id order; all bitmask
    based APIs (configurations, enumeration) use that order.
    """

    def __init__(self, vertices, edges, edge_prob, marks, rotation=None,
                 outer_anchor=None, name="graph"):
        vertices = list(vertices)
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise GraphFormatError("duplicate vertex name")
        for v in vset:
            if not _NAME_RE.match(v):
                raise GraphFormatError(f"bad vertex name {v!r}")
        self.vertices = tuple(sorted(vset))
        self._vidx = {v: i for i, v in enumerate(self.vertices)}

        seen_ids = set()
        seen_pairs = set()
        norm = []
        for eid, u, v in edges:
            if eid in seen_ids:
                raise GraphFormatError(f"duplicate edge id {eid!r}")
            seen_ids.add(eid)
            if u not in vset or v not in vset:
                raise GraphFormatError(f"edge {eid!r} references unknown vertex")
            if u == v:
                raise GraphFormatError(f"edge {eid!r} is a loop")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise GraphFormatError(f"parallel edge {eid!r}; model it as a length-2 path")
            seen_pairs.add(pair)
            norm.append((eid, u, v))
        norm.sort(key=lambda t: t[0])
        self.edges = tuple(norm)
        self.edge_ids = tuple(e for e, _, _ in norm)
        self._eidx = {e: i for i, e in enumerate(self.edge_ids)}
        self.n_edges = len(norm)
        self.n_vertices = len(self.vertices)

        self.edge_prob = {}
        for eid in self.edge_ids:
            if eid not in edge_prob:
                raise GraphFormatError(f"edge {eid!r} has no probability")
            p = float(edge_prob[eid])
            if not (0.0 <= p <= 1.0) or math.isnan(p):
                raise GraphFormatError(f"edge {eid!r} probability {p} outside [0,1]")
            self.edge_prob[eid] = p
        self.probs = tuple(self.edge_prob[e] for e in self.edge_ids)

        marks = tuple(marks)
        if not 2 <= len(marks) <= 3:
            raise GraphFormatError("need 2 or 3 marked vertices")
        if len(set(marks)) != len(marks):
            raise GraphFormatError("marks must be distinct")
        for v in marks:
            if v not in vset:
                raise GraphFormatError(f"mark {v!r} is not a vertex")
        self.marks = marks

        self._endpoints = {eid: (u, v) for eid, u, v in norm}
        inc: dict[str, list[str]] = {v: [] for v in self.vertices}
        for eid, u, v in norm:
            inc[u].append(eid)
            inc[v].append(eid)
        self.incident = {v: tuple(sorted(es, key=self._eidx.get)) for v, es in inc.items()}
        self._incident_idx = tuple(tuple(map(self._eidx.get, self.incident[v]))
                                   for v in self.vertices)  # by vertex index
        self._u_arr = tuple(self._vidx[u] for _, u, v in norm)
        self._v_arr = tuple(self._vidx[v] for _, u, v in norm)

        if len(_components(self, (1 << self.n_edges) - 1)) != 1:
            raise GraphFormatError("graph is not connected")

        self.rotation = None
        if rotation is not None:
            rot = {}
            for v in self.vertices:
                if v not in rotation:
                    raise GraphFormatError(f"rotation missing for vertex {v!r}")
                cyc = tuple(rotation[v])
                if sorted(cyc) != sorted(self.incident[v]):
                    raise GraphFormatError(
                        f"rotation at {v!r} must list its incident edges exactly once")
                rot[v] = cyc
            extra = set(rotation) - vset
            if extra:
                raise GraphFormatError(f"rotation for unknown vertex {sorted(extra)[0]!r}")
            self.rotation = rot

        self.outer_anchor = None
        if outer_anchor is not None:
            if self.rotation is None:
                raise GraphFormatError("outerface requires rotation lines")
            eid, tail = outer_anchor
            if eid not in self._eidx:
                raise GraphFormatError(f"outerface references unknown edge {eid!r}")
            if tail not in self._endpoints[eid]:
                raise GraphFormatError(f"outerface vertex {tail!r} is not an endpoint of {eid!r}")
            self.outer_anchor = (eid, tail)

        if self.rotation is not None:
            n_faces = len(_trace_faces(self))
            if self.n_vertices - self.n_edges + n_faces != 2:
                raise GraphFormatError("rotation does not describe a plane embedding")

        self.name = name
        # unparse(e) -> its packed hit bits (exact._hit_bits); perfbench counts
        # truth table hits by this key
        self._event_tables: dict = {}
        # mask -> the probabilities of its submasks, for every edge (the
        # weights) and a block's low edges alone (exact._graph_measure);
        # "levels" -> the level numerators of the count route (exact._graph_levels)
        self._measures: dict = {}
        self._faces: FaceSet | None = None

    def other_end(self, eid: str, v: str) -> str:
        u, w = self._endpoints[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise KeyError(f"{v!r} is not an endpoint of {eid!r}")

    def endpoints(self, eid: str) -> tuple[str, str]:
        return self._endpoints[eid]

    def edge_index(self, eid: str) -> int:
        try:
            return self._eidx[eid]
        except KeyError:
            raise KeyError(f"unknown edge {eid!r}") from None

    def vertex_index(self, v: str) -> int:
        return self._vidx[v]

    def degree(self, v: str) -> int:
        return len(self.incident[v])

    def config(self, open_edges) -> "Configuration":
        return Configuration.from_open(self, open_edges)

    def __repr__(self):
        return f"Graph({self.name!r}, |V|={self.n_vertices}, |E|={self.n_edges})"


@dataclass(frozen=True)
class Configuration:
    """Open/closed assignment for the edges of one graph, stored as a bitmask."""

    graph: Graph
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.graph.n_edges):
            raise ValueError("configuration mask out of range for graph")

    @classmethod
    def from_open(cls, g: Graph, open_edges) -> "Configuration":
        mask = 0
        for eid in open_edges:
            mask |= 1 << g.edge_index(eid)
        return cls(g, mask)

    def __getitem__(self, eid: str) -> bool:
        return bool(self.mask >> self.graph.edge_index(eid) & 1)

    def open_edges(self) -> frozenset:
        g = self.graph
        return frozenset(e for e in g.edge_ids if self[e])

    def __le__(self, other: "Configuration") -> bool:
        return self.mask & ~other.mask == 0


def _components(g: Graph, mask: int) -> list[set]:
    """Vertex sets of the components of the open edges of mask, by
    depth-first search, in the order of their least vertices."""
    out, seen = [], set()
    for start in g.vertices:
        if start in seen:
            continue
        seen.add(start)
        comp, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for eid in g.incident[v]:
                w = g.other_end(eid, v)
                if w not in seen and mask >> g._eidx[eid] & 1:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        out.append(comp)
    return out


def clusters(g: Graph, c: Configuration) -> list[set]:
    """Partition of the vertices into open clusters, ordered by least vertex
    (the depth-first search of the graph's connectivity check)."""
    if c.graph is not g:
        raise ValueError("configuration belongs to a different graph")
    return _components(g, c.mask)


@dataclass(frozen=True)
class FaceSet:
    """Face cycles of a plane graph as tuples of directed edges (edge_id, tail)."""

    faces: tuple
    outer_index: int

    def vertices_of(self, i: int) -> frozenset:
        out = set()
        for eid, tail in self.faces[i]:
            out.add(tail)
        return frozenset(out)

    @property
    def outer(self):
        return self.faces[self.outer_index]


def _trace_faces(g: Graph):
    """All face cycles under the successor rule, independent of any anchor."""
    rot = g.rotation
    succ = {}
    for v, cyc in rot.items():
        d = len(cyc)
        for i, e in enumerate(cyc):
            succ[(v, e)] = cyc[(i + 1) % d]
    seen = set()
    out = []
    for eid, u, v in g.edges:
        for tail in (u, v):
            if (eid, tail) in seen:
                continue
            cyc = []
            d = (eid, tail)
            while d not in seen:
                seen.add(d)
                cyc.append(d)
                e, t = d
                head = g.other_end(e, t)
                d = (succ[(head, e)], head)
            out.append(tuple(cyc))
    out.sort(key=lambda f: min(f))
    return out


def faces(g: Graph) -> FaceSet:
    """Face cycles via the rotation-successor rule; outer face from the anchor."""
    if g.rotation is None:
        raise GraphFormatError("faces require a rotation system")
    if g.outer_anchor is None:
        raise GraphFormatError("faces require an outerface anchor")
    if g._faces is not None:
        return g._faces
    cycles = _trace_faces(g)
    outer = None
    for i, f in enumerate(cycles):
        if g.outer_anchor in f:
            outer = i
            break
    if outer is None:  # anchor is validated at construction, so unreachable
        raise GraphFormatError("outer anchor lies on no face")
    fs = FaceSet(tuple(cycles), outer)
    g._faces = fs
    return fs


def same_face(g: Graph, vs, which: str = "outer") -> bool:
    """True when all given vertices lie on one common face.

    which="outer" restricts to the anchored outer face; which="any" accepts
    any face of the embedding.
    """
    if which not in ("outer", "any"):
        raise ValueError("which must be 'outer' or 'any'")
    fs = faces(g)
    want = set(vs)
    for v in want:
        if v not in g._vidx:
            raise GraphFormatError(f"unknown vertex {v!r}")
    if which == "outer":
        return want <= fs.vertices_of(fs.outer_index)
    return any(want <= fs.vertices_of(i) for i in range(len(fs.faces)))


# ---------------------------------------------------------------------------
# File format


def parse_graph(text: str, name: str = "file") -> Graph:
    vertices: list[str] = []
    edges: list[tuple] = []
    probs: dict[str, float] = {}
    rotation: dict[str, list] = {}
    anchor = None
    marks = None

    def err(lineno, msg):
        raise GraphFormatError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind = tok[0]
        if kind == "vertex":
            if len(tok) != 2:
                err(lineno, "vertex takes one name")
            if tok[1] in vertices:
                err(lineno, f"duplicate vertex {tok[1]!r}")
            vertices.append(tok[1])
        elif kind == "edge":
            if len(tok) != 5:
                err(lineno, "edge takes: id u v p")
            eid, u, v, ps = tok[1:]
            try:
                p = float(ps)
            except ValueError:
                err(lineno, f"bad probability {ps!r}")
            edges.append((eid, u, v))
            if eid in probs:
                err(lineno, f"duplicate edge id {eid!r}")
            probs[eid] = p
        elif kind == "rotation":
            if len(tok) < 3:
                err(lineno, "rotation takes: vertex edge ...")
            if tok[1] in rotation:
                err(lineno, f"duplicate rotation for {tok[1]!r}")
            rotation[tok[1]] = tok[2:]
        elif kind == "outerface":
            if len(tok) != 3:
                err(lineno, "outerface takes: edge vertex")
            if anchor is not None:
                err(lineno, "duplicate outerface line")
            anchor = (tok[1], tok[2])
        elif kind == "mark":
            if marks is not None:
                err(lineno, "duplicate mark line")
            if not 3 <= len(tok) <= 4:
                err(lineno, "mark takes 2 or 3 vertices")
            marks = tuple(tok[1:])
        else:
            err(lineno, f"unknown directive {kind!r}")

    if marks is None:
        raise GraphFormatError("missing mark line (need 2 or 3 marks)")
    return Graph(
        vertices, edges, probs, marks,
        rotation=rotation or None,
        outer_anchor=anchor,
        name=name,
    )


# ---------------------------------------------------------------------------
# Generated families
#
# All families use a uniform edge probability p and carry canonical marks
# named literally "a", "b" (and "c" where the family defines one).  Planar
# families ship a clockwise rotation and an outer anchor chosen so the
# anchored directed edge leaves "a" along the outer boundary.  A builder
# returns (vertices, edges, marks, rotation, anchor); ``generate`` builds the
# Graph.


def _chain(verts: list, n: int) -> tuple:
    """n edges along verts, the last back to the first when n == len(verts),
    each vertex listing its edges in edge order: (edges, rotation)."""
    w = len(str(n))
    edges = [(f"e{i:0{w}d}", verts[i], verts[(i + 1) % len(verts)]) for i in range(n)]
    rot = {v: [] for v in verts}
    for eid, u, v in edges:
        rot[u].append(eid)
        rot[v].append(eid)
    return edges, rot


def _path(n: int) -> tuple:
    if n < 1:
        raise GraphFormatError("path needs n >= 1 edges")
    verts = ["a"] + [f"x{i}" for i in range(1, n)] + ["b"]
    edges, rot = _chain(verts, n)
    return verts, edges, ("a", "b"), rot, (edges[0][0], "a")


def _cycle(n: int) -> tuple:
    if n < 3:
        raise GraphFormatError("cycle needs n >= 3")
    verts = ["a", "b", "c"] + [f"v{i}" for i in range(3, n)]
    edges, rot = _chain(verts, n)
    return verts, edges, ("a", "b", "c"), rot, (edges[0][0], "a")


def _grid(w: int, h: int) -> tuple:
    if w < 2 or h < 2:
        raise GraphFormatError("grid needs w, h >= 2")

    def vname(i, j):
        if (i, j) == (0, 0):
            return "a"
        if (i, j) == (w - 1, 0):
            return "b"
        if (i, j) == (w - 1, h - 1):
            return "c"
        return f"v{i}_{j}"

    verts = [vname(i, j) for i in range(w) for j in range(h)]
    edges = []
    eid_of = {}
    for i in range(w):
        for j in range(h):
            if i + 1 < w:
                eid = f"h{i}_{j}"
                edges.append((eid, vname(i, j), vname(i + 1, j)))
                eid_of[("h", i, j)] = eid
            if j + 1 < h:
                eid = f"v{i}_{j}"
                edges.append((eid, vname(i, j), vname(i, j + 1)))
                eid_of[("v", i, j)] = eid
    rot = {}
    for i in range(w):
        for j in range(h):
            # clockwise from north in a drawing with x right, y up
            order = []
            if j + 1 < h:
                order.append(eid_of[("v", i, j)])       # N
            if i + 1 < w:
                order.append(eid_of[("h", i, j)])       # E
            if j > 0:
                order.append(eid_of[("v", i, j - 1)])   # S
            if i > 0:
                order.append(eid_of[("h", i - 1, j)])   # W
            rot[vname(i, j)] = order
    return verts, edges, ("a", "b", "c"), rot, (eid_of[("v", 0, 0)], "a")


def _routes(mids: list, w: int) -> tuple:
    """Two-edge a-b routes r1, r2, ... through mids, drawn as stacked arcs
    with the last outermost: (edges, rotation, anchor)."""
    names = [f"r{i:0{w}d}" for i in range(1, len(mids) + 1)]
    edges = [e for r, m in zip(names, mids) for e in ((r + "a", "a", m), (r + "b", m, "b"))]
    rot = {"a": [r + "a" for r in reversed(names)], "b": [r + "b" for r in names]}
    rot.update({m: [r + "a", r + "b"] for r, m in zip(names, mids)})
    return edges, rot, (names[-1] + "a", "a")


def _parallel(n: int) -> tuple:
    if n < 1:
        raise GraphFormatError("parallel needs n >= 1 routes")
    mids = [f"m{i}" for i in range(1, n + 1)]
    edges, rot, anchor = _routes(mids, len(str(n)))
    return ["a", "b"] + mids, edges, ("a", "b"), rot, anchor


def _theta(k: int) -> tuple:
    """Direct a-b edge plus k-1 two-edge routes; c is the outermost midpoint."""
    if k < 2:
        raise GraphFormatError("theta needs k >= 2 disjoint routes")
    mids = [f"t{i}" for i in range(1, k - 1)] + ["c"]
    edges, rot, anchor = _routes(mids, len(str(k)))
    rot["a"].append("d")
    rot["b"].insert(0, "d")
    return ["a", "b"] + mids, [("d", "a", "b")] + edges, ("a", "b", "c"), rot, anchor


def _complete(n: int) -> tuple:
    if n < 3:
        raise GraphFormatError("complete needs n >= 3")
    base = ["a", "b", "c", "d", "e", "f", "g_", "h_"]
    if n > len(base):
        raise GraphFormatError("complete supports n <= 8")
    verts = base[:n]
    edges = [(f"k{i}{j}", verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    return verts, edges, ("a", "b", "c"), None, None


_FAMILIES = {
    "path": (_path, 1),
    "cycle": (_cycle, 1),
    "grid": (_grid, 2),
    "parallel": (_parallel, 1),
    "theta": (_theta, 1),
    "complete": (_complete, 1),
}


def generate(family: str, *args, p: float | None = None, q: float | None = None) -> Graph:
    """Build a canonical family instance.

    q is the per-route open probability for ``parallel`` (each route is two
    edges in series, so the edge probability becomes sqrt(q)).
    """
    if family not in _FAMILIES:
        raise GraphFormatError(f"unknown family {family!r}")
    fn, arity = _FAMILIES[family]
    if len(args) != arity:
        raise GraphFormatError(f"{family} takes {arity} integer parameter(s)")
    if q is not None:
        if family != "parallel":
            raise GraphFormatError("route probability q only applies to parallel")
        if p is not None:
            raise GraphFormatError("give p or q, not both")
        if not 0.0 <= q <= 1.0:
            raise GraphFormatError("q outside [0,1]")
        p = math.sqrt(q)
    if p is None:
        raise GraphFormatError("missing edge probability p")
    if not 0.0 <= p <= 1.0:
        raise GraphFormatError("p outside [0,1]")
    verts, edges, marks, rot, anchor = fn(*args)
    qtxt = f"q={q:g}" if q is not None else f"p={p:g}"
    return Graph(verts, edges, {e: p for e, _, _ in edges}, marks, rotation=rot,
                 outer_anchor=anchor,
                 name=f"family:{family}:{','.join(str(a) for a in args)},{qtxt}")


def graph_from_spec(spec: str) -> Graph:
    """Parse ``family:name:arg,...,p=0.5`` mini-syntax into a Graph."""
    if not spec.startswith("family:"):
        raise GraphFormatError(f"not a family spec: {spec!r}")
    body = spec[len("family:"):]
    name, _, rest = body.partition(":")
    if not rest:
        raise GraphFormatError(f"family spec needs parameters: {spec!r}")
    args = []
    kw = {}
    for part in rest.split(","):
        if "=" in part:
            key, _, val = part.partition("=")
            if key not in ("p", "q"):
                raise GraphFormatError(f"unknown family parameter {key!r}")
            if key in kw:
                raise GraphFormatError(f"repeated family parameter {key!r} in {spec!r}")
            try:
                kw[key] = float(val)
            except ValueError:
                raise GraphFormatError(f"bad value for {key!r}: {val!r}") from None
        else:
            try:
                args.append(int(part))
            except ValueError:
                raise GraphFormatError(f"bad integer parameter {part!r}") from None
    return generate(name, *args, **kw)
