"""Per-mask reference evaluation for the tests: the independent oracle.

``evaluate_mask`` walks an event tree on one configuration mask, reading
partition atoms from ``cluster_labels``, a union-find of its own, and npaths
atoms from ``open_maxflow``, a breadth-first augmenting-path max-flow.  From
``percolab`` it imports only ``Graph`` and the event node classes, so it
shares no code with the column evaluator of ``percolab.events`` that the
library runs, and the tests compare the two bit for bit.
"""

from __future__ import annotations

from percolab.events import (Complement, EventExpr, Intersect, NPathsAtom,
                             PartitionAtom, Union)
from percolab.graphs import Graph


# ---------------------------------------------------------------------------
# Cluster labels by union-find


def cluster_labels(g: Graph, mask: int) -> list[int]:
    """Connected-component label per vertex index under the open edges of mask."""
    parent = list(range(g.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    m = mask
    i = 0
    while m:
        if m & 1:
            ru = find(g._u_arr[i])
            rv = find(g._v_arr[i])
            if ru != rv:
                parent[rv] = ru
        m >>= 1
        i += 1
    return [find(x) for x in range(g.n_vertices)]


# ---------------------------------------------------------------------------
# Unit-capacity max-flow on the open subgraph (edge-disjoint paths)


def open_maxflow(g: Graph, mask: int, u: str, v: str, cap: int | None = None) -> int:
    """Number of pairwise edge-disjoint open u-v paths (stops early at cap).

    For u == v the empty path repeats without limit: the count is cap, or
    1 << 30 without one.
    """
    if u == v:
        return 1 << 30 if cap is None else cap
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


def evaluate_mask(e: EventExpr, g: Graph, mask: int) -> bool:
    """The per-mask reference of the column evaluator, walking the tree itself."""
    if isinstance(e, PartitionAtom):
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
        return any(evaluate_mask(x, g, mask) for x in e.items)
    if isinstance(e, Intersect):
        return all(evaluate_mask(x, g, mask) for x in e.items)
    if isinstance(e, Complement):
        return not evaluate_mask(e.item, g, mask)
    raise TypeError(f"not an event expression: {e!r}")

