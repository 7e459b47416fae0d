"""The six graph operations whose effect on the domination chromatic
number is bounded: vertex/edge removal, edge/vertex contraction,
k-subdivision, and cycle extending.

Vertex ids are compacted order-preservingly after removal, and a merged
vertex takes the smaller original id's slot; the ``*_index_map`` helpers
expose those deterministic mappings so colorings can be transferred.  A
map depends only on the order and the ids, so each is built once and
shared by every caller that asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import CycleSpec, Graph, iter_bits


@lru_cache(maxsize=None)
def removal_index_map(n: int, v: int) -> tuple[int | None, ...]:
    """Old vertex id -> id in the graph with v removed (None for v)."""
    return tuple(None if w == v else w - (w > v) for w in range(n))


@lru_cache(maxsize=None)
def contraction_index_map(n: int, u: int, v: int) -> tuple[int, ...]:
    """Old vertex id -> id after merging u and v into min(u, v)'s slot."""
    u, v = sorted((u, v))
    return tuple(u if w == v else w - (w > v) for w in range(n))


def require_removable(g: Graph, v: int) -> None:
    """Raise ValueError unless :func:`remove_vertex` accepts ``v``."""
    if g.n < 2:
        raise ValueError("cannot remove a vertex from a graph of order 1")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")


def require_edge(g: Graph, u: int, v: int) -> None:
    """Raise ValueError unless (u, v) is an edge of ``g``."""
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")


def require_contractible(g: Graph, u: int, v: int, edge: bool) -> None:
    """Raise ValueError unless :func:`contract_edge` (``edge``) or
    :func:`contract_vertices` accepts the pair."""
    if edge:
        if not g.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge; use contract_vertices")
    elif u == v:
        raise ValueError("cannot contract a vertex with itself")
    elif g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is an edge; use contract_edge")


def _delete(adj, v: int) -> Graph:
    """Drop vertex v's slot from every other mask, shifting higher ids down."""
    low = (1 << v) - 1
    masks = [(m & low) | (m >> (v + 1) << v) for w, m in enumerate(adj) if w != v]
    return Graph(len(adj) - 1, masks)


def remove_vertex(g: Graph, v: int) -> Graph:
    """Delete v and all incident edges; remaining ids compact downward."""
    require_removable(g, v)
    return _delete(g.adj, v)


def remove_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Delete one edge, keeping every vertex."""
    u, v = e
    require_edge(g, u, v)
    masks = list(g.adj)
    masks[u] &= ~(1 << v)
    masks[v] &= ~(1 << u)
    return Graph(g.n, masks)


def _contract(g: Graph, u: int, v: int) -> Graph:
    """Give v's neighbours to u (u < v after sorting), then delete v."""
    u, v = sorted((u, v))
    masks = list(g.adj)
    for w in iter_bits(g.adj[v]):
        masks[w] |= 1 << u
    masks[u] = (masks[u] | g.adj[v]) & ~(1 << u)  # no loop when u, v are adjacent
    return _delete(masks, v)


def contract_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Contract an edge; parallels collapse and no loop appears."""
    u, v = e
    require_contractible(g, u, v, edge=True)
    return _contract(g, u, v)


def contract_vertices(g: Graph, u: int, v: int) -> Graph:
    """Merge a non-adjacent vertex pair into one vertex."""
    require_contractible(g, u, v, edge=False)
    return _contract(g, u, v)


@dataclass(frozen=True)
class SubdivisionMap:
    """Correspondence between edges of g and superedges of its k-subdivision.

    ``superedges[(u, v)]`` (u < v) is the full path u, x_1, ..., x_{k-1}, v
    in the subdivided graph; base vertices keep their ids.
    """

    superedges: dict[tuple[int, int], tuple[int, ...]]

    def internal_vertices(self) -> set[int]:
        return {x for path in self.superedges.values() for x in path[1:-1]}


def subdivide(g: Graph, k: int) -> tuple[Graph, SubdivisionMap]:
    """Replace every edge with a path of length k; k = 1 reproduces g exactly.

    Internal vertex ids are assigned in sorted edge order, so the result
    is deterministic: edge number t gets ids n + t(k-1) .. n + (t+1)(k-1) - 1.
    """
    if k < 1:
        raise ValueError("path length must be at least 1")
    n2 = g.n + g.m * (k - 1)
    masks = [0] * n2
    superedges: dict[tuple[int, int], tuple[int, ...]] = {}
    nxt = g.n
    for u, v in g.edges():
        path = [u] + list(range(nxt, nxt + k - 1)) + [v]
        nxt += k - 1
        for a, b in zip(path, path[1:]):
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        superedges[(u, v)] = tuple(path)
    return Graph(n2, masks), SubdivisionMap(superedges)


def cycle_extend(g: Graph, c: CycleSpec) -> Graph:
    """Add a hub adjacent to exactly the vertices of the cycle c."""
    c.validate(g)
    hub_mask = 0
    for v in c.vertices:
        hub_mask |= 1 << v
    hub_bit = 1 << g.n
    masks = [
        g.adj[w] | (hub_bit if (hub_mask >> w) & 1 else 0) for w in range(g.n)
    ]
    masks.append(hub_mask)
    return Graph(g.n + 1, masks)
