"""The six graph operations whose effect on the domination chromatic
number is bounded: vertex/edge removal, edge/vertex contraction,
k-subdivision, and cycle extending.  Each is ``op(g, param)`` and returns
the graph it makes; :func:`superedges` gives the paths of a subdivision.
G was checked when it was built and each operation validates its
parameter against G, so H's masks are a simple graph's by construction:
every operation builds H through the private ``Graph._derived``, which
skips ``Graph``'s check.  Each operation also records on H, in the slot
``Graph._made``, its own name, G and the parameter as it read it; the
witnesses trust an H whose record names their operation, their G and
their very parameter object, and check any other H.

Vertex ids are compacted order-preservingly after removal, and a merged
vertex takes the smaller original id's slot; the ``*_index_map`` helpers
expose those deterministic mappings so colorings can be transferred.  A
map depends only on the order and the ids, so each is built once and
shared by every caller that asks for it.

:data:`OPERATIONS` describes each operation once, keyed by the name of
its function here: how to read and label its parameter, where G's
vertices land in H, and how many ints it takes on the command line.
Every operation, and :func:`superedges`, reads its parameter through its
row, so a parameter of the wrong shape (a bool or a float where an int
belongs, say) raises ValueError naming the shape, whoever calls it; the
operation itself then validates the parameter against G.  The table
holds no function that applies an operation.  Its three callers,
``harness``, ``witnesses`` and ``cli``, each apply one in the same way,
as ``globals()[name](g, param)``: through their own module global of
that name, looked up at call time, because that is the attribute a
tracer rebinds when it counts the calls made from each module.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import Any, Callable, NamedTuple

from .graph import CycleSpec, Graph, iter_bits


@lru_cache(maxsize=None)
def removal_index_map(n: int, v: int) -> tuple[int | None, ...]:
    """Old vertex id -> id in the graph with v removed (None for v)."""
    return tuple(None if w == v else w - (w > v) for w in range(n))


@lru_cache(maxsize=None)
def contraction_index_map(n: int, pair: tuple[int, int]) -> tuple[int, ...]:
    """Old vertex id -> id after merging the pair into its smaller id's slot."""
    u, v = sorted(pair)
    return tuple(u if w == v else w - (w > v) for w in range(n))


def require_removable(g: Graph, v: int) -> None:
    """Raise ValueError unless :func:`remove_vertex` accepts ``v``."""
    if g.n < 2:
        raise ValueError("cannot remove a vertex from a graph of order 1")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")


def require_edge(g: Graph, e: tuple[int, int]) -> None:
    """Raise ValueError unless ``e`` is an edge of ``g``."""
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")


def require_contractible_edge(g: Graph, e: tuple[int, int]) -> None:
    """Raise ValueError unless :func:`contract_edge` accepts ``e``."""
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge; use contract_vertices")


def require_contractible_pair(g: Graph, pair: tuple[int, int]) -> None:
    """Raise ValueError unless :func:`contract_vertices` accepts ``pair``."""
    u, v = pair
    if u == v:
        raise ValueError("cannot contract a vertex with itself")
    if g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is an edge; use contract_edge")


def require_path_length(g: Graph, k: int) -> None:
    """Raise ValueError unless :func:`subdivide` accepts ``k``."""
    if k < 1:
        raise ValueError("path length must be at least 1")


def _delete(adj, v: int) -> Graph:
    """Drop vertex v's slot from every other mask, shifting higher ids down."""
    low = (1 << v) - 1
    masks = [(m & low) | (m >> (v + 1) << v) for w, m in enumerate(adj) if w != v]
    return Graph._derived(len(adj) - 1, masks)


def remove_vertex(g: Graph, v: int) -> Graph:
    """Delete v and all incident edges; remaining ids compact downward."""
    v = _read("remove_vertex", v)
    require_removable(g, v)
    h = _delete(g.adj, v)
    h._made = ("remove_vertex", g, v)
    return h


def remove_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Delete one edge, keeping every vertex."""
    e = _read("remove_edge", e)
    require_edge(g, e)
    u, v = e
    masks = list(g.adj)
    masks[u] &= ~(1 << v)
    masks[v] &= ~(1 << u)
    h = Graph._derived(g.n, masks)
    h._made = ("remove_edge", g, e)
    return h


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
    e = _read("contract_edge", e)
    require_contractible_edge(g, e)
    h = _contract(g, *e)
    h._made = ("contract_edge", g, e)
    return h


def contract_vertices(g: Graph, pair: tuple[int, int]) -> Graph:
    """Merge a non-adjacent vertex pair into one vertex."""
    pair = _read("contract_vertices", pair)
    require_contractible_pair(g, pair)
    h = _contract(g, *pair)
    h._made = ("contract_vertices", g, pair)
    return h


def superedges(g: Graph, k: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """Each edge (u, v) of g, u < v, -> its path u, x_1, ..., x_{k-1}, v in
    :func:`subdivide`'s graph; base vertices keep their ids.

    Internal vertex ids are assigned in sorted edge order, so the result
    is deterministic: edge number t gets ids n + t(k-1) .. n + (t+1)(k-1) - 1.
    """
    k = _read("subdivide", k, "superedges")
    require_path_length(g, k)
    return {
        (u, v): (u, *range(g.n + t * (k - 1), g.n + (t + 1) * (k - 1)), v)
        for t, (u, v) in enumerate(g.edges())
    }


def subdivide(g: Graph, k: int) -> Graph:
    """Replace every edge with the path :func:`superedges` gives it; k = 1
    reproduces g exactly."""
    k = _read("subdivide", k)
    paths = superedges(g, k)
    masks = [0] * (g.n + g.m * (k - 1))
    for path in paths.values():
        for a, b in zip(path, path[1:]):
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    h = Graph._derived(len(masks), masks)
    h._made = ("subdivide", g, k)
    return h


def cycle_extend(g: Graph, c: CycleSpec | Sequence[int]) -> Graph:
    """Add a hub adjacent to exactly the vertices of the cycle c, read as
    :data:`OPERATIONS` reads it: a CycleSpec or its vertex sequence."""
    cyc = _read("cycle_extend", c)
    cyc.validate(g)
    hub_mask = 0
    for v in cyc.vertices:
        hub_mask |= 1 << v
    hub_bit = 1 << g.n
    masks = [
        g.adj[w] | (hub_bit if (hub_mask >> w) & 1 else 0) for w in range(g.n)
    ]
    masks.append(hub_mask)
    h = Graph._derived(g.n + 1, masks)
    h._made = ("cycle_extend", g, cyc)
    return h


def _read(name: str, param, caller: str | None = None):
    """``param`` as ``OPERATIONS[name]`` reads it; ValueError naming
    ``caller`` (``name`` by default) and the shape when it has the wrong one."""
    op = OPERATIONS[name]
    read = op.read(param)
    if read is None:
        raise ValueError(f"{caller or name} takes {op.shape}, got {param!r}")
    return read


# A vertex or a path length is exactly an int: a bool would read as 0 or 1.
# _read_pair tests type() first, so a plain tuple skips the slow Sequence test.
# A reader returns an int, a plain tuple or a CycleSpec as itself and makes
# a new value of anything else, so the parameter an operation records on H
# is the caller's own object only when that object cannot change afterwards.


def _read_int(x) -> int | None:
    return x if type(x) is int else None


def _read_pair(x) -> tuple[int, int] | None:
    if (type(x) is tuple or isinstance(x, Sequence)) and len(x) == 2:
        u, v = x
        if type(u) is type(v) is int:
            return x if type(x) is tuple else (u, v)
    return None


def _read_cycle(x) -> CycleSpec | None:
    if isinstance(x, CycleSpec):
        return x
    if isinstance(x, Sequence) and all(_read_int(v) is not None for v in x):
        return CycleSpec(x)
    return None


def _edge_label(e: tuple[int, int]) -> str:
    return f"e={e[0]}-{e[1]}"


def _same_ids(n: int, param) -> range:
    return range(n)


class Operation(NamedTuple):
    """One operation as its callers name, read and label it."""

    # the parameter as the operation takes it (a pair in the order given),
    # or None when it has the wrong shape; a short cycle raises ValueError
    read: Callable[[Any], Any]
    shape: str  # what ``read`` accepts, as a wrong-shape error names it
    label: Callable[[Any], str]  # a read parameter as reports name it
    vertex_map: Callable[[int, Any], Sequence]  # (G's order, param) -> G's vertex id -> H's, None if deleted
    arity: int | None  # ints on the command line; None: any count (a cycle)


OPERATIONS = {
    "remove_vertex": Operation(_read_int, "a vertex (an int)", lambda v: f"v={v}", removal_index_map, 1),
    "remove_edge": Operation(_read_pair, "an edge (two vertex ints)", _edge_label, _same_ids, 2),
    "contract_edge": Operation(_read_pair, "an edge (two vertex ints)", _edge_label, contraction_index_map, 2),
    "contract_vertices": Operation(
        _read_pair, "a vertex pair (two vertex ints)", lambda e: f"uv={e[0]}-{e[1]}", contraction_index_map, 2,
    ),
    "subdivide": Operation(_read_int, "a path length k (an int)", lambda k: f"k={k}", _same_ids, 1),
    "cycle_extend": Operation(
        _read_cycle, "a cycle (a CycleSpec or a sequence of vertex ints)",
        lambda cyc: "C=" + "-".join(str(v) for v in cyc.vertices), _same_ids, None,
    ),
}
