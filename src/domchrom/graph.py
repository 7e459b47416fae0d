"""Immutable simple graphs on small vertex sets.

Vertices are the integers 0..n-1 and every neighborhood is a Python int
bitset, so set intersection, union and containment are single integer
operations.  That keeps the solver and the exhaustive corpus sweeps
allocation-light without reaching for numpy.

Two kernels treat whole graphs as single integers: :func:`to_graph6`
packs the upper triangle column by column, and
:func:`enumerate_connected_graphs` grows every graph from the graphs one
vertex smaller, carrying their components along.

Each graph is checked once, where it enters the package.  The checked
constructors are ``Graph(n, masks)`` and ``CycleSpec(vertices)``.  A
graph or cycle the package derives itself, from a graph already checked
or from input it has just validated (:func:`parse_graph6`,
:func:`from_edges`), is built through the private ``_derived``
constructors, which skip the check: the generator's graphs, canonical
forms and :func:`enumerate_cycles`' cycles here, and the operations'
outputs in ``ops``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import index, or_
from typing import Any, Iterator, Sequence

GRAPH6_MAX_ORDER = 258_047  # the largest order graph6's 4-byte header holds
GENERATOR_MAX_ORDER = 7  # 2^21 candidate edge masks is the exhaustive limit


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the first offending byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def _own_bits(n: int) -> tuple[int, ...]:
    """Each vertex's own bit, which closes its neighbourhood."""
    return tuple(1 << v for v in range(n))


def _check_masks(n: int, masks: tuple[int, ...]) -> None:
    """Raise ValueError unless these plain-int masks are a simple graph's,
    naming the first offence: a vertex >= n (which a negative mask has),
    then a self-loop (both in vertex order), then the first asymmetric
    pair.  One pass over the masks and one over the edges."""
    full = (1 << n) - 1
    for v, mask in enumerate(masks):
        if mask & ~full:
            raise ValueError(f"neighbor mask of vertex {v} mentions vertices >= {n}")
        if (mask >> v) & 1:
            raise ValueError(f"self-loop at vertex {v}")
    for v, mask in enumerate(masks):
        bit = 1 << v
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            if not masks[u] & bit:
                raise ValueError(f"asymmetric adjacency between {u} and {v}")
            mask ^= low


def _require_int(value, what: str) -> None:
    """Raise ValueError unless ``value`` is exactly an int: a bool would
    read as 0 or 1, and a float fails later with a raw TypeError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")


class Graph:
    """Simple undirected graph, immutable once constructed.

    ``adj[v]`` is the open-neighborhood bitset of ``v``, a plain int;
    ``closed[v]`` additionally contains ``v`` itself.  ``Graph(n, masks)``
    is the checked constructor: it checks that the order is an int, turns
    every mask into a plain int through ``operator.index`` (a numpy
    integer becomes an int, a bool 0 or 1, a float raises TypeError) and
    validates range, loop-freeness and symmetry edge by edge in
    :func:`_check_masks`, so any instance built from outside the package
    is a simple graph.

    Masks the package derives itself, from a graph already checked or
    from input it has validated on the way in, skip the check through the
    private ``Graph._derived``: the operations in ``ops``,
    :func:`canonical_form`, the harness's search forms,
    :func:`enumerate_connected_graphs`, :func:`parse_graph6` and
    :func:`from_edges`.  Both constructors fill the slots the same way.
    Because it never changes, :func:`to_graph6`, :func:`canonical_form`,
    :func:`is_connected` and the cut structure behind
    :func:`cut_vertices`/:func:`bridges` are computed once per instance
    and kept in the first four of five memo slots.  The fifth, ``_made``,
    is ``None`` except on an operation's output: there ``ops`` records
    which operation made it, from which G and with which parameter, so a
    witness given that H, that G and that parameter need not check again
    what the operation checked (see ``witnesses``).  A pickle holds the
    order and masks alone and loads through the checked constructor, so
    no memo and no ``_made`` record travels with it.
    """

    __slots__ = ("n", "m", "adj", "closed", "_graph6", "_canonical", "_connected", "_cut_structure", "_made")

    def __init__(self, n: int, neighbor_masks: Sequence[int]):
        _require_int(n, "graph order")
        if n < 1:
            raise ValueError("graph order must be at least 1")
        masks = tuple(map(index, neighbor_masks))  # plain ints; TypeError for a non-integral mask
        if len(masks) != n:
            raise ValueError(f"expected {n} neighbor masks, got {len(masks)}")
        _check_masks(n, masks)
        self._fill(n, masks)

    @classmethod
    def _derived(cls, n: int, masks: Sequence[int]) -> Graph:
        """The graph on these masks, unchecked: only for plain-int masks of
        a simple graph of order n that the package built itself."""
        g = cls.__new__(cls)
        g._fill(n, tuple(masks))
        return g

    def _fill(self, n: int, masks: tuple[int, ...]) -> None:
        self.n = n
        self.m = sum(map(int.bit_count, masks)) >> 1
        self.adj = masks
        self.closed = tuple(map(or_, masks, _own_bits(n)))
        self._graph6: str | None = None
        self._canonical: Graph | None = None
        self._connected: bool | None = None
        self._cut_structure: tuple[frozenset[int], frozenset[tuple[int, int]]] | None = None
        self._made: tuple[str, Graph, Any] | None = None  # (operation name, G, param as read)

    def _check_vertex(self, v: int) -> None:
        """Raise ValueError unless ``v`` is exactly an int in 0..n-1: a bool
        would read as vertex 0 or 1, and -1 as the last vertex."""
        if type(v) is not int or not 0 <= v < self.n:
            raise ValueError(f"vertex {v!r} is not an int in 0..{self.n - 1}")

    def degree(self, v: int) -> int:
        """The degree of vertex ``v``; ValueError unless ``v`` is an int in 0..n-1."""
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are adjacent; ValueError unless each is an int in 0..n-1."""
        self._check_vertex(u)
        self._check_vertex(v)
        return u != v and bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            base = u + 1
            while rest:
                low = rest & -rest
                out.append((u, base + low.bit_length() - 1))
                rest ^= low
        return out

    def __reduce__(self) -> tuple[type[Graph], tuple[int, tuple[int, ...]]]:
        return Graph, (self.n, self.adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class CycleSpec:
    """A cycle given by its vertex sequence (cyclically consecutive = adjacent).

    ``CycleSpec(vertices)`` is the checked constructor: every vertex an
    int, at least three, none repeated.  :meth:`validate` keeps the
    adjacency of the last graph it passed in a memo slot, which equality,
    hashing and repr ignore.  :func:`enumerate_cycles` builds its cycles
    through the private ``CycleSpec._derived``, which skips those checks
    and presets the memo to the graph it walked.
    """

    vertices: tuple[int, ...]
    _validated: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        for v in self.vertices:
            _require_int(v, "cycle vertex")
        if len(self.vertices) < 3:
            raise ValueError("cycle length must be at least 3")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle repeats a vertex")

    @classmethod
    def _derived(cls, vertices: tuple[int, ...], adj: tuple[int, ...]) -> CycleSpec:
        """The cycle ``vertices``, unchecked and already validated on the
        graph with adjacency ``adj``: only for a cycle the package walked there."""
        c = cls.__new__(cls)
        c.__dict__.update(vertices=vertices, _validated=adj)
        return c

    @property
    def length(self) -> int:
        return len(self.vertices)

    def validate(self, g: Graph) -> None:
        """Raise ValueError unless this is a cycle of ``g``."""
        if self._validated == g.adj:
            return
        for v in self.vertices:
            if not 0 <= v < g.n:
                raise ValueError(f"cycle vertex {v} out of range for order {g.n}")
        seq = self.vertices
        for a, b in zip(seq, seq[1:] + seq[:1]):
            if not g.has_edge(a, b):
                raise ValueError(f"consecutive cycle vertices {a} and {b} are not adjacent")
        object.__setattr__(self, "_validated", g.adj)


def from_edges(n: int, edges) -> Graph:
    """Build a graph from unordered vertex pairs; duplicate pairs collapse.
    Every pair is checked here and sets both directions, so the masks are
    a simple graph's."""
    _require_int(n, "graph order")
    if n < 1:
        raise ValueError("graph order must be at least 1")
    masks = [0] * n
    for u, v in edges:
        _require_int(u, "edge vertex")
        _require_int(v, "edge vertex")
        if u == v:
            raise ValueError(f"loop edge ({u},{v}) rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for order {n}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph._derived(n, masks)


def make_named(family: str, n: int) -> Graph:
    """Standard labeled families: path, cycle, complete, star (hub = 0, n leaves)."""
    _require_int(n, "n")
    if family == "path":
        if n < 1:
            raise ValueError("path needs n >= 1")
        return from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "complete":
        if n < 1:
            raise ValueError("complete graph needs n >= 1")
        return from_edges(n, [(i, j) for j in range(n) for i in range(j)])
    if family == "star":
        if n < 1:
            raise ValueError("star needs at least 1 leaf")
        return from_edges(n + 1, [(0, i) for i in range(1, n + 1)])
    raise ValueError(f"unknown family {family!r}; expected path/cycle/complete/star")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line of order 1..258,047.

    The header is one byte, n + 63, for n <= 62, and ``~`` then n in
    three six-bit bytes (most significant first, each offset by 63) for
    63 <= n <= 258,047; the 8-byte ``~~`` form for larger orders is
    rejected.  The body packs the upper triangle column-by-column, bit
    (i, j) for i < j in the order (0,1), (0,2), (1,2), (0,3), ..., six
    bits per byte (most significant first), each byte offset by 63,
    padded with zeros.
    """
    s = text.rstrip("\n")
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    for idx, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            # every earlier character is ASCII, so idx counts bytes; name ch's first
            # UTF-8 byte, or the byte a surrogateescape decode kept as U+DC80..U+DCFF
            errors = "surrogateescape" if 0xDC80 <= ord(ch) <= 0xDCFF else "surrogatepass"
            raise Graph6Error(f"byte {ch.encode('utf-8', errors)[0]} outside graph6 range 63..126", idx)
    if s[0] != "~":
        head = 1
        n = ord(s[0]) - 63
        if n < 1:
            raise Graph6Error("graph order must be at least 1", 0)
    else:
        if s[1:2] == "~":
            raise Graph6Error(f"8-byte order header (n > {GRAPH6_MAX_ORDER}) unsupported", 0)
        head = 4
        if len(s) < head:
            raise Graph6Error("truncated 4-byte order header", len(s))
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        if n < 63:
            raise Graph6Error(f"order {n} takes a one-byte header, not a 4-byte one", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) < head + nbytes:
        raise Graph6Error(f"truncated body: expected {head + nbytes} bytes, got {len(s)}", len(s))
    if len(s) > head + nbytes:
        raise Graph6Error("trailing garbage after graph6 body", head + nbytes)
    masks = [0] * n
    t = 0
    for j in range(1, n):
        for i in range(j):
            byte = ord(s[head + t // 6]) - 63
            if (byte >> (5 - t % 6)) & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            t += 1
    if nbits % 6:
        pad = 6 - nbits % 6
        if (ord(s[-1]) - 63) & ((1 << pad) - 1):
            raise Graph6Error("nonzero padding bits", len(s) - 1)
    return Graph._derived(n, masks)


# graph6 body characters by six-bit group read lowest bit first: the
# format puts the group's first pair in the most significant bit
_GRAPH6_CHARS = tuple(chr(63 + int(f"{group:06b}"[::-1], 2)) for group in range(64))
# to_graph6 emits its body in windows of this many bits (320 groups) as
# the columns fill them, so each cut shifts a window, not the whole body;
# one window holds any body of order <= 62 (1,891 bits)
_GRAPH6_WINDOW = 6 * 320


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line; inverse of :func:`parse_graph6`.

    The header is one byte up to order 62 and ``~`` plus three bytes
    above that.  Column j of the upper triangle, ``adj[j]`` below bit j,
    is ORed into one integer at bit offset j(j-1)/2, so bit t is the t-th
    pair in graph6 order; whenever ``_GRAPH6_WINDOW`` bits are complete
    they are emitted and shifted out, and the rest is emitted at the end.
    Each six-bit group becomes one character through a bit-reversing
    table.  Bits past the last pair are zero, which is the format's
    padding.
    """
    if g._graph6 is not None:
        return g._graph6
    if g.n <= 62:
        header = chr(63 + g.n)
    elif g.n <= GRAPH6_MAX_ORDER:
        header = "~" + "".join([chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)])
    else:
        raise ValueError(f"graph6 encoder supports n <= {GRAPH6_MAX_ORDER}, got {g.n}")
    chars, width = _GRAPH6_CHARS, _GRAPH6_WINDOW
    body: list[str] = []
    bits = 0
    offset = 0
    for j, mask in enumerate(g.adj):
        bits |= (mask & ((1 << j) - 1)) << offset
        offset += j
        while offset >= width:
            body += [chars[(bits >> t) & 63] for t in range(0, width, 6)]
            bits >>= width
            offset -= width
    body += [chars[(bits >> t) & 63] for t in range(0, offset, 6)]
    g._graph6 = header + "".join(body)
    return g._graph6


def _refine(adj: Sequence[int], cells: list[int]) -> list[int]:
    """The coarsest equitable refinement of the ordered partition ``cells``
    (vertex bitsets): split each cell by its vertices' neighbour counts in
    every cell until no count tells two vertices of a cell apart.  Sub-cells
    stay in place of their cell, ordered by those counts, so the result
    commutes with relabeling."""
    while True:
        split: dict[tuple, int] = {}
        for i, cell in enumerate(cells):
            if not cell & (cell - 1):
                split[(i,)] = cell  # a singleton cannot split
                continue
            for v in iter_bits(cell):
                key = (i, *[(adj[v] & c).bit_count() for c in cells])
                split[key] = split.get(key, 0) | 1 << v
        if len(split) == len(cells):
            return cells
        cells = [split[key] for key in sorted(split)]


def canonical_form(g: Graph) -> Graph:
    """The relabeling of ``g`` that every graph isomorphic to ``g`` shares:
    vertex i of the result is vertex ``_canonical_order(g)[i]`` of ``g``."""
    if g._canonical is not None:
        return g._canonical
    g._canonical = Graph._derived(g.n, _relabeled(g.adj, _canonical_order(g)))
    return g._canonical


def _relabeled(adj: Sequence[int], order: list[int]) -> tuple[int, ...]:
    """The adjacency masks of the graph whose vertex i is vertex ``order[i]``."""
    bit = [0] * len(order)
    for i, v in enumerate(order):
        bit[v] = 1 << i
    masks = []
    for v in order:
        rest = adj[v]
        mask = 0
        while rest:  # the lowest-bit loop, inline: iter_bits is a generator
            low = rest & -rest
            mask |= bit[low.bit_length() - 1]
            rest ^= low
        masks.append(mask)
    return tuple(masks)


def _canonical_order(g: Graph) -> list[int]:
    """Individualization-refinement (McKay and Piperno, "Practical graph
    isomorphism, II", 2014).

    Starting from the degree partition, refined to an equitable one, each
    vertex of the first non-singleton cell is individualized in turn and
    the partition refined again, down to discrete partitions (leaves).  A
    leaf orders the vertices; the canonical order is the leaf whose
    relabeled adjacency masks are smallest.  Two leaves with equal masks
    differ by an automorphism, which prunes the search: the rest of the
    subtree that found it maps onto one already searched, and a child in
    the orbit of a searched sibling, under the automorphisms found so far
    that fix the path to both, is skipped.
    """
    adj = g.adj
    automorphisms: list[list[int]] = []
    first = best = None  # leaves as (masks, path, order)

    def leaf(path: list[int], order: list[int]) -> int | None:
        """Keep the leaf; on an automorphism, the depth whose current child is done."""
        nonlocal first, best
        code = _relabeled(adj, order)
        for seen in (first, best):
            if seen is not None and code == seen[0]:
                # the tree commutes with automorphisms, so this one maps
                # seen's path onto path and the subtree where they part
                # onto an earlier sibling's
                perm = [0] * g.n
                for a, b in zip(seen[2], order):
                    perm[a] = b
                automorphisms.append(perm)
                return next(d for d, (a, b) in enumerate(zip(seen[1], path)) if a != b)
        if best is None or code < best[0]:
            best = (code, path[:], order)
            first = first or best
        return None

    def search(part: list[int], path: list[int]) -> int | None:
        target = next((i for i, c in enumerate(part) if c & (c - 1)), None)
        if target is None:
            return leaf(path, [c.bit_length() - 1 for c in part])
        cell = part[target]
        searched = 0
        for v in iter_bits(cell):
            if _orbit(v, automorphisms, path) & searched:
                continue
            searched |= 1 << v
            path.append(v)
            child = [*part[:target], 1 << v, cell & ~(1 << v), *part[target + 1:]]
            back = search(_refine(adj, child), path)
            path.pop()
            if back is not None and back < len(path):
                return back
        return None

    search(_refine(adj, [(1 << g.n) - 1]), [])  # the first round splits by degree
    return best[2]


def _orbit(v: int, automorphisms: list[list[int]], fixed: list[int]) -> int:
    """The orbit of ``v``, as a bitset, under the automorphisms that fix ``fixed`` pointwise."""
    group = [p for p in automorphisms if all(p[u] == u for u in fixed)]
    orbit = 1 << v
    todo = [v]
    while todo:
        u = todo.pop()
        for p in group:
            if not (orbit >> p[u]) & 1:
                orbit |= 1 << p[u]
                todo.append(p[u])
    return orbit


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability of every vertex from vertex 0, memoized on ``g``."""
    if g._connected is not None:
        return g._connected
    full = (1 << g.n) - 1
    reach = 1
    frontier = 1
    adj = g.adj
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~reach
        reach |= frontier
    g._connected = reach == full
    return g._connected


def _lowpoint(g: Graph, caller: str) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """Cut vertices and bridges (as (u, v) with u < v) from one lowpoint DFS,
    memoized on ``g``; a disconnected graph raises on every call."""
    if g._cut_structure is not None:
        return g._cut_structure
    if not is_connected(g):
        raise ValueError(f"{caller} requires a connected graph")
    disc = [-1] * g.n
    low = [0] * g.n
    cuts: set[int] = set()
    bridge_set: set[tuple[int, int]] = set()
    adj = g.adj
    disc[0] = 0
    timer = 1
    root_children = 0
    # An explicit stack, so a long path cannot exhaust the interpreter's: each
    # frame is a vertex, its DFS parent (-1 at the root) and its unseen neighbours.
    stack = [(0, -1, iter_bits(adj[0]))]
    while stack:
        v, parent, rest = stack[-1]
        for u in rest:
            if disc[u] == -1:  # a tree edge: descend, and resume v's neighbours later
                disc[u] = low[u] = timer
                timer += 1
                stack.append((u, v, iter_bits(adj[u])))
                break
            if u != parent and disc[u] < low[v]:
                low[v] = disc[u]
        else:  # v is finished: fold its subtree into its parent
            stack.pop()
            if parent == -1:
                continue
            if low[v] >= disc[parent]:  # v's subtree reaches nothing above parent
                if parent == 0:
                    root_children += 1
                else:
                    cuts.add(parent)
                if low[v] > disc[parent]:
                    bridge_set.add((parent, v) if parent < v else (v, parent))
            elif low[v] < low[parent]:
                low[parent] = low[v]
    if root_children >= 2:
        cuts.add(0)
    g._cut_structure = (frozenset(cuts), frozenset(bridge_set))
    return g._cut_structure


def cut_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose removal disconnects ``g``."""
    return _lowpoint(g, "cut_vertices")[0]


def bridges(g: Graph) -> frozenset[tuple[int, int]]:
    """Edges whose removal disconnects ``g``, as (u, v) pairs with u < v."""
    return _lowpoint(g, "bridges")[1]


def enumerate_cycles(g: Graph, max_len: int) -> list[CycleSpec]:
    """All cycles of length 3..max_len, each reported once.

    The reported rotation starts at the cycle's minimum vertex and runs
    toward the smaller of its two cycle-neighbors, which deduplicates
    rotations and reflections.  Each cycle comes already validated on ``g``.
    """
    _require_int(max_len, "cycle length cap")
    if not 3 <= max_len <= g.n:
        raise ValueError(f"need 3 <= max_len <= {g.n}, got {max_len}")
    adj = g.adj
    out: list[CycleSpec] = []

    for s in range(g.n):
        above = -1 << (s + 1)  # vertices strictly greater than s
        sbit = 1 << s
        for v1 in iter_bits(adj[s] & above):
            # A depth-first walk of the simple paths s, v1, ... through
            # vertices above s, with an explicit stack so a long cycle cannot
            # exhaust the interpreter's: rests[i] holds the unexplored
            # extensions of path[i + 1], taken lowest first.
            path = [s, v1]
            used = sbit | (1 << v1)
            rests = [adj[v1] & above & ~used]
            while rests:
                rest = rests[-1]
                if not rest:  # path[-1] is finished
                    rests.pop()
                    used ^= 1 << path.pop()
                    continue
                low = rest & -rest
                rests[-1] = rest ^ low
                u = low.bit_length() - 1
                path.append(u)
                if adj[u] & sbit and v1 < u:
                    out.append(CycleSpec._derived(tuple(path), adj))
                if len(path) < max_len:
                    used |= low
                    rests.append(adj[u] & above & ~used)
                else:
                    path.pop()
    return out


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """All labeled simple connected graphs of order ``n``, in ascending
    edge-mask order (bit t of the mask is the t-th pair (0,1),(0,2),(1,2),...).

    Order k is built from order k-1 by vertex extension (McKay,
    "Isomorph-free exhaustive generation", 1998, in its labeled form):
    every graph of order k-1, connected or not, gains vertex k-1 with
    each neighbourhood h.  The pairs of vertex k-1 are the last k-1 bits
    of the mask, so a graph's code is its order-(k-1) code plus
    ``h << (k-1)(k-2)/2``; with h in the outer loop and the order-(k-1)
    graphs, kept in code order, in the inner one, codes ascend.  Each
    graph keeps its components as vertex bitsets, and the new vertex
    merges the components that h touches; at order n only the extensions
    whose h touches every component are connected.  That decides
    connectivity independently of the traversal in :func:`is_connected`.
    The tables live for one call.
    """
    _require_int(n, "corpus order")
    if not 1 <= n <= GENERATOR_MAX_ORDER:
        raise ValueError(
            f"corpus generator supports 1 <= n <= {GENERATOR_MAX_ORDER}, got {n}"
        )
    layer: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]  # order 0: masks, components
    for k in range(n - 1):
        bit = 1 << k
        grown = []
        for h in range(bit):
            links = tuple(bit if (h >> v) & 1 else 0 for v in range(k))
            for masks, components in layer:
                merged = bit
                apart = []
                for c in components:
                    if c & h:
                        merged |= c
                    else:
                        apart.append(c)
                apart.append(merged)
                grown.append(((*map(or_, masks, links), h), tuple(apart)))
        layer = grown
    k = n - 1
    bit = 1 << k
    # bit h of touching[c] is set iff neighbourhood h meets component c
    touching = [sum(1 << h for h in range(bit) if h & c) for c in range(bit)]
    last = []
    for masks, components in layer:
        connecting = -1  # bit h set iff h meets every component
        for c in components:
            connecting &= touching[c]
        last.append((masks, connecting))
    for h in range(bit):
        links = tuple(bit if (h >> v) & 1 else 0 for v in range(k))
        for masks, connecting in last:
            if (connecting >> h) & 1:
                yield Graph._derived(n, (*map(or_, masks, links), h))
