import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domchrom.graph import (
    GRAPH6_MAX_ORDER,
    CycleSpec,
    Graph,
    Graph6Error,
    _canonical_order,
    bridges,
    canonical_form,
    cut_vertices,
    enumerate_connected_graphs,
    enumerate_cycles,
    from_edges,
    is_connected,
    iter_bits,
    make_named,
    parse_graph6,
    to_graph6,
)
from domchrom.harness import HarnessConfig, SkippedCheck, check_theorem
from domchrom.ops import remove_edge, remove_vertex, subdivide

# labeled connected graph counts for n = 1..7 (OEIS A001187)
CONNECTED_COUNTS = [1, 1, 4, 38, 728, 26704, 1866256]
# connected graphs up to isomorphism for n = 1..6 (OEIS A001349)
CONNECTED_CLASSES = [1, 1, 2, 6, 21, 112]


def test_from_edges_k2():
    g = from_edges(2, [(0, 1)])
    assert g.n == 2 and g.m == 1
    assert g.has_edge(0, 1)


def test_from_edges_c4_degrees():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert all(g.degree(v) == 2 for v in range(4))


def test_from_edges_collapses_duplicates():
    g = from_edges(3, [(0, 1), (0, 1), (1, 2)])
    assert g.m == 2


def test_from_edges_rejects_loop_and_range():
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])


def test_graph_rejects_asymmetric_masks():
    with pytest.raises(ValueError, match=r"^asymmetric adjacency between 1 and 0$"):
        Graph(2, [0b10, 0b00])
    # every single directed bit removed from a corpus graph: the error names the
    # first pair (a, then b ascending) where a's mask lists b but b's omits a
    for n in range(2, 5):
        for g in enumerate_connected_graphs(n):
            for v in range(n):
                for u in range(n):
                    if not g.has_edge(u, v):
                        continue
                    masks = list(g.adj)
                    masks[v] &= ~(1 << u)
                    first = next(
                        (b, a) for a in range(n) for b in range(n)
                        if (masks[a] >> b) & 1 and not (masks[b] >> a) & 1
                    )
                    with pytest.raises(ValueError, match=rf"^asymmetric adjacency between {first[0]} and {first[1]}$"):
                        Graph(n, masks)
    # range and self-loop errors come before any asymmetry error
    with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
        Graph(3, [0b010, 0b000, 0b100])
    with pytest.raises(ValueError, match=r"^neighbor mask of vertex 2 mentions vertices >= 3$"):
        Graph(3, [0b010, 0b000, 0b1000])


def _per_edge(n, masks):
    """Graph's contract checked pair by pair: (n, m, adj, closed) of a
    simple graph, or the text of the ValueError it must raise."""
    masks = list(masks)
    if len(masks) != n:
        return f"expected {n} neighbor masks, got {len(masks)}"
    for v, mask in enumerate(masks):
        if mask < 0 or mask >> n:
            return f"neighbor mask of vertex {v} mentions vertices >= {n}"
        if (mask >> v) & 1:
            return f"self-loop at vertex {v}"
    for v in range(n):
        for u in range(n):
            if (masks[v] >> u) & 1 and not (masks[u] >> v) & 1:
                return f"asymmetric adjacency between {u} and {v}"
    m = sum(bin(mask).count("1") for mask in masks) // 2
    return n, m, tuple(masks), tuple(mask | 1 << v for v, mask in enumerate(masks))


def _built(n, masks):
    try:
        g = Graph(n, masks)
    except ValueError as exc:
        return str(exc)
    return g.n, g.m, g.adj, g.closed


def _corruptions(n, masks, rng):
    """One-bit corruptions of a valid graph's masks, each named."""
    out = {"valid": masks}
    edges = [(u, v) for v in range(n) for u in range(n) if (masks[v] >> u) & 1]
    if edges:
        u, v = rng.choice(edges)
        out["dropped mirror bit"] = [mask & ~(1 << u) if w == v else mask for w, mask in enumerate(masks)]
    v = rng.randrange(n)
    out["self-loop"] = [mask | (1 << v) if w == v else mask for w, mask in enumerate(masks)]
    width = max(8, 1 << (n - 1).bit_length())
    for where in (n, width - 1, width, rng.randrange(n, 2 * width + 3)):
        if where >= n:
            out[f"bit {where}"] = [mask | (1 << where) if w == v else mask for w, mask in enumerate(masks)]
    out["negative mask"] = [~mask if w == v else mask for w, mask in enumerate(masks)]
    out["one mask short"] = masks[:-1]
    out["one mask over"] = masks + [0]
    return out


@pytest.mark.parametrize("n", [1, 2, 8, 9, 16, 17, 32, 33, 62, 64, 65, 100])
def test_graph_kernel_matches_the_per_edge_definition(n):
    # random valid masks and one-bit corruptions of them, on both sides of
    # every matrix width the kernel switches at: Graph raises exactly when
    # the pair-by-pair definition does, with its message, and otherwise
    # builds the same graph
    rng = random.Random(f"graph-kernel:{n}")
    for density in (0.0, 0.1, 0.5, 0.9, 1.0):
        masks = [0] * n
        for j in range(n):
            for i in range(j):
                if rng.random() < density:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        for name, variant in _corruptions(n, masks, rng).items():
            want = _per_edge(n, variant)
            assert _built(n, variant) == want, (n, density, name)
            if name != "valid":
                assert isinstance(want, str), (n, density, name)


def test_graph_kernel_validates_a_subdivision_of_order_70():
    # above graph6's one-byte header (62) and above 64: the kernel's matrix is 128 bits wide
    h = subdivide(make_named("cycle", 5), 14)
    assert (h.n, h.m) == (70, 70)
    assert all(h.degree(v) == 2 for v in range(h.n)) and is_connected(h)
    assert _built(h.n, h.adj) == _per_edge(h.n, h.adj)
    rng = random.Random(70)
    for name, variant in _corruptions(h.n, list(h.adj), rng).items():
        assert _built(h.n, variant) == _per_edge(h.n, variant), name


@pytest.mark.parametrize("n", [3, 9, 70])
def test_graph_stores_numpy_masks_as_plain_ints(n):
    # numpy integers pack at no width: the per-edge path turns every mask
    # into a plain int through operator.index (at n = 70 the masks too wide
    # for int64 stay Python ints), and a float mask is a TypeError
    np = pytest.importorskip("numpy")
    cycle = make_named("cycle", n)
    masks = [np.int64(mask) if mask < 2**63 else mask for mask in cycle.adj]
    assert any(isinstance(mask, np.int64) for mask in masks)
    g = Graph(n, masks)
    assert g == cycle and g.m == n
    assert all(type(mask) is int for mask in g.adj + g.closed)
    assert is_connected(g) and cut_vertices(g) == set()
    with pytest.raises(TypeError):
        Graph(n, [float(cycle.adj[0]), *cycle.adj[1:]])
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(n, [np.int64(0), *masks[1:]])


def test_make_named_families():
    p4 = make_named("path", 4)
    assert p4.edges() == [(0, 1), (1, 2), (2, 3)]
    k4 = make_named("complete", 4)
    assert k4.m == 6
    star = make_named("star", 3)
    assert [star.degree(v) for v in range(star.n)] == [3, 1, 1, 1]
    with pytest.raises(ValueError):
        make_named("cycle", 2)
    with pytest.raises(ValueError):
        make_named("mystery", 3)


def test_graph6_hand_encoded_values():
    # hand-encoded per the format: n=2 header 'A', single bit -> '_'
    assert to_graph6(make_named("complete", 2)) == "A_"
    assert to_graph6(make_named("complete", 4)) == "C~"
    assert parse_graph6("A_") == make_named("complete", 2)
    assert parse_graph6("C~") == make_named("complete", 4)
    empty3 = parse_graph6("B?")
    assert empty3.n == 3 and empty3.m == 0
    assert not is_connected(empty3)


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("")
    assert exc.value.offset == 0
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("C~~")  # trailing garbage
    assert exc.value.offset == 2
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("C")  # truncated body
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("B!")  # byte below 63
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A@")  # nonzero padding bits for K_2-complement
    assert exc.value.offset == 1


def test_graph6_round_trip_small_corpus():
    # parse_graph6 decodes pair by pair, independently of the column encoder
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            s = to_graph6(g)
            assert parse_graph6(s) == g
            assert to_graph6(parse_graph6(s)) == s


@pytest.mark.parametrize("n", [7, 8, 13, 40, 62])
def test_graph6_round_trip_random_graphs(n):
    rng = random.Random(f"graph6:{n}")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for density in (0.0, 0.05, 0.3, 0.5, 0.8, 1.0):
        for _ in range(4):
            g = from_edges(n, [p for p in pairs if rng.random() < density])
            s = to_graph6(g)
            assert len(s) == 1 + (len(pairs) + 5) // 6
            assert parse_graph6(s) == g


@pytest.mark.parametrize("n", [62, 63, 70, 200])
def test_graph6_round_trip_across_the_four_byte_header(n):
    # orders above 62 take "~" and n in three six-bit bytes, most significant first
    header = chr(63 + n) if n <= 62 else "~" + chr(63 + (n >> 12)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    rng = random.Random(f"graph6-header:{n}")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for density in (0.0, 0.05, 0.5, 1.0):
        g = from_edges(n, [p for p in pairs if rng.random() < density])
        s = to_graph6(g)
        assert s.startswith(header)
        assert len(s) == len(header) + (len(pairs) + 5) // 6
        assert parse_graph6(s) == g
        assert to_graph6(parse_graph6(s)) == s
    assert to_graph6(from_edges(63, [])).startswith("~??~")


def test_graph6_round_trip_at_order_1000():
    # the body spans 261 encoder windows: encoding takes about 0.02 s, and
    # cutting each group from the whole body instead takes 0.5 s and more
    rng = random.Random("graph6-1000")
    path = make_named("path", 1000)
    sparse = from_edges(1000, [(i, j) for j in range(1, 1000) for i in range(j) if rng.random() < 0.002])
    for g in (path, sparse):
        start = time.perf_counter()
        s = to_graph6(g)
        assert time.perf_counter() - start < 0.25
        assert len(s) == 4 + (1000 * 999 // 2 + 5) // 6
        assert parse_graph6(s) == g


@pytest.mark.parametrize("n", [1, 2, 6, 62, 63, 64, 70, 200, 1000])
def test_graph6_matches_networkx_bytes(n):
    nx = pytest.importorskip("networkx")
    rng = random.Random(f"graph6-networkx:{n}")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    # dense graphs of order 1000 take seconds to build on both sides
    for density in (0.0, 0.01, 0.5, 1.0) if n <= 200 else (0.0, 0.01):
        g = from_edges(n, [p for p in pairs if rng.random() < density])
        theirs = nx.Graph()
        theirs.add_nodes_from(range(n))
        theirs.add_edges_from(g.edges())
        assert to_graph6(g).encode() + b"\n" == nx.to_graph6_bytes(theirs, header=False)


def test_graph6_header_errors():
    for text, offset, message in [
        ("~~??????", 0, "8-byte order header"),
        ("~??", 3, "truncated 4-byte order header"),
        ("~??}", 0, "order 62 takes a one-byte header"),
        ("~??~", 4, "truncated body"),
    ]:
        with pytest.raises(Graph6Error, match=message) as exc:
            parse_graph6(text)
        assert exc.value.offset == offset, text
    assert GRAPH6_MAX_ORDER == 258_047


def test_is_connected():
    # memoized on the graph: asked twice, each graph gives the same answer
    for g, connected in [
        (make_named("path", 4), True),
        (make_named("complete", 1), True),
        (from_edges(3, [(0, 1)]), False),
    ]:
        assert is_connected(g) is connected
        assert is_connected(g) is connected


def test_cut_vertices_examples():
    assert cut_vertices(make_named("path", 4)) == {1, 2}
    assert cut_vertices(make_named("cycle", 4)) == set()
    assert cut_vertices(make_named("star", 3)) == {0}
    with pytest.raises(ValueError):
        cut_vertices(from_edges(3, [(0, 1)]))


def test_bridges_examples():
    assert bridges(make_named("path", 4)) == {(0, 1), (1, 2), (2, 3)}
    assert bridges(make_named("cycle", 4)) == set()
    assert bridges(make_named("complete", 4)) == set()
    with pytest.raises(ValueError):
        bridges(from_edges(3, [(0, 1)]))


def test_memos_match_a_fresh_copy_on_corpus():
    # to_graph6, canonical_form, cut_vertices and bridges are memoized on the
    # graph: asked twice, one object answers what a freshly parsed copy computes
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            first = (to_graph6(g), canonical_form(g), cut_vertices(g), bridges(g))
            assert (to_graph6(g), canonical_form(g), cut_vertices(g), bridges(g)) == first
            fresh = parse_graph6(first[0])
            assert fresh == g
            assert (to_graph6(fresh), canonical_form(fresh), cut_vertices(fresh), bridges(fresh)) == first


def test_cut_structure_is_immutable_and_never_memoized_when_disconnected():
    p4 = make_named("path", 4)
    assert isinstance(cut_vertices(p4), frozenset)
    assert isinstance(bridges(p4), frozenset)
    with pytest.raises(AttributeError):
        cut_vertices(p4).add(0)
    with pytest.raises(AttributeError):
        bridges(p4).discard((0, 1))
    assert cut_vertices(p4) == {1, 2}
    split = from_edges(3, [(0, 1)])
    for _ in range(2):
        with pytest.raises(ValueError):
            cut_vertices(split)
        with pytest.raises(ValueError):
            bridges(split)


def test_graph_pickles_with_and_without_memos():
    # filled memo slots travel with a pickled graph and never affect equality
    for g in (make_named("path", 4), make_named("cycle", 5)):
        blank = pickle.loads(pickle.dumps(g))
        filled = (to_graph6(g), canonical_form(g), cut_vertices(g), bridges(g))
        copy = pickle.loads(pickle.dumps(g))
        for other in (blank, copy):
            assert other == g and hash(other) == hash(g)
            assert (to_graph6(other), canonical_form(other), cut_vertices(other), bridges(other)) == filled


def test_cut_structure_matches_removal_on_corpus():
    # v is a cut vertex iff deleting it disconnects; e is a bridge iff
    # deleting it disconnects (cross-check on all connected graphs n <= 6)
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            cuts = cut_vertices(g)
            for v in range(n):
                assert (v in cuts) == (not is_connected(remove_vertex(g, v)))
            brs = bridges(g)
            for e in g.edges():
                assert (e in brs) == (not is_connected(remove_edge(g, e)))


def test_cut_structure_of_long_paths_and_cycles():
    # the DFS keeps its own stack, so depth is not bounded by the recursion limit
    p, c = make_named("path", 2000), make_named("cycle", 2000)
    assert cut_vertices(p) == frozenset(range(1, 1999))
    assert bridges(p) == frozenset((v, v + 1) for v in range(1999))
    assert cut_vertices(c) == frozenset() and bridges(c) == frozenset()
    chk = check_theorem(1, make_named("cycle", 1200), 0, config=HarnessConfig(budget=50, witnesses=False))
    assert isinstance(chk, SkippedCheck) and chk.reason == "solver budget exhausted"


def test_enumerate_cycles_examples():
    c4 = make_named("cycle", 4)
    found = enumerate_cycles(c4, 4)
    assert len(found) == 1 and found[0].length == 4
    k4 = make_named("complete", 4)
    assert len(enumerate_cycles(k4, 3)) == 4  # brute-force count of triangles
    assert enumerate_cycles(make_named("path", 4), 4) == []


def test_enumerate_cycles_canonical_form():
    k4 = make_named("complete", 4)
    for c in enumerate_cycles(k4, 4):
        seq = c.vertices
        assert seq[0] == min(seq)
        assert seq[1] < seq[-1]
    # every cycle appears exactly once under rotation/reflection
    keys = set()
    for c in enumerate_cycles(k4, 4):
        key = frozenset(
            frozenset({c.vertices[i], c.vertices[(i + 1) % c.length]})
            for i in range(c.length)
        )
        assert key not in keys
        keys.add(key)


def test_enumerate_cycles_brute_force_cross_check():
    # independent count: try every vertex permutation of every subset
    from itertools import combinations, permutations

    for g in enumerate_connected_graphs(5):
        seen = set()
        for size in (3, 4, 5):
            for sub in combinations(range(5), size):
                for perm in permutations(sub):
                    if perm[0] != min(perm):
                        continue
                    edges = [
                        frozenset({perm[i], perm[(i + 1) % size]}) for i in range(size)
                    ]
                    if all(g.has_edge(*tuple(e)) for e in edges):
                        seen.add(frozenset(edges))
        assert len(enumerate_cycles(g, 5)) == len(seen)


# Every cycle enumerate_cycles reports, as vertex digits in report order, per max_len.
_CYCLE_ORDERS = {
    "K5": (make_named("complete", 5), {
        3: "012 013 014 023 024 034 123 124 134 234",
        4: "012 0123 0124 013 0132 0134 014 0142 0143 0213 0214 023 0234 024 0243 0314 0324 034 123 1234 124 "
           "1243 1324 134 234",
        5: "012 0123 01234 0124 01243 013 0132 01324 0134 01342 014 0142 01423 0143 01432 0213 02134 0214 "
           "02143 023 02314 0234 024 02413 0243 03124 0314 03214 0324 034 123 1234 124 1243 1324 134 234",
    }),
    # hub 0 on the rim 1-2-3-4-5
    "wheel": (from_edges(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]), {
        3: "012 015 023 034 045",
        4: "012 0123 015 0154 0215 023 0234 034 0345 045",
        5: "012 0123 01234 015 0154 01543 0215 02154 023 0234 02345 03215 034 0345 045 12345",
        6: "012 0123 01234 012345 015 0154 01543 015432 0215 02154 021543 023 0234 02345 03215 032154 034 "
           "0345 043215 045 12345",
    }),
    # K_{3,3} with sides {0, 2, 4} and {1, 3, 5}
    "K33": (from_edges(6, [(a, b) for a in (0, 2, 4) for b in (1, 3, 5)]), {
        3: "",
        4: "0123 0125 0143 0145 0325 0345 1234 1254 2345",
        5: "0123 0125 0143 0145 0325 0345 1234 1254 2345",
        6: "0123 012345 0125 012543 0143 014325 0145 014523 032145 0325 034125 0345 1234 1254 2345",
    }),
}


@pytest.mark.parametrize("name", sorted(_CYCLE_ORDERS))
def test_enumerate_cycles_order_is_pinned(name):
    g, by_len = _CYCLE_ORDERS[name]
    assert sorted(by_len) == list(range(3, g.n + 1))
    for max_len, text in by_len.items():
        expected = [tuple(int(ch) for ch in word) for word in text.split()]
        assert [c.vertices for c in enumerate_cycles(g, max_len)] == expected, max_len



def test_enumerate_cycles_walks_a_cycle_longer_than_the_recursion_limit():
    found = enumerate_cycles(make_named("cycle", 1100), 1100)
    assert [c.vertices for c in found] == [tuple(range(1100))]

def test_cycle_spec_validation():
    with pytest.raises(ValueError):
        CycleSpec((0, 1))
    with pytest.raises(ValueError):
        CycleSpec((0, 1, 1))
    c = CycleSpec((0, 1, 2))
    with pytest.raises(ValueError):
        c.validate(make_named("path", 3))
    c.validate(make_named("complete", 3))


def test_cycle_spec_validated_once_still_checks_every_other_graph():
    # validating on C4 must not vouch for a graph where the cycle is absent,
    # whether it has the same order or another one
    cyc = CycleSpec((0, 1, 2, 3))
    c4 = make_named("cycle", 4)
    cyc.validate(c4)
    for g in (make_named("path", 4), make_named("star", 3), make_named("cycle", 5), make_named("path", 3)):
        with pytest.raises(ValueError):
            cyc.validate(g)
    cyc.validate(from_edges(4, c4.edges()))  # an equal copy passes


def test_cycle_spec_pickles_with_and_without_a_validated_memo():
    # a filled memo travels with a pickled cycle and never affects equality
    c4 = make_named("cycle", 4)
    cyc = CycleSpec((0, 1, 2, 3))
    blank = pickle.loads(pickle.dumps(cyc))
    cyc.validate(c4)
    copy = pickle.loads(pickle.dumps(cyc))
    assert copy._validated == c4.adj and blank._validated is None
    for other in (blank, copy):
        assert other == cyc and hash(other) == hash(cyc) and repr(other) == repr(cyc)
        other.validate(c4)
        with pytest.raises(ValueError):
            other.validate(make_named("path", 4))


def test_corpus_counts_and_agreement_with_connectivity_filter():
    # the vertex-extension generator, which tracks components as bitsets,
    # and the BFS connectivity filter over every edge mask must agree,
    # graph for graph and in order
    for n, want in enumerate(CONNECTED_COUNTS[:6], start=1):
        streamed = list(enumerate_connected_graphs(n))
        assert len(streamed) == want
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        filtered = []
        for code in range(1 << len(pairs)):
            masks = [0] * n
            for t, (i, j) in enumerate(pairs):
                if (code >> t) & 1:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
            g = Graph(n, masks)
            if is_connected(g):
                filtered.append(g)
        assert streamed == filtered


def test_corpus_count_n6():
    assert sum(1 for _ in enumerate_connected_graphs(6)) == CONNECTED_COUNTS[5]


def test_corpus_count_n7():
    assert sum(1 for _ in enumerate_connected_graphs(7)) == CONNECTED_COUNTS[6]


def test_generator_guard():
    with pytest.raises(ValueError):
        list(enumerate_connected_graphs(8))
    with pytest.raises(ValueError):
        list(enumerate_connected_graphs(0))


def _permuted(g: Graph, perm) -> Graph:
    """The graph whose vertex perm[v] is vertex v of g."""
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_canonical_form_finds_the_143_classes_up_to_n6_by_relabeling():
    # one pass over the 27,476 graphs: a relabeling, shared by a fixed
    # pseudo-random permutation of each graph, one per isomorphism class
    rng = random.Random(2014)
    for n, classes in enumerate(CONNECTED_CLASSES, start=1):
        seen = set()
        for g in enumerate_connected_graphs(n):
            order = _canonical_order(g)
            assert sorted(order) == list(range(n))
            canon = canonical_form(g)
            assert canon == _permuted(g, {v: i for i, v in enumerate(order)})
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(_permuted(g, perm)) == canon
            seen.add(canon)
        assert len(seen) == classes
        assert all(canonical_form(canon) == canon for canon in seen)  # idempotent


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + inner + [(i, i + 5) for i in range(5)])


@pytest.mark.parametrize(
    "g",
    [make_named("star", 30), make_named("complete", 8), make_named("cycle", 31), _petersen()],
    ids=["star31", "K8", "C31", "petersen"],
)
def test_canonical_form_returns_promptly_on_symmetric_graphs(g):
    # without automorphism pruning the star of order 31 has 30! leaves
    start = time.perf_counter()
    canon = canonical_form(g)
    assert time.perf_counter() - start < 2.0
    assert canonical_form(_permuted(g, list(reversed(range(g.n))))) == canon


def test_canonical_form_agrees_with_vf2():
    nx = pytest.importorskip("networkx")

    def as_nx(x: Graph):  # every vertex, an isolated one included
        return nx.from_dict_of_lists({v: list(iter_bits(x.adj[v])) for v in range(x.n)})

    @st.composite
    def connected_graphs(draw):
        n = draw(st.integers(7, 12))
        tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        return from_edges(n, tree + draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))

    @settings(max_examples=200, deadline=None)
    @given(connected_graphs(), st.randoms(use_true_random=False), st.booleans())
    def check(g, rng, move_an_edge):
        # h is a relabeling of g, or of g with one edge moved
        edges = g.edges()
        if move_an_edge:
            absent = [(u, v) for v in range(g.n) for u in range(v) if not g.has_edge(u, v)]
            if absent:
                edges.remove(rng.choice(edges))
                edges.append(rng.choice(absent))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = _permuted(from_edges(g.n, edges), perm)
        assert (canonical_form(g) == canonical_form(h)) == nx.is_isomorphic(as_nx(g), as_nx(h))

    check()


def test_canonical_form_is_shared_by_relabelings_of_regular_graphs():
    # refinement cannot split a regular graph's degree cell, so the search
    # tree is deep and wide: this is where an unsound prune shows
    nx = pytest.importorskip("networkx")
    rng = random.Random(2014)
    for seed in range(60):
        n = 8 + seed % 9
        g = from_edges(n, nx.random_regular_graph(3 + n % 2, n, seed=seed).edges())
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(_permuted(g, perm)) == canonical_form(g)
