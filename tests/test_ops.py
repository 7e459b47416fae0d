import pytest

from domchrom.graph import (
    CycleSpec,
    enumerate_connected_graphs,
    from_edges,
    is_connected,
    make_named,
)
from domchrom.ops import (
    contract_edge,
    contract_vertices,
    contraction_index_map,
    cycle_extend,
    removal_index_map,
    remove_edge,
    remove_vertex,
    subdivide,
)


def test_remove_vertex_examples():
    assert remove_vertex(make_named("complete", 3), 0) == make_named("complete", 2)
    assert remove_vertex(make_named("cycle", 4), 3) == make_named("path", 3)
    relabeled = remove_vertex(make_named("cycle", 4), 1)  # path 1-2-0
    assert relabeled == from_edges(3, [(1, 2), (2, 0)])
    hubless = remove_vertex(make_named("star", 3), 0)
    assert hubless.m == 0 and not is_connected(hubless)
    with pytest.raises(ValueError):
        remove_vertex(make_named("complete", 1), 0)
    with pytest.raises(ValueError):
        remove_vertex(make_named("complete", 3), 3)


def test_remove_edge_examples():
    c4 = make_named("cycle", 4)
    p4_relabeled = remove_edge(c4, (3, 0))
    assert p4_relabeled == make_named("path", 4)
    assert remove_edge(make_named("complete", 3), (0, 1)).m == 2
    bare = remove_edge(make_named("path", 2), (0, 1))
    assert bare.m == 0 and not is_connected(bare)
    with pytest.raises(ValueError):
        remove_edge(make_named("path", 3), (0, 2))


def test_contract_edge_examples():
    assert contract_edge(make_named("complete", 3), (0, 1)) == make_named("complete", 2)
    c3 = contract_edge(make_named("cycle", 4), (0, 1))
    assert c3 == make_named("complete", 3)
    for n in range(2, 7):
        kn = make_named("complete", n)
        assert contract_edge(kn, (0, 1)) == make_named("complete", n - 1)
    with pytest.raises(ValueError):
        contract_edge(make_named("path", 3), (0, 2))


def test_contract_vertices_examples():
    p3 = make_named("path", 3)
    assert contract_vertices(p3, 0, 2) == make_named("complete", 2)
    # C_4 with an antipodal pair merged collapses the doubled edge: P_3
    c4 = make_named("cycle", 4)
    merged = contract_vertices(c4, 0, 2)
    assert merged == from_edges(3, [(0, 1), (0, 2)])
    # C_5 at distance 2: triangle with a pendant, 4 vertices 4 edges
    c5 = make_named("cycle", 5)
    tri_pendant = contract_vertices(c5, 0, 2)
    assert tri_pendant.n == 4 and tri_pendant.m == 4
    assert sorted(tri_pendant.adj[w].bit_count() for w in range(4)) == [1, 2, 2, 3]
    with pytest.raises(ValueError):
        contract_vertices(c4, 0, 1)  # adjacent: use contract_edge
    with pytest.raises(ValueError):
        contract_vertices(c4, 2, 2)


def test_index_maps():
    assert removal_index_map(4, 1) == (0, None, 1, 2)
    assert contraction_index_map(4, 1, 3) == (0, 1, 2, 1)
    assert contraction_index_map(4, 3, 1) == (0, 1, 2, 1)


def _through(g, vmap):
    """G's edges sent through a vertex map, minus deleted and merged pairs."""
    pairs = [(vmap[a], vmap[b]) for a, b in g.edges()]
    return from_edges(g.n - 1, [(a, b) for a, b in pairs if None not in (a, b) and a != b])


def test_contractions_stay_simple_on_full_corpus():
    # Graph() construction asserts loop-freeness and symmetry, so building
    # every contraction over the full n <= 6 corpus is the simplicity check;
    # connectivity preservation rides along, and every removal and
    # contraction is G sent through its index map.
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            for u, v in g.edges():
                h = contract_edge(g, (u, v))
                assert is_connected(h)
                assert h == _through(g, contraction_index_map(n, u, v))
            for v in range(n):
                assert remove_vertex(g, v) == _through(g, removal_index_map(n, v))
                for u in range(v):
                    if not g.has_edge(u, v):
                        h = contract_vertices(g, u, v)
                        assert is_connected(h)
                        assert h == _through(g, contraction_index_map(n, v, u))


def test_operations_preserve_connectedness():
    from domchrom.graph import enumerate_cycles

    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            assert is_connected(subdivide(g, 3)[0])
            if n >= 3:
                for cyc in enumerate_cycles(g, n):
                    assert is_connected(cycle_extend(g, cyc))


def test_subdivide_examples():
    p4, smap = subdivide(make_named("complete", 2), 3)
    assert p4 == from_edges(4, [(0, 2), (2, 3), (3, 1)])
    assert smap.superedges == {(0, 1): (0, 2, 3, 1)}
    c6, _ = subdivide(make_named("cycle", 3), 2)
    assert c6.n == 6 and c6.m == 6
    assert all(c6.degree(v) == 2 for v in range(6))
    with pytest.raises(ValueError):
        subdivide(make_named("path", 3), 0)


def test_subdivide_identity_at_k1():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            s, smap = subdivide(g, 1)
            assert s == g
            assert smap.internal_vertices() == set()


def test_subdivide_order_size_and_internal_degrees():
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            for k in (2, 3, 4):
                s, smap = subdivide(g, k)
                assert s.n == g.n + g.m * (k - 1)
                assert s.m == g.m * k
                for x in smap.internal_vertices():
                    assert s.degree(x) == 2
                for (u, v), path in smap.superedges.items():
                    assert path[0] == u and path[-1] == v
                    assert len(path) == k + 1
                    for a, b in zip(path, path[1:]):
                        assert s.has_edge(a, b)


def test_cycle_extend_examples():
    k4 = cycle_extend(make_named("cycle", 3), CycleSpec((0, 1, 2)))
    assert k4 == make_named("complete", 4)
    w4 = cycle_extend(make_named("cycle", 4), CycleSpec((0, 1, 2, 3)))
    assert w4.n == 5 and w4.m == 8
    bigk4 = cycle_extend(make_named("complete", 4), CycleSpec((0, 1, 2)))
    assert bigk4.n == 5 and bigk4.degree(4) == 3
    with pytest.raises(ValueError):
        cycle_extend(make_named("path", 4), CycleSpec((0, 1, 2)))


def test_cycle_extend_counts():
    for n in range(3, 6):
        cn = make_named("cycle", n)
        grown = cycle_extend(cn, CycleSpec(tuple(range(n))))
        assert grown.n == cn.n + 1
        assert grown.m == cn.m + n
        assert grown.degree(cn.n) == n
