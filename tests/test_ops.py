import io

import pytest

from domchrom import cli, harness, ops, witnesses
from domchrom.coloring import Coloring
from domchrom.graph import (
    CycleSpec,
    Graph,
    enumerate_connected_graphs,
    from_edges,
    is_connected,
    make_named,
)
from domchrom.ops import (
    OPERATIONS,
    contract_edge,
    contract_vertices,
    contraction_index_map,
    cycle_extend,
    removal_index_map,
    remove_edge,
    remove_vertex,
    subdivide,
    superedges,
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
    assert contract_vertices(p3, (0, 2)) == make_named("complete", 2)
    # C_4 with an antipodal pair merged collapses the doubled edge: P_3
    c4 = make_named("cycle", 4)
    merged = contract_vertices(c4, (0, 2))
    assert merged == from_edges(3, [(0, 1), (0, 2)])
    # C_5 at distance 2: triangle with a pendant, 4 vertices 4 edges
    c5 = make_named("cycle", 5)
    tri_pendant = contract_vertices(c5, (0, 2))
    assert tri_pendant.n == 4 and tri_pendant.m == 4
    assert sorted(tri_pendant.adj[w].bit_count() for w in range(4)) == [1, 2, 2, 3]
    with pytest.raises(ValueError):
        contract_vertices(c4, (0, 1))  # adjacent: use contract_edge
    with pytest.raises(ValueError):
        contract_vertices(c4, (2, 2))


def test_index_maps():
    assert removal_index_map(4, 1) == (0, None, 1, 2)
    assert contraction_index_map(4, (1, 3)) == (0, 1, 2, 1)
    assert contraction_index_map(4, (3, 1)) == (0, 1, 2, 1)


def _through(g, vmap):
    """G's edges sent through a vertex map, minus deleted and merged pairs."""
    pairs = [(vmap[a], vmap[b]) for a, b in g.edges()]
    return from_edges(g.n - 1, [(a, b) for a, b in pairs if None not in (a, b) and a != b])


def test_contractions_stay_simple_on_full_corpus():
    # every removal and contraction over the full n <= 6 corpus equals G sent
    # through the vertex map its OPERATIONS entry gives, built by from_edges,
    # which rejects loops and sets both directions of each pair: that equality
    # is the simplicity check; connectivity preservation rides along.
    vertex_map = {name: op.vertex_map for name, op in OPERATIONS.items()}
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            for u, v in g.edges():
                h = contract_edge(g, (u, v))
                assert is_connected(h)
                assert h == _through(g, vertex_map["contract_edge"](n, (u, v)))
            for v in range(n):
                assert remove_vertex(g, v) == _through(g, vertex_map["remove_vertex"](n, v))
                for u in range(v):
                    if not g.has_edge(u, v):
                        h = contract_vertices(g, (u, v))
                        assert is_connected(h)
                        assert h == _through(g, vertex_map["contract_vertices"](n, (v, u)))


def test_operations_preserve_connectedness():
    from domchrom.graph import enumerate_cycles

    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            assert is_connected(subdivide(g, 3))
            if n >= 3:
                for cyc in enumerate_cycles(g, n):
                    assert is_connected(cycle_extend(g, cyc))


def test_subdivide_examples():
    p4 = subdivide(make_named("complete", 2), 3)
    assert p4 == from_edges(4, [(0, 2), (2, 3), (3, 1)])
    assert superedges(make_named("complete", 2), 3) == {(0, 1): (0, 2, 3, 1)}
    c6 = subdivide(make_named("cycle", 3), 2)
    assert c6.n == 6 and c6.m == 6
    assert all(c6.degree(v) == 2 for v in range(6))
    with pytest.raises(ValueError):
        subdivide(make_named("path", 3), 0)
    with pytest.raises(ValueError):
        superedges(make_named("path", 3), 0)


def test_subdivide_identity_at_k1():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            assert subdivide(g, 1) == g
            assert superedges(g, 1) == {e: e for e in g.edges()}  # no internal vertex


def test_subdivide_order_size_and_internal_degrees():
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            for k in (2, 3, 4):
                s = subdivide(g, k)
                assert s.n == g.n + g.m * (k - 1)
                assert s.m == g.m * k
                for x in range(g.n, s.n):
                    assert s.degree(x) == 2
                for (u, v), path in superedges(g, k).items():
                    assert path[0] == u and path[-1] == v
                    assert len(path) == k + 1
                    for a, b in zip(path, path[1:]):
                        assert s.has_edge(a, b)


def test_superedge_paths_are_the_subdivision():
    # the paths' edges are exactly S(G,k)'s, and every internal vertex has degree 2
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for k in (1, 2, 3, 4):
                s = subdivide(g, k)
                paths = superedges(g, k)
                assert list(paths) == g.edges()
                walked = sorted((min(a, b), max(a, b)) for path in paths.values() for a, b in zip(path, path[1:]))
                assert walked == s.edges()
                internal = [x for path in paths.values() for x in path[1:-1]]
                assert sorted(internal) == list(range(g.n, s.n))
                assert all(s.degree(x) == 2 for x in internal)


# H's order for each operation, from G and the parameter
_ORDER = {
    "remove_vertex": lambda g, v: g.n - 1,
    "remove_edge": lambda g, e: g.n,
    "contract_edge": lambda g, e: g.n - 1,
    "contract_vertices": lambda g, pair: g.n - 1,
    "subdivide": lambda g, k: g.n + g.m * (k - 1),
    "cycle_extend": lambda g, cyc: g.n + 1,
}


def test_every_operation_returns_a_graph_and_maps_each_vertex():
    config = harness.HarnessConfig()
    theorem_of = {spec.operation: t for t, spec in harness._SPECS.items()}
    assert set(theorem_of) == set(OPERATIONS)
    contractions = ("contract_edge", "contract_vertices")
    for n in range(2, 5):
        for g in enumerate_connected_graphs(n):
            for name, op in OPERATIONS.items():
                for param in harness.theorem_instances(theorem_of[name], g, config):
                    h = getattr(ops, name)(g, param)
                    assert type(h) is Graph and h.n == _ORDER[name](g, param), (name, param)
                    vmap = op.vertex_map(g.n, param)
                    assert len(vmap) == g.n, (name, param)
                    if name.startswith("contract_"):
                        # uncontract carries colors across whichever contraction G's pair takes
                        assert all(vmap == OPERATIONS[c].vertex_map(g.n, param) for c in contractions), param
    # so a witness kind's operation, switched on an edge for uncontract, is the theorem's
    for theorem, spec in harness._SPECS.items():
        for kind in spec.witnesses or ():
            expected = "contract_vertices" if (theorem, kind) == (3, "uncontract") else spec.operation
            assert witnesses.WITNESS_KINDS[kind].operation == expected, (theorem, kind)


def test_cycle_extend_examples():
    k4 = cycle_extend(make_named("cycle", 3), CycleSpec((0, 1, 2)))
    assert k4 == make_named("complete", 4)
    w4 = cycle_extend(make_named("cycle", 4), CycleSpec((0, 1, 2, 3)))
    assert w4.n == 5 and w4.m == 8
    bigk4 = cycle_extend(make_named("complete", 4), CycleSpec((0, 1, 2)))
    assert bigk4.n == 5 and bigk4.degree(4) == 3
    with pytest.raises(ValueError):
        cycle_extend(make_named("path", 4), CycleSpec((0, 1, 2)))


def test_cycle_extend_reads_a_vertex_sequence_as_its_cycle():
    c5 = make_named("cycle", 5)
    wheel = cycle_extend(c5, CycleSpec((0, 1, 2, 3, 4)))
    assert cycle_extend(c5, (0, 1, 2, 3, 4)) == cycle_extend(c5, [0, 1, 2, 3, 4]) == wheel
    for bad in (5, None, (0, 1, 2.0, 3, 4), "01234"):
        with pytest.raises(ValueError, match=r"^cycle_extend takes a cycle \(a CycleSpec or a sequence of vertex ints\)"):
            cycle_extend(c5, bad)
    with pytest.raises(ValueError, match="^cycle length must be at least 3$"):
        cycle_extend(c5, (0, 1))
    with pytest.raises(ValueError, match="^consecutive cycle vertices 1 and 3 are not adjacent$"):
        cycle_extend(c5, [0, 1, 3])


def test_every_operation_reads_its_parameter_through_its_row():
    # called directly, as harness, witnesses and cli do after reading
    c4 = make_named("cycle", 4)
    cases = [
        (remove_vertex, True, "remove_vertex takes a vertex (an int)"),
        (remove_vertex, 1.0, "remove_vertex takes a vertex (an int)"),
        (remove_edge, (True, 0), "remove_edge takes an edge (two vertex ints)"),
        (remove_edge, (0, 1, 2), "remove_edge takes an edge (two vertex ints)"),
        (contract_edge, (0, 1.0), "contract_edge takes an edge (two vertex ints)"),
        (contract_vertices, (0, True), "contract_vertices takes a vertex pair (two vertex ints)"),
        (subdivide, True, "subdivide takes a path length k (an int)"),
        (superedges, True, "superedges takes a path length k (an int)"),
        (superedges, 2.0, "superedges takes a path length k (an int)"),
        (cycle_extend, (0, 1, True, 3), "cycle_extend takes a cycle (a CycleSpec or a sequence of vertex ints)"),
    ]
    for op, param, message in cases:
        with pytest.raises(ValueError) as info:
            op(c4, param)
        assert str(info.value) == f"{message}, got {param!r}", op.__name__
    # a list reads as the pair it holds
    assert remove_edge(c4, [3, 0]) == remove_edge(c4, (3, 0)) == make_named("path", 4)
    assert contract_vertices(c4, [0, 2]) == contract_vertices(c4, (0, 2))


def test_cycle_extend_counts():
    for n in range(3, 6):
        cn = make_named("cycle", n)
        grown = cycle_extend(cn, CycleSpec(tuple(range(n))))
        assert grown.n == cn.n + 1
        assert grown.m == cn.m + n
        assert grown.degree(cn.n) == n


@pytest.mark.parametrize(
    "module, names",
    [
        (harness, {spec.operation for spec in harness._SPECS.values()}),
        (witnesses, {kind.operation for kind in witnesses.WITNESS_KINDS.values()}),
        (cli, set(OPERATIONS)),
    ],
    ids=["harness", "witnesses", "cli"],
)
def test_operation_names_are_ops_functions_and_module_globals(module, names):
    # each caller applies an operation through its own module global of
    # that name, so a dropped import would otherwise surface as a KeyError
    assert names <= set(OPERATIONS)
    for name in OPERATIONS:
        assert getattr(ops, name).__module__ == "domchrom.ops"
    for name in names:
        assert vars(module).get(name) is getattr(ops, name), (module.__name__, name)


@pytest.mark.parametrize(
    "module, call",
    [
        (harness, lambda: harness.check_theorem(1, make_named("cycle", 4), 0)),
        (witnesses, lambda: witnesses.extend_witness("add_vertex", make_named("cycle", 4), 0, Coloring([0, 1, 0]))),
        (cli, lambda: cli.main(["apply", "--op", "remove-vertex", "--params", "0", "Cl"], stdout=io.StringIO())),
    ],
    ids=["harness", "witnesses", "cli"],
)
def test_callers_apply_an_operation_through_their_module_global(monkeypatch, module, call):
    # a tracer counts op calls per calling module by rebinding this global
    calls = []

    def counting(g, v):
        calls.append(v)
        return remove_vertex(g, v)

    monkeypatch.setattr(module, "remove_vertex", counting)
    call()
    assert calls == [0]
