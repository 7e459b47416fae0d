"""Graphs and cycles the package derives itself against the checked constructors.

The operations, canonical and search forms, the corpus generator,
``parse_graph6`` and ``from_edges`` build their graphs without ``Graph``'s
check, and ``enumerate_cycles`` builds its cycles without ``CycleSpec``'s.
Each test here rebuilds what they made through ``Graph(n, masks)`` or
``CycleSpec(vertices)``, which check everything, and requires the same value.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domchrom import harness, ops
from domchrom.graph import (
    CycleSpec,
    Graph,
    canonical_form,
    enumerate_connected_graphs,
    enumerate_cycles,
    from_edges,
    make_named,
    parse_graph6,
    to_graph6,
)
from domchrom.solver import DEFAULT_BUDGET, search_form


def assert_checked_equal(h: Graph) -> None:
    """``h`` equals the graph the checked constructor builds from its masks,
    slot for slot, and holds only plain ints."""
    assert type(h.adj) is tuple and type(h.closed) is tuple
    assert all(type(mask) is int for mask in h.adj + h.closed)
    ref = Graph(h.n, list(h.adj))  # raises unless the masks are a simple graph's
    assert (h.n, h.m, h.adj, h.closed) == (ref.n, ref.m, ref.adj, ref.closed)
    assert h.m == len(h.edges())


def _corpus(n_max: int) -> list[Graph]:
    return [g for n in range(1, n_max + 1) for g in enumerate_connected_graphs(n)]


def _operation_instances(g: Graph):
    """Every (operation name, parameter) the operations accept on ``g``."""
    if g.n >= 2:
        yield from (("remove_vertex", v) for v in range(g.n))
    for e in g.edges():
        yield "remove_edge", e
        yield "contract_edge", e
        yield "contract_edge", e[::-1]
    for u, v in combinations(range(g.n), 2):
        if not g.has_edge(u, v):
            yield "contract_vertices", (u, v)
            yield "contract_vertices", (v, u)
    yield from (("subdivide", k) for k in range(1, 5))
    if g.n >= 3:
        yield from (("cycle_extend", c) for c in enumerate_cycles(g, g.n))


def test_every_operation_output_up_to_n5_matches_the_checked_constructor():
    counts = dict.fromkeys(ops.OPERATIONS, 0)
    for g in _corpus(5):
        for name, param in _operation_instances(g):
            h = getattr(ops, name)(g, param)
            assert h.n == ops.OPERATIONS[name].order(g, param)
            assert_checked_equal(h)
            counts[name] += 1
    assert all(counts.values()), counts


def test_corpus_graphs_up_to_n6_match_the_checked_constructor():
    graphs = _corpus(6)
    assert len(graphs) == 1 + 1 + 4 + 38 + 728 + 26704
    for g in graphs:
        assert_checked_equal(g)


def test_canonical_and_search_forms_at_n6_match_the_checked_constructor(monkeypatch):
    # the harness solves a relabeled graph's search form, which it builds from
    # the form's masks: every graph it hands the solver must be checked-equal
    solved = []
    solve = harness.chi_dd_exact

    def recording(g, budget):
        solved.append(g)
        return solve(g, budget)

    monkeypatch.setattr(harness, "chi_dd_exact", recording)
    cache = {}
    relabeled = 0
    for g in enumerate_connected_graphs(6):
        assert_checked_equal(canonical_form(g))
        relabeled += search_form(g)[1] != g.adj
        harness._solve_cached(g, DEFAULT_BUDGET, cache)
    assert relabeled > 0 and solved
    forms = 0
    for h in solved:
        assert_checked_equal(h)
        forms += search_form(h)[1] is h.adj
    assert forms == len(solved)  # the harness solves only search forms


def test_parse_graph6_matches_the_checked_constructor_on_the_corpus():
    for g in _corpus(6):
        h = parse_graph6(to_graph6(g))
        assert h == g
        assert_checked_equal(h)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parse_graph6_matches_the_checked_constructor_up_to_order_70(data):
    n = data.draw(st.integers(min_value=1, max_value=70), label="n")
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges") if pairs else []
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    g = Graph(n, masks)
    h = parse_graph6(to_graph6(g))
    assert h == g
    assert_checked_equal(h)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_from_edges_matches_the_checked_constructor(data):
    # duplicate pairs and both orders of a pair collapse into one edge
    n = data.draw(st.integers(min_value=2, max_value=70), label="n")
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=200), label="edges")
    h = from_edges(n, pairs)
    assert_checked_equal(h)
    assert set(h.edges()) == {(min(e), max(e)) for e in pairs}


def test_named_families_match_the_checked_constructor():
    for family, orders in (("path", (1, 2, 7)), ("cycle", (3, 8)), ("complete", (1, 6)), ("star", (1, 5))):
        for n in orders:
            assert_checked_equal(make_named(family, n))


def test_enumerated_cycles_equal_checked_cycles_and_validate_afresh_elsewhere():
    checked = 0
    for g in _corpus(5):
        if g.n < 3:
            continue
        complete = make_named("complete", g.n)
        for c in enumerate_cycles(g, g.n):
            fresh = CycleSpec(c.vertices)
            assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)
            assert type(c.vertices) is tuple
            c.validate(g)
            # without one of its edges the cycle is absent: a fresh walk rejects it
            a, b = c.vertices[:2]
            with pytest.raises(ValueError, match="not adjacent"):
                c.validate(ops.remove_edge(g, (a, b)))
            with pytest.raises(ValueError, match="out of range"):
                c.validate(make_named("path", 2))
            c.validate(complete)  # present there, so it passes afresh
            c.validate(g)  # and again on g, afresh
            checked += 1
    assert checked
