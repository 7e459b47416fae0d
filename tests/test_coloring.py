import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domchrom.coloring import (
    Coloring,
    _judge,
    classes_dominated_by,
    dominators_of_class,
    is_domination_coloring,
    is_proper,
)
from domchrom.graph import Graph, enumerate_connected_graphs, from_edges, iter_bits, make_named


def test_coloring_normalizes_gaps():
    c = Coloring([0, 5, 5, 2])
    assert c.assignment == (0, 1, 1, 2)
    assert c.class_count == 3
    assert c.classes == (0b0001, 0b0110, 0b1000)


def _first_appearance(values):
    remap = {}
    return tuple(remap.setdefault(x, len(remap)) for x in values)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=12),
    st.sampled_from([list, tuple, iter]),
)
def test_coloring_renumbers_any_iterable_by_first_appearance(values, kind):
    c = Coloring(kind(values))
    dense = _first_appearance(values)
    assert c.assignment == dense
    assert c.class_count == len(set(values))
    assert c.classes == tuple(
        sum(1 << v for v, i in enumerate(dense) if i == cls) for cls in range(c.class_count)
    )


def test_coloring_rejects_empty_and_names_the_first_negative_color():
    for empty in ([], (), iter(())):
        with pytest.raises(ValueError, match="^coloring needs at least one vertex$"):
            Coloring(empty)
    for values in ([0, -3, 2, -1], (1, 1, -3, -1), iter([5, -3, -1])):
        with pytest.raises(ValueError, match="^negative color -3 rejected$"):
            Coloring(values)


def test_coloring_text_round_trip():
    c = Coloring.from_text("0,1,0,1")
    assert c.to_text() == "0,1,0,1"
    with pytest.raises(ValueError) as exc:
        Coloring.from_text("0,x,1")
    assert "byte offset 2" in str(exc.value)
    # offsets count UTF-8 bytes of the text as given, leading whitespace
    # included: U+3000 is a 3-byte space, the Arabic-Indic digit 3 takes 2
    for text, where in (
        ("  0,x", "'x' (byte offset 4)"),
        ("\t1,2,,3", "'' (byte offset 5)"),
        ("\u3000 0,x", "'x' (byte offset 6)"),
        ("0,\u0663,x", "'x' (byte offset 5)"),
    ):
        with pytest.raises(ValueError) as exc:
            Coloring.from_text(text)
        assert where in str(exc.value)
    with pytest.raises(ValueError):
        Coloring([-1, 0])


def test_coloring_pickles_with_and_without_a_judged_memo():
    # a filled memo travels with a pickled coloring and never affects equality
    c4 = make_named("cycle", 4)
    for text in ("0,1,0,1", "0,0,1,1"):
        c = Coloring.from_text(text)
        blank = pickle.loads(pickle.dumps(c))
        judged = _judge(c4, c)
        copy = pickle.loads(pickle.dumps(c))
        assert copy._judged == c._judged and blank._judged is None
        for other in (blank, copy):
            assert other == c and hash(other) == hash(c)
            assert _judge(c4, other) == judged


def test_is_proper_examples():
    c4 = make_named("cycle", 4)
    assert is_proper(c4, Coloring([0, 1, 0, 1]))
    assert not is_proper(make_named("complete", 2), Coloring([0, 0]))
    assert is_proper(make_named("complete", 4), Coloring([0, 1, 2, 3]))
    with pytest.raises(ValueError):
        is_proper(c4, Coloring([0, 1, 0]))


def test_dominators_of_class_examples():
    p3 = make_named("path", 3)  # 0-1-2
    ends_then_mid = Coloring([0, 1, 0])
    assert dominators_of_class(p3, ends_then_mid, 0) == {1}
    k5 = make_named("complete", 5)
    singleton_first = Coloring([0, 1, 1, 1, 1])
    assert dominators_of_class(k5, singleton_first, 0) == {0, 1, 2, 3, 4}
    c6 = make_named("cycle", 6)
    antipodal = Coloring([0, 1, 2, 0, 3, 4])
    assert dominators_of_class(c6, antipodal, 0) == set()
    for i in (2, -1, True, 0.0):
        with pytest.raises(ValueError, match=rf"^class index {i!r} is not an int in 0\.\.1$"):
            dominators_of_class(p3, ends_then_mid, i)


def test_classes_dominated_by_examples():
    star = make_named("star", 3)
    hub_vs_leaves = Coloring([0, 1, 1, 1])
    assert classes_dominated_by(star, hub_vs_leaves, 0) == {0, 1}
    p4 = make_named("path", 4)
    bipartition = Coloring([0, 1, 0, 1])
    assert classes_dominated_by(p4, bipartition, 0) == set()
    for v in (4, -1, True, 1.0):
        with pytest.raises(ValueError, match=rf"^vertex {v!r} is not an int in 0\.\.3$"):
            classes_dominated_by(p4, bipartition, v)
    # a vertex always dominates its own singleton class
    for g in enumerate_connected_graphs(4):
        c = Coloring([0, 1, 2, 3])
        for v in range(4):
            assert v in dominators_of_class(g, c, v)
            assert v in classes_dominated_by(g, c, v)


def test_is_domination_coloring_examples():
    ok, diag = is_domination_coloring(make_named("cycle", 4), Coloring([0, 1, 0, 1]))
    assert ok and diag.ok
    ok, diag = is_domination_coloring(make_named("path", 4), Coloring([0, 1, 0, 1]))
    assert not ok
    assert diag.undominating_vertices == (0, 3)
    assert diag.undominated_classes == ()
    assert diag.improper_edges == ()
    ok, _ = is_domination_coloring(make_named("complete", 4), Coloring([0, 1, 2, 3]))
    assert ok


def test_diagnostic_fully_populated():
    # improper, undominated and undominating findings all reported at once
    c6 = make_named("cycle", 6)
    bad = Coloring([0, 0, 1, 2, 1, 2])
    ok, diag = is_domination_coloring(c6, bad)
    assert not ok
    assert (0, 1) in diag.improper_edges
    p4 = make_named("path", 4)
    ok, diag = is_domination_coloring(p4, Coloring([0, 1, 0, 1]))
    assert len(diag.undominating_vertices) == 2


def _graph_from_code(n, code):
    # bit t of code says whether the t-th vertex pair (colex order) is an edge
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    masks = [0] * n
    for t, (i, j) in enumerate(pairs):
        if (code >> t) & 1:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return Graph(n, masks)


def _random_graph_and_coloring(draw, nmin=2, nmax=6):
    n = draw(st.integers(nmin, nmax))
    code = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    colors = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return _graph_from_code(n, code), Coloring(colors)


def _by_definition(g, c):
    """The checker's answer worked out from the edge list and closed
    neighborhoods with plain set arithmetic: each class's dominators, then the
    diagnostic's improper edges, undominated classes and undominating vertices."""
    color = c.assignment
    closed = [{v} | {u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n)]
    classes = [{v for v in range(g.n) if color[v] == i} for i in range(c.class_count)]
    doms = [set.intersection(*(closed[v] for v in cls)) for cls in classes]
    # the checker lists improper edges class by class, each class's in edge order
    improper = sorted((e for e in g.edges() if color[e[0]] == color[e[1]]), key=lambda e: (color[e[0]], e))
    undominated = [i for i, cls in enumerate(classes) if not any(cls <= nv for nv in closed)]
    undominating = [v for v in range(g.n) if not any(cls <= closed[v] for cls in classes)]
    return doms, (tuple(improper), tuple(undominated), tuple(undominating))


def _set_partitions(n):
    """Every set partition of range(n) as a restricted-growth string: vertex 0
    has class 0, and each later vertex joins a used class or opens the next one."""
    def grow(prefix, used):
        if len(prefix) == n:
            yield prefix
            return
        for x in range(used + 1):
            yield from grow(prefix + (x,), max(used, x + 1))

    return grow((), 0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_duality_of_domination_queries(data):
    g, c = _random_graph_and_coloring(data.draw)
    for v in range(g.n):
        for i in range(c.class_count):
            assert (v in dominators_of_class(g, c, i)) == (
                i in classes_dominated_by(g, c, v)
            )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_diagnostic_iff_definition(data):
    # every tuple of the diagnostic against the definition
    g, c = _random_graph_and_coloring(data.draw)
    _, (improper, undominated, undominating) = _by_definition(g, c)
    ok, diag = is_domination_coloring(g, c)
    assert diag.improper_edges == improper
    assert diag.undominated_classes == undominated
    assert diag.undominating_vertices == undominating
    assert ok == diag.ok == (not (improper or undominated or undominating))
    assert is_proper(g, c) == (not improper)


def test_checker_matches_definition_on_every_small_coloring():
    # every labeled graph with n <= 5, connected or not, under every set
    # partition of its vertices: valid colorings take the shared verdict, so
    # both of the checker's exits are covered.  Each coloring is judged on
    # its graph, then on the complement (same order, other edges), then on
    # an equal copy of its graph, so a memo that answers for a graph that
    # merely has the same order shows.
    pairs = valid = 0
    for n in range(1, 6):
        partitions = [Coloring(p) for p in _set_partitions(n)]
        all_pairs = (1 << (n * (n - 1) // 2)) - 1
        for code in range(all_pairs + 1):
            g = _graph_from_code(n, code)
            complement = _graph_from_code(n, code ^ all_pairs)
            copy = _graph_from_code(n, code)
            for c in partitions:
                want = _by_definition(g, c)
                for graph, expected in ((g, want), (complement, _by_definition(complement, c)), (copy, want)):
                    doms, diag = _judge(graph, c)
                    assert [set(iter_bits(d)) for d in doms] == expected[0], (graph.adj, c)
                    assert (diag.improper_edges, diag.undominated_classes, diag.undominating_vertices) == expected[1], (
                        graph.adj, c,
                    )
                pairs += 1
                valid += not any(want[1])
    assert pairs == 1 + 2 * 2 + 8 * 5 + 64 * 15 + 1024 * 52
    assert 0 < valid < pairs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_adding_edge_preserves_domination_coloring(data):
    g, c = _random_graph_and_coloring(data.draw)
    ok, _ = is_domination_coloring(g, c)
    if not ok:
        return
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) or c.assignment[u] == c.assignment[v]:
                continue
            bigger = from_edges(g.n, g.edges() + [(u, v)])
            assert is_domination_coloring(bigger, c)[0]


def test_all_singletons_is_domination_coloring():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            ok, _ = is_domination_coloring(g, Coloring(range(n)))
            assert ok
