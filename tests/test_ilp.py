"""chi_dd_exact against a set-partition ILP, past the oracle's reach.

Every class of a domination coloring is an independent set S inside the
closed neighborhood N[u] of a vertex u that dominates it.  So chi_dd(G)
is the fewest columns S, taken from every independent S within some
N[u], such that each vertex lies in exactly one chosen S and in the
dominator set dom(S) = {w : S within N[w]} of at least one.  The model is
built here from plain sets and solved by HiGHS through scipy; it shares
no code with the solver.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domchrom.graph import from_edges, make_named, to_graph6
from domchrom.ops import contract_edge, contract_vertices
from domchrom.solver import chi_dd_exact, path_chi_dd

optimize = pytest.importorskip("scipy.optimize")
np = pytest.importorskip("numpy")  # a dependency of scipy

MAX_DEGREE = 8  # a ball of d + 1 vertices has up to 2^(d+1) independent subsets


def _columns(g) -> list[tuple[frozenset, frozenset]]:
    closed = [frozenset(u for u in range(g.n) if u == v or g.has_edge(u, v)) for v in range(g.n)]
    columns = {}
    for ball in closed:
        for r in range(1, len(ball) + 1):
            for s in combinations(sorted(ball), r):
                if any(g.has_edge(a, b) for a, b in combinations(s, 2)):
                    continue
                s = frozenset(s)
                if s not in columns:
                    columns[s] = frozenset(w for w in range(g.n) if s <= closed[w])
    return list(columns.items())


def ilp_chi_dd(g) -> int:
    columns = _columns(g)
    cover = np.array([[v in s for s, _ in columns] for v in range(g.n)], dtype=float)
    dominate = np.array([[v in dom for _, dom in columns] for v in range(g.n)], dtype=float)
    res = optimize.milp(
        c=np.ones(len(columns)),
        constraints=[
            optimize.LinearConstraint(cover, 1, 1),
            optimize.LinearConstraint(dominate, 1, np.inf),
        ],
        integrality=np.ones(len(columns)),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.status == 0, f"{to_graph6(g)}: milp {res.message}"
    return round(res.fun)


def _agree(g) -> int:
    solved = chi_dd_exact(g)
    assert solved.status == "exact", to_graph6(g)
    ilp = ilp_chi_dd(g)
    assert solved.chi_dd == ilp, f"{to_graph6(g)}: chi_dd_exact {solved.chi_dd}, ILP {ilp}"
    return ilp


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_ilp_agrees_on_paths_and_cycles(family):
    for n in range(9, 31):
        ilp = _agree(make_named(family, n))
        if family == "path":
            assert path_chi_dd(n) == ilp, n


@pytest.mark.parametrize("s", [2, 3, 4])
def test_ilp_agrees_on_blade_graphs_and_their_contractions(blade_graph, s):
    g = blade_graph(s)
    shared = blade_graph(s, shared=True)
    for h in (g, contract_edge(g, (0, 1)), shared, contract_vertices(shared, (0, 1))):
        _agree(h)


@st.composite
def _connected_graphs(draw):
    # a random tree on n vertices plus extra pairs keeps every draw connected
    n = draw(st.integers(9, 14))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(min(e), max(e)) for e in draw(st.lists(pair, max_size=2 * n)) if e[0] != e[1]}
    return from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(_connected_graphs())
def test_ilp_agrees_on_random_connected_graphs(g):
    if max(g.degree(v) for v in range(g.n)) > MAX_DEGREE:
        return  # too many columns
    _agree(g)
