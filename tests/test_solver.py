import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import domchrom.solver as solver
from domchrom.coloring import Coloring, is_domination_coloring
from domchrom.graph import (
    canonical_form,
    enumerate_connected_graphs,
    from_edges,
    iter_bits,
    make_named,
    parse_graph6,
)
from domchrom.ops import subdivide
from domchrom.solver import (
    BudgetExceeded,
    chi_dd_exact,
    chi_dd_oracle,
    find_domination_coloring,
    path_chi_dd,
)


def exact_chromatic_number(g) -> int:
    """Test-side proper-coloring oracle: plain backtracking, no domination."""
    n = g.n

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def rec(v: int, used: int) -> bool:
            if v == n:
                return True
            forbidden = 0
            for u in iter_bits(g.adj[v]):
                if colors[u] >= 0:
                    forbidden |= 1 << colors[u]
            for c in range(min(used + 1, k)):
                if (forbidden >> c) & 1:
                    continue
                colors[v] = c
                if rec(v + 1, max(used, c + 1)):
                    return True
            colors[v] = -1
            return False

        return rec(0, 0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def test_find_domination_coloring_examples():
    assert find_domination_coloring(make_named("complete", 3), 2) is None
    c4 = make_named("cycle", 4)
    witness = find_domination_coloring(c4, 2)
    assert witness is not None
    assert set(witness.classes) == {0b0101, 0b1010}  # the bipartition
    assert find_domination_coloring(make_named("path", 4), 2) is None


def test_find_domination_coloring_validates_input():
    with pytest.raises(ValueError):
        find_domination_coloring(from_edges(3, [(0, 1)]), 2)
    with pytest.raises(ValueError):
        find_domination_coloring(make_named("path", 3), 4)


def test_chi_dd_exact_fixed_values():
    for n in range(1, 9):
        assert chi_dd_exact(make_named("complete", n)).chi_dd == n
    assert chi_dd_exact(make_named("path", 4)).chi_dd == 3
    assert chi_dd_exact(make_named("cycle", 6)).chi_dd == 4


def test_path_and_cycle_values_grow_by_three_every_five_vertices():
    # paths: the search agrees with the proved closed form of path_chi_dd;
    # cycles, observed, not from the paper: chi_dd(C_{n+5}) = chi_dd(C_n) + 3
    # for n >= 5 (held up to n = 30)
    for n in range(1, 36):
        assert chi_dd_exact(make_named("path", n)).chi_dd == path_chi_dd(n), n
    chi = {n: chi_dd_exact(make_named("cycle", n)).chi_dd for n in range(5, 31)}
    for n in range(5, 26):
        assert chi[n + 5] == chi[n] + 3, ("cycle", n, chi[n], chi[n + 5])


def test_chi_dd_oracle_examples():
    assert chi_dd_oracle(make_named("star", 3)) == 2
    assert chi_dd_oracle(make_named("cycle", 4)) == 2
    assert chi_dd_oracle(make_named("complete", 1)) == 1
    with pytest.raises(ValueError):
        chi_dd_oracle(make_named("path", 9))
    with pytest.raises(ValueError):
        chi_dd_oracle(from_edges(2, []))


def _table_corpus():
    for n in range(1, 6):
        yield from enumerate_connected_graphs(n)
    for i, g in enumerate(enumerate_connected_graphs(6)):
        if i % 50 == 0:
            yield g
    yield from _named_7_8()


def _named_7_8():
    for n in (7, 8):
        for name in ("path", "cycle", "complete"):
            yield make_named(name, n)
        yield make_named("star", n - 1)  # hub and n - 1 leaves


def _table_verdict(dom, blocks, n):
    """The oracle's rule: every class has a nonzero entry, and the entries cover V."""
    cover = 0
    for members in blocks:
        if not dom[members]:
            return False
        cover |= dom[members]
    return cover == (1 << n) - 1


def _coloring_of(blocks, n):
    labels = [0] * n
    for i, members in enumerate(blocks):
        for v in iter_bits(members):
            labels[v] = i
    return Coloring(labels)


def test_dominator_table_agrees_with_checker_on_every_partition():
    checked = 0
    for g in _table_corpus():
        dom = solver._dominator_table(g)
        assert len(dom) == 1 << g.n
        for group in solver._partitions(g.n):
            for blocks in group:
                c = _coloring_of(blocks, g.n)
                assert c.classes == blocks
                assert _table_verdict(dom, blocks, g.n) == is_domination_coloring(g, c)[0], (g.adj, blocks)
                checked += 1
    # (connected graphs x Bell(n)) for n<=5, every 50th n=6 graph, 4 named graphs of order 7 and 8
    assert checked == 1 * 1 + 1 * 2 + 4 * 5 + 38 * 15 + 728 * 52 + 535 * 203 + 4 * (877 + 4140)


def _set_partitions(items):
    """Every partition of ``items`` into blocks, built by placing the first
    item, in an order unrelated to the oracle's."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1 :]


def test_partition_table_matches_an_independent_enumerator():
    stirling = {(0, 0): 1}  # S(n, k): k S(n-1, k) + S(n-1, k-1)
    for n in range(1, 9):
        for k in range(n + 1):
            stirling[n, k] = k * stirling.get((n - 1, k), 0) + stirling.get((n - 1, k - 1), 0)
        # sorted by class count, then by restricted growth string: class j
        # is the block whose lowest vertex is j-th lowest
        expected = sorted(
            (len(blocks), [next(j for j, block in enumerate(blocks) if v in block) for v in range(n)], blocks)
            for blocks in (sorted(p, key=min) for p in _set_partitions(list(range(n))))
        )
        table = solver._partitions(n)
        assert [len(group) for group in table] == [stirling[n, k] for k in range(1, n + 1)]
        flat = [blocks for group in table for blocks in group]
        assert flat == [tuple(sum(1 << v for v in block) for block in blocks) for _, _, blocks in expected]


def test_oracle_builds_one_coloring_per_call(monkeypatch):
    built = []

    class Counted(Coloring):
        __slots__ = ()

        def __init__(self, assignment):
            built.append(1)
            super().__init__(assignment)

    monkeypatch.setattr(solver, "Coloring", Counted)
    solver._partitions.cache_clear()
    for g in _named_7_8():
        expected = chi_dd_exact(g).chi_dd
        before = len(built)
        assert chi_dd_oracle(g) == expected
        assert len(built) - before == 1, g.adj


def test_oracle_confirms_its_answer_with_the_checker(monkeypatch):
    monkeypatch.setattr(solver, "is_domination_coloring", lambda g, c: (False, None))
    with pytest.raises(RuntimeError, match="checker rejects"):
        chi_dd_oracle(make_named("cycle", 4))


def test_witness_is_always_valid_and_minimal():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            result = chi_dd_exact(g)
            assert result.status == "exact"
            ok, _ = is_domination_coloring(g, result.witness)
            assert ok
            assert result.witness.class_count == result.chi_dd


def test_oracle_equivalence_spot_n5():
    for g in enumerate_connected_graphs(5):
        assert chi_dd_exact(g).chi_dd == chi_dd_oracle(g)


def test_chromatic_number_lower_bounds_chi_dd():
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            chi = exact_chromatic_number(g)
            chi_dd = chi_dd_exact(g).chi_dd
            assert chi <= chi_dd <= g.n


def test_determinism():
    g = make_named("cycle", 6)
    first = chi_dd_exact(g)
    second = chi_dd_exact(g)
    assert first.witness == second.witness
    assert first.nodes == second.nodes


def test_budget_exhaustion_is_unknown_not_none():
    g = make_named("cycle", 6)
    with pytest.raises(BudgetExceeded):
        find_domination_coloring(g, 3, budget=2)
    result = chi_dd_exact(g, budget=2)
    assert result.status == "unknown"
    assert result.chi_dd is None and result.witness is None
    assert result.lower >= 1 and result.upper == g.n


def test_budget_bounds_are_sound():
    g = make_named("cycle", 6)
    partial = chi_dd_exact(g, budget=50)
    full = chi_dd_exact(g)
    if partial.status == "unknown":
        assert partial.lower <= full.chi_dd <= partial.upper


def _first_coloring_in_search_order(g, k):
    """The classes of the first k-block partition, in the order the search
    enumerates them, that is a domination coloring of g; None if none is."""
    order = solver._search_order(g)
    assignment = [0] * g.n
    for blocks in solver._partitions(g.n)[k - 1]:
        # classes of search positions, moved to g's labels
        for i, members in enumerate(blocks):
            for pos in iter_bits(members):
                assignment[order[pos]] = i
        c = Coloring(assignment)
        if is_domination_coloring(g, c)[0]:
            return set(c.classes)
    return None


def _bounds_corpus():
    for n in range(1, 6):
        yield from enumerate_connected_graphs(n)
    for i, g in enumerate(enumerate_connected_graphs(6)):
        if i % 20 == 0:
            yield g
    for n in range(2, 5):
        for g in enumerate_connected_graphs(n):
            if n + g.m <= 8:
                yield subdivide(g, 2)


def test_bounds_prune_only_dead_branches():
    # The search enumerates partitions in restricted-growth order over its
    # vertex order, so a bound that cut a live subtree would make it skip
    # the first qualifying partition and return a later one (or none).
    checked = 0
    for g in _bounds_corpus():
        result = chi_dd_exact(g)
        assert set(result.witness.classes) == _first_coloring_in_search_order(g, result.chi_dd)
        checked += 1
    assert checked == 772 + 1336 + 36  # n<=5, every 20th n=6, 2-subdivisions


# (chi_dd, nodes, witness) of each solve, captured before the search kept
# its plan across k levels and handed each node its dominator union: the
# search tree, and so every count and witness, must not move
_PINNED_SOLVES = {
    ("path", 10): (7, 76, "0,1,2,1,2,3,4,5,4,6"),
    ("path", 15): (10, 321, "0,1,2,1,2,3,4,5,4,5,6,7,8,7,9"),
    ("path", 20): (13, 1325, "0,1,2,1,2,3,4,5,4,5,6,7,8,7,8,9,10,11,10,12"),
    ("path", 25): (16, 5448, "0,1,2,1,2,3,4,5,4,5,6,7,8,7,8,9,10,11,10,11,12,13,14,13,15"),
    ("cycle", 10): (6, 34, "0,1,0,1,2,3,4,3,4,5"),
    ("cycle", 15): (9, 141, "0,1,0,1,2,3,4,3,4,5,6,7,6,7,8"),
    ("cycle", 20): (12, 556, "0,1,0,1,2,3,4,3,4,5,6,7,6,7,8,9,10,9,10,11"),
    ("cycle", 25): (15, 2261, "0,1,0,1,2,3,4,3,4,5,6,7,6,7,8,9,10,9,10,11,12,13,12,13,14"),
    ("E?NW", 4): (15, 9015, "0,1,2,3,4,5,6,0,7,8,1,7,9,4,9,10,3,11,10,12,7,13,14,7"),
    ("E@NG", 4): (15, 7691, "0,1,2,3,4,5,6,0,7,8,1,7,9,2,9,10,4,11,12,13,11,11,14,7"),
    # the blade graphs B(s) and their shared-neighbour variants, captured
    # before the solve kept a memo of the packing bound: the deepest trees
    # pinned, where the memo is hit most
    ("blade", 2): (6, 102, "0,1,1,2,1,2,3,4,3,5"),
    ("blade", 3): (8, 1192, "0,1,1,2,3,1,2,3,4,5,6,4,5,7"),
    ("blade", 4): (10, 18498, "0,1,1,2,3,4,1,2,3,4,5,6,7,8,5,6,7,9"),
    ("blade", 5): (12, 294102, "0,1,1,2,3,4,5,1,2,3,4,5,6,7,8,9,10,6,7,8,9,11"),
    ("blade-shared", 2): (6, 67, "0,1,2,3,2,3,4,5,4,5,2"),
    ("blade-shared", 3): (8, 402, "0,1,2,3,4,2,3,4,5,6,7,5,6,7,2"),
    ("blade-shared", 4): (10, 3568, "0,1,2,3,4,5,2,3,4,5,6,7,8,9,6,7,8,9,2"),
    ("blade-shared", 5): (12, 37794, "0,1,2,3,4,5,6,2,3,4,5,6,7,8,9,10,11,7,8,9,10,11,2"),
}
_BLADES = [key for key in _PINNED_SOLVES if key[0].startswith("blade")]


@pytest.mark.parametrize("name, size", [key for key in _PINNED_SOLVES if key not in _BLADES])
def test_search_tree_is_pinned(name, size):
    if name in ("path", "cycle"):
        g = make_named(name, size)
    else:  # the size-k subdivision of a graph6 graph's canonical form
        g = subdivide(canonical_form(parse_graph6(name)), size)
    result = chi_dd_exact(g)
    assert (result.chi_dd, result.nodes, result.witness.to_text()) == _PINNED_SOLVES[name, size]


@pytest.mark.parametrize("name, s", _BLADES)
def test_blade_search_tree_is_pinned(name, s, blade_graph):
    result = chi_dd_exact(blade_graph(s, shared=name == "blade-shared"))
    assert (result.chi_dd, result.nodes, result.witness.to_text()) == _PINNED_SOLVES[name, s]


def _solve_outcomes(graphs, budgets):
    outcomes = []
    for g in graphs:
        for budget in budgets:
            r = chi_dd_exact(g, budget=budget)
            witness = r.witness.to_text() if r.witness else None
            outcomes.append((r.status, r.chi_dd, r.nodes, r.lower, r.upper, witness))
    return outcomes


def test_packing_memo_leaves_every_solve_unchanged(monkeypatch):
    # the memo only stands in for a rescan, so a solve that never reads it
    # (cap 0) gives the same outcome, node count and witness, unknowns included
    small = [g for n in range(1, 6) for g in enumerate_connected_graphs(n)]
    classes = {}
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            if g.m <= 6:
                c = canonical_form(g)
                classes.setdefault(c.adj, c)
    subdivisions = [canonical_form(subdivide(c, k)) for c in classes.values() for k in (2, 3, 4)]
    assert len(classes) == 41
    budgets = (1, 3, 7, 20, solver.DEFAULT_BUDGET)
    with_memo = _solve_outcomes(small, budgets), _solve_outcomes(subdivisions, [solver.DEFAULT_BUDGET])
    monkeypatch.setattr(solver, "_PACKING_MEMO_CAP", 0)
    assert (_solve_outcomes(small, budgets), _solve_outcomes(subdivisions, [solver.DEFAULT_BUDGET])) == with_memo


def test_packing_memo_stops_at_its_cap(monkeypatch, blade_graph):
    # B(5) at budget 100,000 runs out at k = 10 with 21 memo entries; a cap
    # of 8 fills up, and the solve ends exactly as under the default cap
    make_plan = solver._plan
    plans = []
    monkeypatch.setattr(solver, "_plan", lambda g: plans.append(make_plan(g)) or plans[-1])
    b5 = blade_graph(5)
    outcomes = []
    for cap in (solver._PACKING_MEMO_CAP, 8):
        monkeypatch.setattr(solver, "_PACKING_MEMO_CAP", cap)
        r = chi_dd_exact(b5, budget=100_000)
        outcomes.append((r.status, r.lower, r.upper, r.nodes, len(plans[-1].packing)))
    assert outcomes == [("unknown", 10, 22, 100_001, 21), ("unknown", 10, 22, 100_001, 8)]


def test_unknown_results_are_pinned():
    c12 = make_named("cycle", 12)
    pinned = {1: (4, 12, 2), 7: (5, 12, 8), 50: (7, 12, 51)}
    for budget, (lower, upper, nodes) in pinned.items():
        result = chi_dd_exact(c12, budget=budget)
        assert result.status == "unknown"
        assert (result.lower, result.upper, result.nodes) == (lower, upper, nodes)


def test_budget_below_one_is_rejected():
    c4 = make_named("cycle", 4)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget"):
            chi_dd_exact(c4, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            find_domination_coloring(c4, 2, budget=budget)
    assert chi_dd_exact(c4, budget=1).status == "unknown"


def test_budget_and_k_must_be_ints():
    # True would read as a one-node budget or k=1, and 2.5 or 10**7 + 0.5
    # would be compared as a node count
    c5 = make_named("cycle", 5)
    for budget in (True, 2.5, 10**7 + 0.5, "100"):
        with pytest.raises(ValueError, match=f"^search budget must be an int node count, got {budget!r}$"):
            chi_dd_exact(c5, budget=budget)
        with pytest.raises(ValueError, match="search budget must be an int"):
            find_domination_coloring(c5, 3, budget=budget)
    for k in (True, 3.0, "3"):
        with pytest.raises(ValueError, match=rf"^need 1 <= k <= 5, got {k!r}$"):
            find_domination_coloring(c5, k)
    assert find_domination_coloring(c5, 3) is not None


def test_path_chi_dd_examples():
    assert path_chi_dd(1) == 1
    assert path_chi_dd(2) == 2
    assert path_chi_dd(3) == 2
    assert path_chi_dd(4) == 3
    assert path_chi_dd(5) == chi_dd_oracle(make_named("path", 5))


def test_path_chi_dd_order_must_be_an_int():
    assert path_chi_dd(1) == 1 and path_chi_dd(2) == 2
    for k in (True, 2.0, "3"):
        with pytest.raises(ValueError, match=f"^path order must be an int, got {k!r}$"):
            path_chi_dd(k)


def _path_formula(k):
    """ceil(3k/5) + [k mod 5 in {0, 3}], except 2 at k = 3."""
    return 2 if k == 3 else (3 * k + 4) // 5 + (k % 5 in (0, 3))


def test_path_chi_dd_makes_no_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("path_chi_dd ran the search")

    monkeypatch.setattr(solver, "chi_dd_exact", no_solve)
    for k in range(1, 2001):
        assert path_chi_dd(k) == _path_formula(k), k


# The proof model of path_chi_dd.  On a path every class of a domination
# coloring is independent and lies inside some N[u] = {u-1, u, u+1}, so it is
# a singleton or a pair {i, i+2}.  Label each vertex S (its own singleton),
# L (paired with i+2) or R (paired with i-2); the class count is #S + #L.
# Vertex v dominates a class iff x_v = S, x_{v-1} = S, x_{v+1} = S or
# x_{v-1} = L.  Past either end lies a missing vertex, labeled _END.
_LABELS = "SLR"
_END = "-"


def _placement_cost(a, b, c):
    """Cost of label c at vertex i+1 after labels a, b at i-1, i: 1 when c
    opens a class, None when not allowed (a pair left open or closed
    without its partner, or vertex i dominating no class)."""
    if (c == "R") != (a == "L"):
        return None
    if b != _END and "S" not in (a, b, c) and a != "L":
        return None
    return 1 if c in "SL" else 0


def _place(costs, labels):
    """One min-plus step: the cheapest cost of each window (x_i, x_{i+1})."""
    out = {}
    for (a, b), cost in costs.items():
        for c in labels:
            step = _placement_cost(a, b, c)
            if step is not None and cost + step < out.get((b, c), math.inf):
                out[(b, c)] = cost + step
    return out


def _model_path_chi_dd(n):
    costs = {(_END, _END): 0}
    for labels in [_LABELS] * n + [_END] * 2:
        costs = _place(costs, labels)
    return min(costs.values())


def test_path_chi_dd_closed_form_is_proved_by_a_transfer_matrix():
    # the model is chi_dd on the paths the oracle reaches
    for n in range(1, 9):
        assert _model_path_chi_dd(n) == chi_dd_oracle(make_named("path", n)), n
    # Row w of the min-plus transfer matrix A's m-th power is m placements from
    # the single window w; a window missing from a row is an infinite entry.
    # A^15 = A^10 + 3 entrywise, so A^(m+5) = A^m + 3 for every m >= 10.  Two
    # placements reach the windows of real vertices, the path's m = n - 2
    # more are A^m, so chi_dd(P_(n+5)) = chi_dd(P_n) + 3 for n >= 12.
    for window in [(a, b) for a in _LABELS for b in _LABELS]:
        rows = {}
        costs = {window: 0}
        for m in range(1, 16):
            costs = rows[m] = _place(costs, _LABELS)
        assert rows[15] == {w: cost + 3 for w, cost in rows[10].items()}, window
    # the formula has the same period from n = 4, and n <= 16 covers the
    # start and one full period of the model, so it holds for every n
    for n in range(1, 17):
        assert path_chi_dd(n) == _path_formula(n) == _model_path_chi_dd(n), n
    for n in range(4, 100):
        assert _path_formula(n + 5) == _path_formula(n) + 3


def test_solver_rejects_disconnected():
    with pytest.raises(ValueError):
        chi_dd_exact(from_edges(4, [(0, 1), (2, 3)]))



def test_search_deeper_than_the_recursion_limit_is_a_value_error():
    # the search nests one frame per placed vertex, and K_n is searched at k = n
    k500 = make_named("complete", 500)
    assert chi_dd_exact(k500).chi_dd == 500
    assert find_domination_coloring(k500, 500).class_count == 500
    k1100 = make_named("complete", 1100)
    for solve in (lambda: chi_dd_exact(k1100), lambda: find_domination_coloring(k1100, 1100)):
        with pytest.raises(ValueError) as exc:
            solve()
        assert "order 1100" in str(exc.value)
        assert f"recursion limit {sys.getrecursionlimit()}" in str(exc.value)

_PLANTED_FAULTS = '''
import sys

if __debug__:
    sys.exit("expected to run under python -O")

from domchrom import harness, solver
from domchrom.graph import make_named


def expect_runtime_error(what, call):
    try:
        call()
    except RuntimeError as exc:
        print(f"{what}: {exc}")
    else:
        sys.exit(f"{what} accepted a planted fault")


c4 = make_named("cycle", 4)
search = solver._search
solver._search = lambda plan, k, budget: ((0,) * len(plan.order), 1)  # one improper class
expect_runtime_error("find_domination_coloring", lambda: solver.find_domination_coloring(c4, 1))
expect_runtime_error("chi_dd_exact", lambda: solver.chi_dd_exact(c4))
solver._search = search

check = solver.is_domination_coloring
solver.is_domination_coloring = lambda g, c: (False, None)  # rejects every coloring
expect_runtime_error("chi_dd_oracle", lambda: solver.chi_dd_oracle(c4))
solver.is_domination_coloring = check

harness.chi_dd_oracle = lambda g: 99
expect_runtime_error("oracle cross-check", lambda: harness.check_theorem(5, make_named("complete", 2), 2))
'''


def test_checks_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PLANTED_FAULTS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4, proc.stdout


def test_package_has_no_assert_statements():
    # python -O strips asserts, so no check in the package may be one.
    package = Path(__file__).resolve().parents[1] / "src" / "domchrom"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
