"""Exact domination-chromatic-number search plus a brute-force oracle.

The searcher backtracks over vertices in descending-degree order,
assigning each to an existing class or opening a new one.  Four facts
drive the pruning:

* a class with members S can only be dominated by ``intersect N[u] over
  u in S``, which shrinks as S grows; empty means dead branch;
* a vertex v dominates a final class i iff v lies in that intersection,
  so any vertex outside the union of current dominator sets can only be
  rescued by a class that has not been opened yet;
* an unopened class takes all its members from the vertices not yet
  assigned, and lies inside the closed neighborhood of each member, so
  it rescues at most ``deg(order[idx]) + 1`` vertices at depth idx (the
  per-depth ball: the order sorts by descending degree);
* an unrescued vertex v needs an unopened class inside
  ``N[v] & remaining``: if that set is empty the branch is dead, and if
  more than ``k - opened`` such sets are pairwise disjoint, no
  ``k - opened`` classes can serve them all (the packing bound, found
  by a greedy scan).

Every cut removes only subtrees that hold no solution, so the first
coloring found is the first in search order whatever the bounds.

The oracle ignores all of that and scans every set partition, by class
count and then in restricted-growth order.  It judges each partition
through a per-graph table, built once per call, of the vertices that
dominate each independent vertex subset; the table shares no code with
the search, and the definitional checker confirms the partition the
oracle returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coloring import Coloring, is_domination_coloring
from .graph import Graph, is_connected, make_named

DEFAULT_BUDGET = 10_000_000
ORACLE_MAX_ORDER = 8  # Bell(8) = 4140 partitions


class BudgetExceeded(Exception):
    """Search ran out of nodes before the question was decided."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve; ``status`` is ``exact`` or ``unknown``.

    For ``unknown`` results ``chi_dd``/``witness`` are None and
    ``lower``/``upper`` carry the best proven bounds.
    """

    chi_dd: int | None
    witness: Coloring | None
    status: str
    lower: int
    upper: int
    nodes: int


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise ValueError("solver requires a connected graph")


def _require_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"search budget must be at least 1 node, got {budget}")


def _search_order(g: Graph) -> list[int]:
    """The order in which the search assigns vertices: descending degree, then id."""
    return sorted(range(g.n), key=lambda v: (-g.adj[v].bit_count(), v))


def _greedy_clique(g: Graph) -> int:
    clique = 0
    size = 0
    for v in _search_order(g):
        if clique & ~g.adj[v]:
            continue
        clique |= 1 << v
        size += 1
    return size


def _lower_bound(g: Graph) -> int:
    # Every class sits inside a dominator's closed neighborhood, hence the
    # ball term; the clique term covers properness.  Correctness never
    # depends on either, they only skip hopeless k values.
    ball = -(-g.n // (g.max_degree + 1))
    return max(1, _greedy_clique(g), ball)


def _search(g: Graph, k: int, budget: int) -> tuple[tuple[int, ...] | None, int]:
    """Find an assignment with exactly k classes, or prove none exists.

    Returns (assignment or None, nodes used).  Raises BudgetExceeded.
    Deterministic: fixed vertex order, classes tried in index order, a new
    class only as the last resort (class j opens only after 0..j-1).
    """
    n = g.n
    adj = g.adj
    closed = g.closed
    full = (1 << n) - 1
    order = _search_order(g)
    # remaining_mask[idx] = bitset of vertices not yet reached at depth idx;
    # ball[idx] = largest closed neighborhood among them (0 past the end)
    remaining_mask = [0] * (n + 1)
    ball = [0] * (n + 1)
    for idx in range(n - 1, -1, -1):
        remaining_mask[idx] = remaining_mask[idx + 1] | (1 << order[idx])
        ball[idx] = adj[order[idx]].bit_count() + 1

    doms = [0] * k
    allowed = [0] * k
    assignment = [0] * n
    nodes = 0

    def rec(idx: int, opened: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes)

        union_d = 0
        for i in range(opened):
            union_d |= doms[i]
        uncov = full & ~union_d
        if opened == k:
            if uncov:
                return False
        else:
            free = k - opened
            count = uncov.bit_count()
            if count > free * ball[idx]:
                return False
            if count > free:
                remaining = remaining_mask[idx]
                packed = 0
                need = 0
                while uncov:
                    low = uncov & -uncov
                    uncov ^= low
                    reach = closed[low.bit_length() - 1] & remaining
                    if not reach:
                        return False
                    if not reach & packed:
                        packed |= reach
                        need += 1
                        if need > free:
                            return False

        if idx == n:
            return opened == k

        u = order[idx]
        cu = closed[u]
        au = adj[u]
        rem = n - idx - 1

        if opened + rem >= k:
            for i in range(opened):
                if not (allowed[i] >> u) & 1:
                    continue
                nd = doms[i] & cu
                if not nd:
                    continue
                old_d = doms[i]
                old_a = allowed[i]
                doms[i] = nd
                allowed[i] = old_a & ~au
                assignment[u] = i
                if rec(idx + 1, opened):
                    return True
                doms[i] = old_d
                allowed[i] = old_a

        if opened < k and opened + 1 + rem >= k:
            doms[opened] = cu
            allowed[opened] = full & ~au
            assignment[u] = opened
            if rec(idx + 1, opened + 1):
                return True
            doms[opened] = 0
            allowed[opened] = 0

        return False

    found = rec(0, 0)
    return (tuple(assignment) if found else None, nodes)


def _checked_witness(g: Graph, assignment: tuple[int, ...], k: int) -> Coloring:
    """The searcher's assignment as a Coloring, re-checked against the definition."""
    witness = Coloring(assignment)
    ok, diag = is_domination_coloring(g, witness)
    if not ok or witness.class_count != k:
        raise RuntimeError(f"searcher returned an invalid coloring for k={k}: {witness.to_text()} {diag}")
    return witness


def find_domination_coloring(
    g: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> Coloring | None:
    """A domination coloring of g with exactly k nonempty classes, or None.

    Raises BudgetExceeded when the budget runs out, which is a distinct
    "unknown" outcome, never to be read as "none exists", and ValueError
    for a budget below one node.
    """
    _require_connected(g)
    _require_budget(budget)
    if not 1 <= k <= g.n:
        raise ValueError(f"need 1 <= k <= {g.n}, got {k}")
    assignment, _ = _search(g, k, budget)
    if assignment is None:
        return None
    return _checked_witness(g, assignment, k)


def chi_dd_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Smallest class count over all domination colorings, with a witness.

    A budget below one node is a ValueError, not an "unknown" result.
    """
    _require_connected(g)
    _require_budget(budget)
    total = 0
    k = _lower_bound(g)
    while k <= g.n:
        try:
            assignment, used = _search(g, k, budget - total)
        except BudgetExceeded as exc:
            return SolveResult(
                chi_dd=None,
                witness=None,
                status="unknown",
                lower=k,
                upper=g.n,
                nodes=total + exc.nodes,
            )
        total += used
        if assignment is not None:
            return SolveResult(
                chi_dd=k,
                witness=_checked_witness(g, assignment, k),
                status="exact",
                lower=k,
                upper=k,
                nodes=total,
            )
        k += 1
    raise AssertionError(
        "unreachable: all-singletons is a domination coloring of any connected graph"
    )


@lru_cache(maxsize=None)
def _partition_colorings(n: int) -> tuple[tuple[Coloring, ...], ...]:
    """Every set partition of 0..n-1 as a Coloring, grouped by class count.

    Entry k-1 holds the partitions into exactly k blocks, encoded as
    restricted growth strings, so they are already in dense normal form.
    """
    if n == 1:
        return ((Coloring((0,)),),)
    by_k: list[list[Coloring]] = [[] for _ in range(n)]
    rgs = [0] * n

    def rec(i: int, mx: int) -> None:
        if i == n:
            by_k[mx].append(Coloring(tuple(rgs)))
            return
        for c in range(mx + 2):
            rgs[i] = c
            rec(i + 1, mx if c <= mx else c)

    rec(1, 0)
    return tuple(tuple(group) for group in by_k)


def _dominator_table(g: Graph) -> list[int]:
    """``dom[S]`` for every vertex subset S (a bitset index): the vertices
    whose closed neighborhood contains S if S is independent, else 0.

    Built by removing the lowest vertex v of S: ``dom[S] = dom[S - v] &
    N[v]`` when v has no neighbor in S - v, and 0 otherwise.
    """
    adj = g.adj
    closed = g.closed
    dom = [(1 << g.n) - 1]
    for s in range(1, 1 << g.n):
        low = s & -s
        rest = s ^ low
        v = low.bit_length() - 1
        dom.append(0 if adj[v] & rest else dom[rest] & closed[v])
    return dom


def chi_dd_oracle(g: Graph) -> int:
    """Minimum class count by scanning all set partitions of the vertex set.

    Each partition is judged through :func:`_dominator_table`: every class
    must be independent and dominated (a nonzero entry) and the union of
    the entries must be the whole vertex set, so every vertex dominates a
    class.  The first partition that qualifies is confirmed with
    ``is_domination_coloring``; a disagreement raises RuntimeError.
    Shares nothing with the backtracking search beyond that checker,
    which is what makes it a usable correctness oracle.
    """
    _require_connected(g)
    if g.n > ORACLE_MAX_ORDER:
        raise ValueError(f"oracle guard: supports n <= {ORACLE_MAX_ORDER}, got {g.n}")
    dom = _dominator_table(g)
    full = (1 << g.n) - 1
    for group in _partition_colorings(g.n):
        for c in group:
            cover = 0
            for members in c.classes:
                d = dom[members]
                if not d:
                    break
                cover |= d
            else:
                if cover != full:
                    continue
                ok, diag = is_domination_coloring(g, c)
                if not ok:
                    raise RuntimeError(
                        f"oracle's subset table accepts {c.to_text()}, which the checker rejects: {diag}"
                    )
                return c.class_count
    raise AssertionError("unreachable: all-singletons always qualifies")


@lru_cache(maxsize=None)
def path_chi_dd(k: int) -> int:
    """Memoized chi_dd of the path on k vertices; P_1 -> 1."""
    if k < 1:
        raise ValueError("path order must be at least 1")
    result = chi_dd_exact(make_named("path", k))
    if result.chi_dd is None:
        raise RuntimeError(f"chi_dd of the path on {k} vertices is undecided: {result.status}")
    return result.chi_dd
