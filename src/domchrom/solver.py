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

A solve builds one plan for all the k levels it tries: the search
order, sorted once, and per depth the vertex's bit, closed neighborhood
and non-neighbors, the unplaced vertices and the ball; the lower bound
walks the same order.  Each node gets the union of its open classes'
dominator sets from its parent, the value it used to OR up itself, so
the tree, its node count and its first coloring do not change.

The plan also memoizes the packing bound for the whole solve, shared
by every k level.  The greedy scan reads only the uncovered vertices
and the unplaced ones, and the latter are fixed by the depth, so the
memo keys one int, ``uncov | idx << n``, and stores the full greedy
count, or n + 1 (more than any k) when some uncovered vertex has
nothing left to reach it.  The scan never reads ``k - opened`` and its
count only grows, so a node is cut iff the remembered count exceeds
``k - opened``, exactly where a scan stopping at the first excess
would cut: the tree, its node count and its first coloring do not
change.  The memo stops taking entries at ``_PACKING_MEMO_CAP``, so a
large budget cannot grow it without limit; past the cap a miss is
scanned again.

The oracle ignores all of that and scans every set partition, by class
count and then in restricted-growth order.  It judges each partition
through a per-graph table, built once per call, of the vertices that
dominate each independent vertex subset; the table shares no code with
the search, and the definitional checker confirms the partition the
oracle returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from operator import or_
from typing import NamedTuple

from .coloring import Coloring, is_domination_coloring
from .graph import Graph, is_connected, make_named

DEFAULT_BUDGET = 10_000_000
_PACKING_MEMO_CAP = 1 << 16  # entries one solve's packing memo may hold
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


class _Plan(NamedTuple):
    """What every k level of one solve reads of its graph, built once by
    :func:`_plan`; entry idx of a per-depth list is about ``order[idx]``.
    Only ``packing`` changes during the solve: the levels fill it."""

    order: list[int]
    bit: list[int]  # per depth: the vertex's own bit
    closed: list[int]  # its closed neighborhood
    nonadj: list[int]  # full & ~adj: the vertices that may share its class
    remaining: list[int]  # the vertices placed here or deeper (0 past the end)
    ball: list[int]  # the size of the largest closed neighborhood among them
    vertex_closed: tuple[int, ...]  # closed neighborhoods by vertex id
    full: int
    packing: dict[int, int]  # uncov | idx << n -> greedy packing count (n + 1: unreachable)


def _plan(g: Graph) -> _Plan:
    order = _search_order(g)
    full = (1 << g.n) - 1
    bit = [1 << u for u in order]
    closed = [g.closed[u] for u in order]
    nonadj = [full & ~g.adj[u] for u in order]
    remaining = list(accumulate(reversed(bit), or_, initial=0))[::-1]
    ball = [g.adj[u].bit_count() + 1 for u in order] + [0]
    return _Plan(order, bit, closed, nonadj, remaining, ball, g.closed, full, {})


def _lower_bound(plan: _Plan) -> int:
    # Every class sits inside a dominator's closed neighborhood, hence the
    # ball term; a clique grown greedily along the search order covers
    # properness.  Correctness never depends on either, they only skip
    # hopeless k values.
    clique = 0
    size = 0
    for bit, nonadj in zip(plan.bit, plan.nonadj):
        if not clique & nonadj:
            clique |= bit
            size += 1
    return max(1, size, -(-len(plan.order) // plan.ball[0]))


def _search(plan: _Plan, k: int, budget: int) -> tuple[tuple[int, ...] | None, int]:
    """Find an assignment with exactly k classes, or prove none exists.

    Returns (assignment or None, nodes used).  Raises BudgetExceeded.
    Deterministic: the plan's vertex order, classes tried in index order,
    a new class only as the last resort (class j opens only after 0..j-1).
    The open classes grow and shrink at the end of ``doms``/``allowed``;
    ``opened`` is their count.  ``union`` is the OR of ``doms``: a new
    class adds ``closed[idx]`` to the parent's, and a class-i child ORs
    ``doms`` with class i narrowed.  The packing bound is read from, and
    written to, the plan's memo.
    """
    order, bit, closed, nonadj, remaining, ball, vertex_closed, full, packing = plan
    n = len(order)
    cap = _PACKING_MEMO_CAP
    doms: list[int] = []  # the open classes' dominator sets
    allowed: list[int] = []  # the vertices each open class may still take
    assignment = [0] * n
    nodes = 0

    def rec(idx: int, union: int, opened: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes)

        uncov = full & ~union
        if opened == k:
            if uncov:
                return False
        else:
            free = k - opened
            count = uncov.bit_count()
            if count > free * ball[idx]:
                return False
            if count > free:
                key = uncov | idx << n
                need = packing.get(key)
                if need is None:
                    reachable = remaining[idx]
                    packed = 0
                    need = 0
                    while uncov:
                        low = uncov & -uncov
                        uncov ^= low
                        reach = vertex_closed[low.bit_length() - 1] & reachable
                        if not reach:
                            need = n + 1
                            break
                        if not reach & packed:
                            packed |= reach
                            need += 1
                    if len(packing) < cap:
                        packing[key] = need
                if need > free:
                    return False

        if idx == n:
            return opened == k

        cu = closed[idx]
        rem = n - idx - 1

        if opened + rem >= k:
            b = bit[idx]
            # a child pushes and pops its new classes at the end, so the
            # lists are as long again when it returns; the dominator test
            # comes first since it fails far more often
            for i, d in enumerate(doms):
                nd = d & cu
                if nd:
                    a = allowed[i]
                    if a & b:
                        doms[i] = nd
                        allowed[i] = a & nonadj[idx]
                        assignment[order[idx]] = i
                        if rec(idx + 1, reduce(or_, doms), opened):
                            return True
                        doms[i] = d
                        allowed[i] = a

        if opened < k and opened + 1 + rem >= k:
            doms.append(cu)
            allowed.append(nonadj[idx])
            assignment[order[idx]] = opened
            if rec(idx + 1, union | cu, opened + 1):
                return True
            doms.pop()
            allowed.pop()

        return False

    found = rec(0, 0, 0)
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
    assignment, _ = _search(_plan(g), k, budget)
    if assignment is None:
        return None
    return _checked_witness(g, assignment, k)


def chi_dd_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Smallest class count over all domination colorings, with a witness.

    A budget below one node is a ValueError, not an "unknown" result.
    """
    _require_connected(g)
    _require_budget(budget)
    plan = _plan(g)
    total = 0
    k = _lower_bound(plan)
    while k <= g.n:
        try:
            assignment, used = _search(plan, k, budget - total)
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
