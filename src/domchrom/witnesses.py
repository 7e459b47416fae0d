"""Executable recolorings extracted from the theorem proofs.

``extend_witness`` runs the airtight directions: starting from a
domination coloring of the operation's source graph, put one fresh color
on the new / merged / hub vertex (or on one endpoint of a restored edge
when the colors clash) and keep every other color.  These must always
validate; a gap outcome here is an implementation bug.

``reduce_witness`` runs the case analyses of the opposite directions,
which are *not* airtight.  The construction follows each proof literally
and the result is validated against the definition; when it fails, the
outcome is a structured ``gap`` finding, which the corpus harness counts
per case.  The numeric inequalities themselves are always verified by the
exact solver independently of these outcomes.

Every construction makes one move, keep-and-fresh: carry the base colors
across the operation's vertex correspondence (``removal_index_map``,
``contraction_index_map``, or the identity for edge operations and the
hub), give each of a few named vertices a fresh color of its own, and
check the result against the proof's color budget.  A branch only names
its map, its fresh vertices, its proof case and its budget.

Argument convention: ``g`` is always the theorem's graph G, and ``h`` is
the graph H the theorem's operation makes from G: G - v for
``add_vertex``/``remove_vertex``, G - e for ``add_edge``/``remove_edge``,
the contraction of the pair for ``contract_edge``/``contract_vertices``/
``uncontract``, and G with a hub on the cycle for ``cycle_extend``/
``remove_hub``.  A caller that has built H already (the corpus harness)
passes it; otherwise it is built from ``g`` and ``params``.  Either way
``params`` are validated against ``g``.  For ``add_vertex``/``add_edge``
the base colors H and the construction colors G; for
``contract_edge``/``contract_vertices``/``cycle_extend`` and
``remove_vertex``/``remove_edge`` it colors G and the construction colors
H; for ``uncontract``/``remove_hub`` it colors H and the construction
recovers a coloring of G.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Coloring, DominationDiagnostic, _judge, is_domination_coloring
from .graph import CycleSpec, Graph, bridges, cut_vertices, iter_bits
from .ops import (
    contract_edge,
    contract_vertices,
    contraction_index_map,
    cycle_extend,
    remove_edge,
    removal_index_map,
    remove_vertex,
    require_contractible,
    require_edge,
    require_removable,
)

EXTEND_KINDS = ("add_vertex", "add_edge", "contract_edge", "contract_vertices", "cycle_extend")
REDUCE_KINDS = ("remove_vertex", "remove_edge", "uncontract", "remove_hub")

# Witness kind -> the theorem's operation, G -> H.  Entries reach ops
# through module globals at call time, so rebinding those names (as a
# tracer does) reaches every call.
_OPERATION = {
    "add_vertex": lambda g, v: remove_vertex(g, v),
    "remove_vertex": lambda g, v: remove_vertex(g, v),
    "add_edge": lambda g, e: remove_edge(g, e),
    "remove_edge": lambda g, e: remove_edge(g, e),
    "contract_edge": lambda g, e: contract_edge(g, e),
    "contract_vertices": lambda g, e: contract_vertices(g, *e),
    "uncontract": lambda g, e: contract_edge(g, e) if g.has_edge(*e) else contract_vertices(g, *e),
    "cycle_extend": lambda g, cyc: cycle_extend(g, cyc),
    "remove_hub": lambda g, cyc: cycle_extend(g, cyc),
}


def _operated(kind: str, g: Graph, params, h: Graph | None) -> Graph:
    """H as given, or built from G; callers validate ``params`` first."""
    return _OPERATION[kind](g, params) if h is None else h


@dataclass(frozen=True)
class GapReport:
    """Why a constructed coloring failed: which condition, against which color budget."""

    reason: str  # "definition", "over_budget", or "definition+over_budget"
    diagnostic: DominationDiagnostic | None
    budget: int


@dataclass(frozen=True)
class WitnessOutcome:
    status: str  # "validated" | "gap"
    coloring: Coloring
    colors_used: int
    case: str
    gap_report: GapReport | None


def _require_dom(g: Graph, c: Coloring, role: str) -> tuple[int, ...]:
    """Raise unless ``c`` is a domination coloring of ``g``; return each class's dominator mask."""
    doms, diag = _judge(g, c)
    if not diag.ok:
        raise ValueError(f"{role} is not a domination coloring: {diag}")
    return doms


def _outcome(case: str, target: Graph, coloring: Coloring, budget: int) -> WitnessOutcome:
    ok, diag = is_domination_coloring(target, coloring)
    used = coloring.class_count
    over = used > budget
    if ok and not over:
        return WitnessOutcome("validated", coloring, used, case, None)
    reason = "+".join(
        part for part, hit in (("definition", not ok), ("over_budget", over)) if hit
    )
    report = GapReport(reason, None if ok else diag, budget)
    return WitnessOutcome("gap", coloring, used, case, report)


def _recolor(case: str, target: Graph, base: Coloring, vmap, fresh, extra: int) -> WitnessOutcome:
    """Keep the base colors across ``vmap``, give each vertex of ``fresh``
    (target ids, in order) a new color of its own, and judge the result
    against a budget of ``extra`` colors beyond the base's.

    ``vmap`` maps G's vertices to H's, and the base colors whichever of G
    and H is not ``target``: colors go forward along it unless its length
    is ``target``'s order, and back otherwise (on an identity map both
    agree).  A vertex left without a color must be fresh.
    """
    colors = base.assignment
    if len(vmap) != target.n:
        assign = [None] * target.n
        for w, t in enumerate(vmap):
            if t is not None:
                assign[t] = colors[w]
    else:
        assign = [None if w is None else colors[w] for w in vmap]
    for color, w in enumerate(fresh, base.class_count):
        assign[w] = color
    return _outcome(case, target, Coloring(assign), base.class_count + extra)


def extend_witness(kind: str, g: Graph, params, base: Coloring, h: Graph | None = None) -> WitnessOutcome:
    """One fresh color realizes the airtight proof directions; see module doc."""
    if kind == "add_vertex":
        v = params
        require_removable(g, v)
        _require_dom(_operated(kind, g, v, h), base, "base coloring of G - v")
        return _recolor("main", g, base, removal_index_map(g.n, v), [v], 1)

    if kind == "add_edge":
        u, v = sorted(params)
        require_edge(g, *params)
        _require_dom(_operated(kind, g, (u, v), h), base, "base coloring of G - e")
        if base.assignment[u] == base.assignment[v]:
            # the smaller endpoint takes the fresh color
            return _recolor("same_color", g, base, range(g.n), [u], 1)
        return _recolor("distinct_colors", g, base, range(g.n), [], 0)

    if kind in ("contract_edge", "contract_vertices"):
        u, v = params
        require_contractible(g, u, v, edge=kind == "contract_edge")
        target = _operated(kind, g, (u, v), h)
        _require_dom(g, base, "base coloring of G")
        imap = contraction_index_map(g.n, u, v)
        return _recolor("main", target, base, imap, [imap[u]], 1)

    if kind == "cycle_extend":
        cyc: CycleSpec = params
        cyc.validate(g)
        target = _operated(kind, g, cyc, h)
        _require_dom(g, base, "base coloring of G")
        return _recolor("main", target, base, range(g.n), [g.n], 1)

    raise ValueError(f"unknown extend kind {kind!r}; expected one of {EXTEND_KINDS}")


def _classes_dominated_only_by(c: Coloring, doms: tuple[int, ...], v: int) -> int:
    """Bitset of vertices lying in classes whose sole dominator is v, given
    the dominator mask of each class of ``c``."""
    vbit = 1 << v
    flagged = 0
    for members, dom in zip(c.classes, doms):
        if dom == vbit:
            flagged |= members
    return flagged & ~vbit


def reduce_witness(kind: str, g: Graph, params, base: Coloring, h: Graph | None = None) -> WitnessOutcome:
    """Case-by-case constructions of the non-airtight proof directions."""
    if kind == "remove_vertex":
        v = params
        require_removable(g, v)
        if v in cut_vertices(g):
            raise ValueError(f"vertex {v} is a cut vertex; theorem hypothesis fails")
        doms = _require_dom(g, base, "base coloring of G")
        case = "case1" if base.classes[base.assignment[v]] != (1 << v) else "case2"
        imap = removal_index_map(g.n, v)
        fresh = [imap[w] for w in iter_bits(_classes_dominated_only_by(base, doms, v))]
        target = _operated(kind, g, v, h)
        return _recolor(case, target, base, imap, fresh, g.degree(v) - 1)

    if kind == "remove_edge":
        u, v = sorted(params)
        require_edge(g, *params)
        if (u, v) in bridges(g):
            raise ValueError(f"({u},{v}) is a bridge; theorem hypothesis fails")
        doms = _require_dom(g, base, "base coloring of G")
        i, j = base.assignment[u], base.assignment[v]
        u_dominates_vs_class = bool((doms[j] >> u) & 1)
        v_dominates_us_class = bool((doms[i] >> v) & 1)
        if u_dominates_vs_class and v_dominates_us_class:
            case, fresh = "case3", [u, v]
        elif u_dominates_vs_class:
            case, fresh = "case2", [v]  # the endpoint whose class the other dominates
        elif v_dominates_us_class:
            case, fresh = "case2", [u]
        else:
            case, fresh = "case1", []
        target = _operated(kind, g, (u, v), h)
        return _recolor(case, target, base, range(g.n), fresh, 2)

    if kind == "uncontract":
        u, v = params
        if u == v:
            raise ValueError("uncontract needs two distinct vertices")
        g.has_edge(u, v)  # raises on a vertex out of range
        source = _operated(kind, g, (u, v), h)
        _require_dom(source, base, "base coloring of the contracted graph")
        return _recolor("main", g, base, contraction_index_map(g.n, u, v), [u, v], 2)

    if kind == "remove_hub":
        cyc: CycleSpec = params
        cyc.validate(g)
        source = _operated(kind, g, cyc, h)
        doms = _require_dom(source, base, "base coloring of the cycle-extended graph")
        hub = g.n
        i = base.assignment[hub]
        case = "case1" if base.classes[i] == (1 << hub) else "case2"
        flagged = _classes_dominated_only_by(base, doms, hub)
        if case == "case1":
            # vertices of G whose only dominated class is the hub's singleton
            others = 0
            for d in doms[:i] + doms[i + 1:]:
                others |= d
            flagged |= doms[i] & ~others & ~(1 << hub)
        # the proof caps the fresh colors at the cycle length
        fresh = list(iter_bits(flagged))[: cyc.length]
        return _recolor(case, g, base, range(g.n), fresh, cyc.length)

    raise ValueError(f"unknown reduce kind {kind!r}; expected one of {REDUCE_KINDS}")
