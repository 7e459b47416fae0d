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

from .coloring import Coloring, DominationDiagnostic, _dominator_masks, is_domination_coloring
from .graph import CycleSpec, Graph, bridges, cut_vertices, iter_bits
from .ops import (
    contract_edge,
    contract_vertices,
    contraction_index_map,
    cycle_extend,
    remove_edge,
    remove_vertex,
    require_contractible,
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
    """Why a constructed coloring failed: which condition, at which proof case."""

    kind: str
    case: str
    reason: str  # "definition", "over_budget", or "definition+over_budget"
    diagnostic: DominationDiagnostic | None
    colors_used: int
    budget: int


@dataclass(frozen=True)
class WitnessOutcome:
    status: str  # "validated" | "gap"
    coloring: Coloring
    colors_used: int
    case: str
    gap_report: GapReport | None


def _require_dom(g: Graph, c: Coloring, role: str) -> None:
    ok, diag = is_domination_coloring(g, c)
    if not ok:
        raise ValueError(f"{role} is not a domination coloring: {diag}")


def _outcome(kind: str, case: str, target: Graph, coloring: Coloring, budget: int) -> WitnessOutcome:
    ok, diag = is_domination_coloring(target, coloring)
    used = coloring.class_count
    over = used > budget
    if ok and not over:
        return WitnessOutcome("validated", coloring, used, case, None)
    reason = "+".join(
        part for part, hit in (("definition", not ok), ("over_budget", over)) if hit
    )
    report = GapReport(kind, case, reason, None if ok else diag, used, budget)
    return WitnessOutcome("gap", coloring, used, case, report)


def _edge_params(g: Graph, params) -> tuple[int, int]:
    u, v = params
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge of the graph")
    return (u, v) if u < v else (v, u)


def extend_witness(kind: str, g: Graph, params, base: Coloring, h: Graph | None = None) -> WitnessOutcome:
    """One fresh color realizes the airtight proof directions; see module doc."""
    if kind == "add_vertex":
        v = params
        require_removable(g, v)
        source = _operated(kind, g, v, h)
        _require_dom(source, base, "base coloring of G - v")
        k = base.class_count
        assign = [
            k if w == v else base.assignment[w - (w > v)] for w in range(g.n)
        ]
        return _outcome(kind, "main", g, Coloring(assign), k + 1)

    if kind == "add_edge":
        u, v = _edge_params(g, params)
        source = _operated(kind, g, (u, v), h)
        _require_dom(source, base, "base coloring of G - e")
        assign = list(base.assignment)
        k = base.class_count
        if assign[u] == assign[v]:
            assign[u] = k  # smaller endpoint takes the fresh color
            return _outcome(kind, "same_color", g, Coloring(assign), k + 1)
        return _outcome(kind, "distinct_colors", g, Coloring(assign), k)

    if kind in ("contract_edge", "contract_vertices"):
        u, v = params
        require_contractible(g, u, v, edge=kind == "contract_edge")
        target = _operated(kind, g, (u, v), h)
        _require_dom(g, base, "base coloring of G")
        k = base.class_count
        imap = contraction_index_map(g.n, u, v)
        assign = [0] * target.n
        for w in range(g.n):
            if w not in (u, v):
                assign[imap[w]] = base.assignment[w]
        assign[imap[u]] = k  # fresh color on the merged vertex
        return _outcome(kind, "main", target, Coloring(assign), k + 1)

    if kind == "cycle_extend":
        cyc: CycleSpec = params
        cyc.validate(g)
        target = _operated(kind, g, cyc, h)
        _require_dom(g, base, "base coloring of G")
        k = base.class_count
        assign = list(base.assignment) + [k]
        return _outcome(kind, "main", target, Coloring(assign), k + 1)

    raise ValueError(f"unknown extend kind {kind!r}; expected one of {EXTEND_KINDS}")


def _classes_dominated_only_by(g: Graph, c: Coloring, v: int) -> int:
    """Bitset of vertices lying in classes whose sole dominator is v."""
    vbit = 1 << v
    flagged = 0
    for members, dom in zip(c.classes, _dominator_masks(g, c)):
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
        _require_dom(g, base, "base coloring of G")
        i = base.assignment[v]
        case = "case1" if base.classes[i] != (1 << v) else "case2"
        flagged = _classes_dominated_only_by(g, base, v)
        target = _operated(kind, g, v, h)
        fresh = base.class_count
        assign = []
        for w in range(g.n):
            if w == v:
                continue
            if (flagged >> w) & 1:
                assign.append(fresh)  # ascending vertex order
                fresh += 1
            else:
                assign.append(base.assignment[w])
        budget = base.class_count + g.degree(v) - 1
        return _outcome(kind, case, target, Coloring(assign), budget)

    if kind == "remove_edge":
        u, v = _edge_params(g, params)
        if (u, v) in bridges(g):
            raise ValueError(f"({u},{v}) is a bridge; theorem hypothesis fails")
        _require_dom(g, base, "base coloring of G")
        doms = _dominator_masks(g, base)
        i, j = base.assignment[u], base.assignment[v]
        u_dominates_vs_class = bool((doms[j] >> u) & 1)
        v_dominates_us_class = bool((doms[i] >> v) & 1)
        target = _operated(kind, g, (u, v), h)
        assign = list(base.assignment)
        k = base.class_count
        if u_dominates_vs_class and v_dominates_us_class:
            case = "case3"
            assign[u] = k
            assign[v] = k + 1
        elif u_dominates_vs_class:
            case = "case2"
            assign[v] = k  # the endpoint whose class the other dominates
        elif v_dominates_us_class:
            case = "case2"
            assign[u] = k
        else:
            case = "case1"
        return _outcome(kind, case, target, Coloring(assign), k + 2)

    if kind == "uncontract":
        u, v = params
        if u == v:
            raise ValueError("uncontract needs two distinct vertices")
        g.has_edge(u, v)  # raises on a vertex out of range
        source = _operated(kind, g, (u, v), h)
        _require_dom(source, base, "base coloring of the contracted graph")
        imap = contraction_index_map(g.n, u, v)
        k = base.class_count
        assign = [0] * g.n
        for w in range(g.n):
            if w not in (u, v):
                assign[w] = base.assignment[imap[w]]
        assign[u] = k
        assign[v] = k + 1
        return _outcome(kind, "main", g, Coloring(assign), k + 2)

    if kind == "remove_hub":
        cyc: CycleSpec = params
        cyc.validate(g)
        source = _operated(kind, g, cyc, h)
        _require_dom(source, base, "base coloring of the cycle-extended graph")
        hub = g.n
        i = base.assignment[hub]
        case = "case1" if base.classes[i] == (1 << hub) else "case2"
        flagged = _classes_dominated_only_by(source, base, hub)
        if case == "case1":
            # vertices whose only dominated class is the hub's singleton
            doms = _dominator_masks(source, base)
            for w in range(g.n):
                mine = [t for t, d in enumerate(doms) if (d >> w) & 1]
                if mine == [i]:
                    flagged |= 1 << w
        # the proof caps the fresh colors at the cycle length
        flagged_list = list(iter_bits(flagged))[: cyc.length]
        fresh = base.class_count
        assign = list(base.assignment[: g.n])
        for w in flagged_list:  # ascending vertex order
            assign[w] = fresh
            fresh += 1
        budget = base.class_count + cyc.length
        return _outcome(kind, case, g, Coloring(assign), budget)

    raise ValueError(f"unknown reduce kind {kind!r}; expected one of {REDUCE_KINDS}")
