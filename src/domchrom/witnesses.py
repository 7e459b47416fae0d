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

Every witness makes one move, keep-and-fresh: carry the base colors
across the vertex map of its operation's ``ops.OPERATIONS`` entry, give
each of a few named vertices a fresh color of its own, and check the
result against the proof's color budget.  A kind is a row of
:data:`WITNESS_KINDS`, which names its operation, the graph its base
coloring colors and that graph's name in errors, plus a branch of
``_construction``, which names only its proof case, its fresh vertices
and its budget.

Argument convention: ``g`` is always the theorem's graph G, and ``h`` is
the graph H the kind's operation makes from G.  A caller that has built
H already (the corpus harness) passes it, and it must have the order the
operation makes; otherwise it is built from ``g`` and ``params``.  Either
way ``params`` are read by the operation's reader and validated against
``g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .coloring import Coloring, DominationDiagnostic, _judge, is_domination_coloring
from .graph import Graph, bridges, cut_vertices, iter_bits
from .ops import (  # the operations as well: _operated calls them by name
    OPERATIONS,
    contract_edge,
    contract_vertices,
    cycle_extend,
    remove_edge,
    remove_vertex,
)


class WitnessKind(NamedTuple):
    operation: str  # the theorem's operation G -> H, a key of ops.OPERATIONS
    base: str  # "G" or "H": the graph the base coloring colors
    extend: bool  # an airtight direction (extend_witness), else a case analysis
    role: str  # the base graph as an error names it


WITNESS_KINDS = {
    "add_vertex": WitnessKind("remove_vertex", "H", True, "G - v"),
    "add_edge": WitnessKind("remove_edge", "H", True, "G - e"),
    "contract_edge": WitnessKind("contract_edge", "G", True, "G"),
    "contract_vertices": WitnessKind("contract_vertices", "G", True, "G"),
    "cycle_extend": WitnessKind("cycle_extend", "G", True, "G"),
    "remove_vertex": WitnessKind("remove_vertex", "G", False, "G"),
    "remove_edge": WitnessKind("remove_edge", "G", False, "G"),
    # undoes either contraction: contract_edge when the pair is an edge
    "uncontract": WitnessKind("contract_vertices", "H", False, "the contracted graph"),
    "remove_hub": WitnessKind("cycle_extend", "H", False, "the cycle-extended graph"),
}
EXTEND_KINDS = tuple(kind for kind, w in WITNESS_KINDS.items() if w.extend)
REDUCE_KINDS = tuple(kind for kind, w in WITNESS_KINDS.items() if not w.extend)


def _operated(kind: str, g: Graph, params, h: Graph | None):
    """The operation that makes H, ``params`` read and validated against G,
    and H: as given (if of the order the operation makes), or built from G."""
    name = WITNESS_KINDS[kind].operation
    op = OPERATIONS[name]
    param = op.read(params)
    if param is None:
        raise ValueError(f"{kind} takes {op.shape}, got {params!r}")
    if kind == "uncontract" and g.has_edge(*param):
        name = "contract_edge"
    if h is None:
        return name, param, globals()[name](g, param)  # this module's global: see the ops docstring
    op = OPERATIONS[name]
    op.validate(g, param)
    order = op.order(g, param)
    if h.n != order:
        raise ValueError(f"{name} makes order {order} from G, but h has order {h.n}")
    return name, param, h


@dataclass(frozen=True)
class GapReport:
    """Why a constructed coloring failed: which condition, against which color budget."""

    reason: str  # "definition", "over_budget", or "definition+over_budget"
    diagnostic: DominationDiagnostic | None
    budget: int


class WitnessOutcome(NamedTuple):
    status: str  # "validated" | "gap"
    coloring: Coloring
    colors_used: int
    case: str
    gap_report: GapReport | None


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


def _witness(extend: bool, kind: str, g: Graph, params, base: Coloring, h: Graph | None) -> WitnessOutcome:
    """Both directions' one entry: check, build, and carry the base colors."""
    kinds = EXTEND_KINDS if extend else REDUCE_KINDS
    if kind not in kinds:
        raise ValueError(f"unknown {'extend' if extend else 'reduce'} kind {kind!r}; expected one of {kinds}")
    name, param, h = _operated(kind, g, params, h)
    if kind == "remove_vertex" and param in cut_vertices(g):
        raise ValueError(f"vertex {param} is a cut vertex; theorem hypothesis fails")
    if kind == "remove_edge":
        u, v = sorted(param)
        if (u, v) in bridges(g):
            raise ValueError(f"({u},{v}) is a bridge; theorem hypothesis fails")
    row = WITNESS_KINDS[kind]
    colored, target = (g, h) if row.base == "G" else (h, g)
    doms, diag = _judge(colored, base)
    if not diag.ok:
        raise ValueError(f"base coloring of {row.role} is not a domination coloring: {diag}")
    vmap = OPERATIONS[name].vertex_map(g.n, param)  # G's vertex id -> H's
    case, fresh, extra = _construction(kind, g, param, base, doms, vmap)
    # Colors go forward along vmap unless its length is target's order,
    # and back otherwise (on an identity map both agree).  A vertex left
    # without a color must be fresh.
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
    return _witness(True, kind, g, params, base, h)


def reduce_witness(kind: str, g: Graph, params, base: Coloring, h: Graph | None = None) -> WitnessOutcome:
    """Case-by-case constructions of the non-airtight proof directions."""
    return _witness(False, kind, g, params, base, h)


def _classes_dominated_only_by(c: Coloring, doms: tuple[int, ...], v: int) -> int:
    """Bitset of vertices lying in classes whose sole dominator is v, given
    the dominator mask of each class of ``c``."""
    vbit = 1 << v
    flagged = 0
    for members, dom in zip(c.classes, doms):
        if dom == vbit:
            flagged |= members
    return flagged & ~vbit


def _construction(kind: str, g: Graph, param, base: Coloring, doms: tuple[int, ...], vmap):
    """The proof's ``(case, fresh, extra)`` for one kind: the vertices of
    the witness's graph that each take a fresh color, in order, and the
    color budget beyond the base's.  ``doms`` is the dominator mask of
    each class of ``base``, and ``vmap`` sends G's vertex ids to H's."""
    if kind == "add_vertex":
        return "main", [param], 1
    if kind == "add_edge":
        u, v = sorted(param)
        if base.assignment[u] == base.assignment[v]:
            return "same_color", [u], 1  # the smaller endpoint takes the fresh color
        return "distinct_colors", [], 0
    if kind == "cycle_extend":
        return "main", [g.n], 1
    if kind in ("contract_edge", "contract_vertices"):
        return "main", [vmap[param[0]]], 1

    if kind == "remove_vertex":
        v = param
        case = "case1" if base.classes[base.assignment[v]] != (1 << v) else "case2"
        fresh = [vmap[w] for w in iter_bits(_classes_dominated_only_by(base, doms, v))]
        return case, fresh, g.degree(v) - 1

    if kind == "remove_edge":
        u, v = sorted(param)
        i, j = base.assignment[u], base.assignment[v]
        u_dominates_vs_class = bool((doms[j] >> u) & 1)
        v_dominates_us_class = bool((doms[i] >> v) & 1)
        if u_dominates_vs_class and v_dominates_us_class:
            return "case3", [u, v], 2
        if u_dominates_vs_class:
            return "case2", [v], 2  # the endpoint whose class the other dominates
        if v_dominates_us_class:
            return "case2", [u], 2
        return "case1", [], 2

    if kind == "uncontract":
        return "main", list(param), 2

    cyc = param  # remove_hub
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
    return case, list(iter_bits(flagged))[: cyc.length], cyc.length
