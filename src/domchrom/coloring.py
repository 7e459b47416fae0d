"""Colorings and the two domination conditions.

A coloring is a domination coloring when it is proper, every vertex
dominates at least one color class (the class lies inside the vertex's
closed neighborhood), and every color class is dominated by at least one
vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, iter_bits


class Coloring:
    """Vertex -> color assignment with dense color indices 0..k-1.

    Input values may have gaps; they are renumbered by first appearance,
    so every class is nonempty and ``class_count <= n`` holds by
    construction.  ``classes[i]`` is the bitset of vertices colored i.
    """

    __slots__ = ("assignment", "class_count", "classes")

    def __init__(self, assignment: Iterable[int]):
        values = tuple(assignment)
        if not values:
            raise ValueError("coloring needs at least one vertex")
        remap: dict[int, int] = {}
        dense = []
        for x in values:
            if x < 0:
                raise ValueError(f"negative color {x} rejected")
            if x not in remap:
                remap[x] = len(remap)
            dense.append(remap[x])
        self.assignment = tuple(dense)
        self.class_count = len(remap)
        masks = [0] * self.class_count
        for v, c in enumerate(dense):
            masks[c] |= 1 << v
        self.classes = tuple(masks)

    def to_text(self) -> str:
        """Comma-separated color indices in vertex order, e.g. ``0,1,0,1``."""
        return ",".join(str(c) for c in self.assignment)

    @classmethod
    def from_text(cls, text: str) -> "Coloring":
        values = []
        offset = 0
        for piece in text.strip().split(","):
            try:
                values.append(int(piece))
            except ValueError:
                raise ValueError(
                    f"invalid color {piece!r} (byte offset {offset})"
                ) from None
            offset += len(piece) + 1
        return cls(values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.assignment == other.assignment

    def __hash__(self) -> int:
        return hash(self.assignment)

    def __repr__(self) -> str:
        return f"Coloring({self.to_text()!r})"


@dataclass(frozen=True)
class DominationDiagnostic:
    """Exactly which parts of the domination-coloring definition fail.

    All three tuples empty <=> the coloring is a domination coloring.
    Lists are always fully populated, never fail-fast, so one pass can
    report every violation.
    """

    undominating_vertices: tuple[int, ...]
    undominated_classes: tuple[int, ...]
    improper_edges: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not (
            self.undominating_vertices
            or self.undominated_classes
            or self.improper_edges
        )


def _check_length(g: Graph, c: Coloring) -> None:
    if len(c.assignment) != g.n:
        raise ValueError(
            f"coloring covers {len(c.assignment)} vertices but graph has {g.n}"
        )


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff no edge joins two vertices of the same color."""
    _check_length(g, c)
    adj = g.adj
    for members in c.classes:
        rest = members
        while rest:
            low = rest & -rest
            rest ^= low
            if adj[low.bit_length() - 1] & members:
                return False
    return True


def _dominator_masks(g: Graph, c: Coloring) -> list[int]:
    """Per class, the bitset of vertices whose closed neighborhood contains it."""
    closed = g.closed
    full = (1 << g.n) - 1
    out = []
    for members in c.classes:
        d = full
        rest = members
        while rest:
            low = rest & -rest
            rest ^= low
            d &= closed[low.bit_length() - 1]
        out.append(d)
    return out


def dominators_of_class(g: Graph, c: Coloring, i: int) -> set[int]:
    """Vertices v with class i inside N[v]; the intersection of closed
    neighborhoods over the class members."""
    _check_length(g, c)
    if not 0 <= i < c.class_count:
        raise ValueError(f"class index {i} out of range for {c.class_count} classes")
    closed = g.closed
    d = (1 << g.n) - 1
    for v in iter_bits(c.classes[i]):
        d &= closed[v]
    return set(iter_bits(d))


def classes_dominated_by(g: Graph, c: Coloring, v: int) -> set[int]:
    """Color indices i with class i inside N[v]."""
    _check_length(g, c)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")
    cv = g.closed[v]
    return {i for i, members in enumerate(c.classes) if not members & ~cv}


def is_domination_coloring(g: Graph, c: Coloring) -> tuple[bool, DominationDiagnostic]:
    """Decide the definition and report every violation in one pass."""
    _check_length(g, c)
    adj = g.adj
    closed = g.closed
    full = (1 << g.n) - 1
    improper: list[tuple[int, int]] = []
    undominated: list[int] = []
    union_d = 0
    for i, members in enumerate(c.classes):
        d = full
        rest = members
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            clash = (adj[v] & members) >> (v + 1)
            while clash:
                cl = clash & -clash
                improper.append((v, v + 1 + cl.bit_length() - 1))
                clash ^= cl
            d &= closed[v]
        if not d:
            undominated.append(i)
        union_d |= d
    missing = full & ~union_d
    diag = DominationDiagnostic(
        undominating_vertices=tuple(iter_bits(missing)),
        undominated_classes=tuple(undominated),
        improper_edges=tuple(improper),
    )
    return diag.ok, diag
