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

    Every input value is exactly an int: a bool, a float, a numpy integer
    or a string raises ValueError.  Values may have gaps; they are
    renumbered by first appearance, so every class is nonempty and
    ``class_count <= n`` holds by construction.  ``classes[i]`` is the
    bitset of vertices colored i.
    Because it never changes, the memo slot ``_judged`` keeps its last
    judgement (see :func:`_judge`) with the adjacency it was made on.
    """

    __slots__ = ("assignment", "class_count", "classes", "_judged")

    def __init__(self, assignment: Iterable[int]):
        # one pass: renumber each color and add its vertex's bit to the class
        remap: dict[int, int] = {}
        dense = []
        masks = []
        bit = 1
        for x in assignment:
            if type(x) is not int:  # True would join color 1's class, and "a" fail with a raw TypeError
                raise ValueError(f"color must be an int, got {x!r}")
            c = remap.get(x)
            if c is None:  # the color's first vertex: its one sign check
                if x < 0:
                    raise ValueError(f"negative color {x} rejected")
                c = remap[x] = len(masks)
                masks.append(bit)
            else:
                masks[c] |= bit
            dense.append(c)
            bit <<= 1
        if not dense:
            raise ValueError("coloring needs at least one vertex")
        self.assignment = tuple(dense)
        self.class_count = len(masks)
        self.classes = tuple(masks)
        self._judged: tuple[tuple[int, ...], tuple[int, ...], DominationDiagnostic] | None = None

    def to_text(self) -> str:
        """Comma-separated color indices in vertex order, e.g. ``0,1,0,1``."""
        return ",".join(str(c) for c in self.assignment)

    @classmethod
    def from_text(cls, text: str) -> "Coloring":
        """Parse :meth:`to_text` output; an invalid color is named with its
        offset in ``text`` in UTF-8 bytes."""
        values = []
        offset = len(text) - len(text.lstrip())  # counted in ``text``, not in its stripped copy
        for piece in text.strip().split(","):
            try:
                values.append(int(piece))
            except ValueError:
                where = len(text[:offset].encode("utf-8"))  # whitespace and parsed colors only
                raise ValueError(f"invalid color {piece!r} (byte offset {where})") from None
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


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff no edge joins two vertices of the same color."""
    return not is_domination_coloring(g, c)[1].improper_edges


def dominators_of_class(g: Graph, c: Coloring, i: int) -> set[int]:
    """Vertices v with class i inside N[v]; the intersection of closed
    neighborhoods over the class members; ValueError unless ``i`` is an int
    in 0..class_count-1."""
    if type(i) is not int or not 0 <= i < c.class_count:
        raise ValueError(f"class index {i!r} is not an int in 0..{c.class_count - 1}")
    return set(iter_bits(_judge(g, c)[0][i]))


def classes_dominated_by(g: Graph, c: Coloring, v: int) -> set[int]:
    """Color indices i with class i inside N[v]: those whose dominator mask
    holds v; ValueError unless ``v`` is an int in 0..n-1."""
    if type(v) is not int or not 0 <= v < g.n:
        raise ValueError(f"vertex {v!r} is not an int in 0..{g.n - 1}")
    return {i for i, d in enumerate(_judge(g, c)[0]) if (d >> v) & 1}


# the verdict of every domination coloring; frozen, so one instance serves all
_OK = DominationDiagnostic((), (), ())


def _judge(g: Graph, c: Coloring) -> tuple[tuple[int, ...], DominationDiagnostic]:
    """One pass over the vertices: each class's dominator mask (the bitset of
    vertices whose closed neighborhood contains it) and every violation.

    The answer is kept on ``c`` with ``g``'s adjacency, so judging ``c``
    again on an equal graph returns it without a second pass.
    """
    adj = g.adj
    memo = c._judged
    if memo is not None and memo[0] == adj:
        return memo[1], memo[2]
    if len(c.assignment) != g.n:
        raise ValueError(f"coloring covers {len(c.assignment)} vertices but graph has {g.n}")
    closed = g.closed
    classes = c.classes
    full = (1 << g.n) - 1
    doms = [full] * c.class_count  # classes are nonempty, so the loop narrows every entry
    clash = 0
    for v, i in enumerate(c.assignment):
        doms[i] &= closed[v]
        clash |= adj[v] & classes[i]
    union_d = 0
    for d in doms:
        union_d |= d
    if not clash and union_d == full and all(doms):
        diag = _OK
    else:
        diag = DominationDiagnostic(
            undominating_vertices=tuple(iter_bits(full & ~union_d)),
            undominated_classes=tuple(i for i, d in enumerate(doms) if not d),
            # class by class, each class's in edge order
            improper_edges=tuple(
                (v, w) for members in classes for v in iter_bits(members) for w in iter_bits(adj[v] & members) if w > v
            ),
        )
    masks = tuple(doms)
    c._judged = (adj, masks, diag)
    return masks, diag


def is_domination_coloring(g: Graph, c: Coloring) -> tuple[bool, DominationDiagnostic]:
    """Decide the definition and report every violation in one pass."""
    diag = _judge(g, c)[1]
    return diag.ok, diag
