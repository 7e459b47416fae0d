#!/usr/bin/env python3
"""Executable proof recolorings, validated instead of trusted.

The bound proofs are constructive: "add a fresh color to the new vertex",
"recolor the classes only this vertex dominated", and so on.  This script
runs those constructions.  The extending directions always validate; the
reducing directions follow each proof's case analysis literally, and when
a construction does not satisfy the definition the outcome is a recorded
gap finding, not an error.
"""

from domchrom import (
    Coloring,
    chi_dd_exact,
    contract_edge,
    enumerate_connected_graphs,
    extend_witness,
    reduce_witness,
    make_named,
    to_graph6,
)

print("== Extending: restore a vertex, give it a fresh color ==")
c4 = make_named("cycle", 4)
base = Coloring([0, 1, 0])  # ends/middle coloring of C_4 minus vertex 0
out = extend_witness("add_vertex", c4, 0, base)
print(f"C_4 - 0 colored {base.to_text()} -> C_4 colored {out.coloring.to_text()}")
print(f"status={out.status}, {out.colors_used} colors <= {base.class_count}+1")

print()
print("== Reducing: delete an edge, case analysis on who dominates whom ==")
bip = Coloring([0, 1, 0, 1])
out = reduce_witness("remove_edge", c4, (0, 1), bip)
print(f"C_4 bipartition, remove (0,1): {out.case} -> {out.coloring.to_text()}")
print(f"status={out.status}, {out.colors_used} colors <= {bip.class_count}+2")
print("(both endpoints dominate the other's class, so both get fresh colors)")

print()
print("== Reducing: split a contracted vertex back apart ==")
out = reduce_witness("uncontract", c4, (0, 1), Coloring([0, 1, 2]))
print(f"C_3 singletons uncontracted to C_4: {out.coloring.to_text()}, status={out.status}")

print()
print("== Hunting for a real proof gap (contraction, lower direction) ==")
# After uncontracting, a class that only the merged vertex dominated can
# end up dominated by neither restored endpoint.
found = None
for g in (h for n in (4, 5) for h in enumerate_connected_graphs(n)):
    for e in g.edges():
        base = chi_dd_exact(contract_edge(g, e)).witness
        out = reduce_witness("uncontract", g, e, base)
        if out.status == "gap":
            found = (g, e, base, out)
            break
    if found:
        break
if found:
    g, e, base, out = found
    print(f"graph {to_graph6(g)}, uncontract edge {e}:")
    print(f"  contracted coloring: {base.to_text()}")
    print(f"  reconstructed:       {out.coloring.to_text()} -> {out.status}")
    print(f"  reason: {out.gap_report.reason}")
    if out.gap_report.diagnostic:
        d = out.gap_report.diagnostic
        print(f"  undominated classes: {list(d.undominated_classes)}")
        print(f"  undominating vertices: {list(d.undominating_vertices)}")
    chi_small = base.class_count
    chi_big = chi_dd_exact(g).chi_dd
    print(f"  the inequality itself still holds: {chi_big} <= {chi_small} + 2")
else:
    print("no gap instance up to n=5 (unexpected; the harness tracks rates)")
