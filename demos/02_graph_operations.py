#!/usr/bin/env python3
"""The six graph operations and their effect on chi_dd.

Each operation comes with proved bounds relating chi_dd before and after:

    remove vertex (non-cut):      chi-1 <= chi' <= chi+deg(v)-1
    remove edge (non-bridge):     chi-1 <= chi' <= chi+2
    contract edge:                chi-2 <= chi' <= chi+1
    contract non-adjacent pair:   chi-2 <= chi' <= chi+1
    k-subdivision:                chi_dd(P_{k+1}) <= chi' <= (m-1)chi_dd(P_k)+chi_dd(P_{k+1})
    cycle extension:              chi-l  <= chi' <= chi+1
"""

from domchrom import (
    CycleSpec,
    chi_dd_exact,
    contract_edge,
    contract_vertices,
    cycle_extend,
    make_named,
    path_chi_dd,
    remove_edge,
    remove_vertex,
    subdivide,
    superedges,
    to_graph6,
)


def chi(g):
    return chi_dd_exact(g).chi_dd


c5 = make_named("cycle", 5)
print(f"start: C_5 = {to_graph6(c5)}, chi_dd = {chi(c5)}")
print()

h = remove_vertex(c5, 0)
print(f"remove vertex 0      -> {to_graph6(h)} (a 4-path), chi_dd = {chi(h)}")

h = remove_edge(c5, (0, 1))
print(f"remove edge (0,1)    -> {to_graph6(h)} (a 5-path), chi_dd = {chi(h)}")

h = contract_edge(c5, (0, 1))
print(f"contract edge (0,1)  -> {to_graph6(h)} (C_4),      chi_dd = {chi(h)}")

h = contract_vertices(c5, (0, 2))
print(f"merge vertices 0,2   -> {to_graph6(h)} (triangle+pendant), chi_dd = {chi(h)}")

print()
print("== Subdivision: every edge becomes a path of length k ==")
for k in (1, 2, 3, 4):
    s = subdivide(c5, k)
    lo = path_chi_dd(k + 1)
    hi = (c5.m - 1) * path_chi_dd(k) + path_chi_dd(k + 1)
    marker = "" if k > 1 else "   (S_1(G) = G)"
    print(f"S_{k}(C_5): n={s.n:>2} chi_dd={chi(s):>2} in [{lo},{hi}]{marker}")
print(f"superedge of (0,1) in S_3(C_5): {superedges(c5, 3)[(0, 1)]}")

print()
print("== Cycle extension: a hub joined to every vertex of a cycle ==")
c4 = make_named("cycle", 4)
w4 = cycle_extend(c4, CycleSpec((0, 1, 2, 3)))
print(f"C_4 + hub over the 4-cycle = wheel: n={w4.n}, m={w4.m}, hub degree={w4.degree(4)}")
print(f"chi_dd goes {chi(c4)} -> {chi(w4)} (upper bound chi+1 is tight here)")
k4 = cycle_extend(make_named("cycle", 3), CycleSpec((0, 1, 2)))
print(f"C_3 + hub = {to_graph6(k4)} = K_4, chi_dd = {chi(k4)}")
