from itertools import combinations

import pytest

from domchrom.graph import from_edges


def _blade_graph(s: int, shared: bool = False):
    """B(s): hubs 0 and 1, each carrying two K_s blades whose vertices are
    all joined to their hub; the hubs are adjacent, or with ``shared``
    non-adjacent with one common neighbour, the last vertex."""
    edges = [] if shared else [(0, 1)]
    nxt = 2
    for hub in (0, 1):
        for _ in range(2):
            blade = range(nxt, nxt + s)
            edges += [*combinations(blade, 2), *((hub, v) for v in blade)]
            nxt += s
    if shared:
        edges += [(0, nxt), (1, nxt)]
        nxt += 1
    return from_edges(nxt, edges)


@pytest.fixture
def blade_graph():
    return _blade_graph
