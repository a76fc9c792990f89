"""`has_k_plus_1_crossing` and `crosses` against the pairwise builder they
replace.

`oracle_has_k_plus_1_crossing` builds its crossing graph pair by pair, with
the polygon's own test "exactly one endpoint of f strictly inside e, no
shared endpoint" and `cover_crosses` on the cylinder, and runs one clique
search on it.  The library's version builds the graph of the long edges
with `crossing_rows`; both must answer alike on triangulations, their
one-edge deletions, additions and swaps, the `phi` images of C_2..C_4 and
random cover edge sets.
"""

from __future__ import annotations

import itertools
import random

import pytest

from multitri import (
    Edge,
    crosses,
    cylinder,
    enumerate_cylinder,
    enumerate_polygon,
    has_k_plus_1_crossing,
    phi,
    polygon,
)
from multitri.polygon import all_edges
from multitri.surfaces import CYLINDER, _crossing_capable, cover_crosses, has_clique


def oracle_polygon_crosses(e: Edge, f: Edge) -> bool:
    if len({e.a, e.b, f.a, f.b}) != 4:
        return False
    return (e.a < f.a < e.b) != (e.a < f.b < e.b)


def oracle_has_k_plus_1_crossing(edges, k, surface) -> bool:
    longs = sorted(e for e in set(edges) if _crossing_capable(e, k, surface))
    if len(longs) <= k:
        return False
    cross = cover_crosses if surface.kind == CYLINDER else oracle_polygon_crosses
    adj = [0] * len(longs)
    for i, e in enumerate(longs):
        for j in range(i + 1, len(longs)):
            if cross(e, longs[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return has_clique(adj, k + 1)


def _edge_sets_near(edges, n, k):
    """t itself, each one-edge deletion and addition, and each swap of a
    relevant edge for an absent one."""
    absent = [e for e in all_edges(n) if e not in edges]
    relevant = [e for e in edges if _crossing_capable(e, k, polygon(n, k))]
    yield edges
    for e in edges:
        yield edges - {e}
    for f in absent:
        yield edges | {f}
    for e, f in itertools.product(relevant, absent):
        yield edges - {e} | {f}


@pytest.mark.parametrize("n,k", [(7, 2), (8, 2), (9, 3)])
def test_matches_oracle_around_every_polygon_triangulation(n, k):
    surface = polygon(n, k)
    answers = {False: 0, True: 0}
    for t in enumerate_polygon(surface):
        for edges in _edge_sets_near(t.edge_set(), n, k):
            answer = has_k_plus_1_crossing(edges, k, surface)
            assert answer == oracle_has_k_plus_1_crossing(edges, k, surface), sorted(edges)
            answers[answer] += 1
    assert answers[False] and answers[True]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matches_oracle_on_phi_images(n):
    for t in enumerate_cylinder(cylinder(n, 2)):
        image = phi(t).inner
        assert not has_k_plus_1_crossing(image.edges, 2, image.surface)
        assert not oracle_has_k_plus_1_crossing(image.edges, 2, image.surface)


@pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2, 3) for n in (1, 2, 3, 4)])
def test_matches_oracle_on_random_cover_edge_sets(n, k):
    rng = random.Random(1000 * n + k)
    surface = cylinder(n, k)
    answers = {False: 0, True: 0}
    for _ in range(300):
        edges = []
        for _ in range(rng.randint(0, 4 * k * n)):
            a = rng.randint(-2 * n, 3 * n)
            edges.append(Edge(a, a + rng.randint(1, 2 * k * n + 2)))
        answer = has_k_plus_1_crossing(edges, k, surface)
        assert answer == oracle_has_k_plus_1_crossing(edges, k, surface), edges
        answers[answer] += 1
    assert answers[True] and answers[False]


@pytest.mark.parametrize("n", range(3, 13))
def test_crosses_matches_polygon_formula(n):
    surface = polygon(n, 1)
    for e, f in itertools.product(all_edges(n), repeat=2):
        assert crosses(e, f, surface) == oracle_polygon_crosses(e, f), (e, f)
