"""The contained-star search of `star_decomposition` against the
exhaustive subset scan.

`oracle_star_decomposition` is the direct scan: it tries every
(2k+1)-subset of the vertices and keeps those whose wrap edges all lie in
t.  `star_decomposition` searches the stars along each vertex's sorted
neighbours and must return the same list on every k-triangulation.  On
edge sets that are not k-triangulations it must return the oracle's list
or raise StructureViolation, and exactly the oracle's outcome on single
swaps, where its own edge checks all pass.
"""

from __future__ import annotations

import itertools

import pytest

from multitri import (
    Edge,
    KStar,
    PolygonTriangulation,
    all_edges,
    cyclic_length,
    cylinder,
    enumerate_cylinder,
    enumerate_polygon,
    expected_edge_count,
    make_star,
    phi,
    polygon,
    short_edges,
    star_decomposition,
)
from multitri.errors import StructureViolation


def oracle_star_decomposition(t: PolygonTriangulation) -> list[KStar]:
    """The n-2k stars of t, by direct scan of vertex subsets in convex position."""
    n, k = t.surface.n, t.surface.k
    edges = t.edge_set()
    stars = []
    for z in itertools.combinations(range(n), 2 * k + 1):
        wraps = [Edge(*sorted((z[i], z[(i + k) % (2 * k + 1)]))) for i in range(2 * k + 1)]
        if all(w in edges for w in wraps):
            stars.append(make_star(z))
    if len(stars) != n - 2 * k:
        raise StructureViolation(
            f"found {len(stars)} stars, expected {n - 2 * k}")
    return stars


def _outcome(decompose, t: PolygonTriangulation):
    try:
        return decompose(t)
    except StructureViolation:
        return StructureViolation


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (7, 3),
                                 (7, 2), (8, 1), (8, 2), (9, 2), (9, 3), (10, 1), (11, 3)])
def test_walk_matches_scan_on_every_triangulation(n, k):
    """Down to n = 2k+1, one star with every edge of length k, and n = 2k,
    no star at all."""
    for t in enumerate_polygon(polygon(n, k)):
        assert star_decomposition(t) == oracle_star_decomposition(t)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_walk_matches_scan_on_periodic_images(n):
    for t in enumerate_cylinder(cylinder(n, 2)):
        inner = phi(t).inner
        assert star_decomposition(inner) == oracle_star_decomposition(inner)


@pytest.mark.parametrize("n,k", [(7, 2), (8, 1), (8, 2), (9, 2), (9, 3)])
def test_walk_never_returns_a_different_list(n, k):
    """One-edge deletions and additions: the oracle's list or a raise.

    At (9,2) a walk without the edge-count check returns five stars on nine
    of the additions, where the scan raises."""
    variants = 0
    for t in enumerate_polygon(polygon(n, k)):
        edges = t.edge_set()
        for e in all_edges(n):
            changed = edges - {e} if e in edges else edges | {e}
            probe = PolygonTriangulation(t.surface, tuple(sorted(changed)))
            got = _outcome(star_decomposition, probe)
            assert got is StructureViolation or got == _outcome(oracle_star_decomposition, probe)
            variants += 1
    assert variants == len(enumerate_polygon(polygon(n, k))) * n * (n - 1) // 2


@pytest.mark.parametrize("n,k", [(7, 2), (8, 2), (9, 3)])
def test_single_swaps_give_the_scan_outcome(n, k):
    """Every relevant edge swapped for every absent edge: the right edge
    count and every short edge, but often a (k+1)-crossing.  The local walk
    this search replaced gave another outcome than the scan on 224 of the
    3,024 swaps of (8,2)."""
    swaps = 0
    for t in enumerate_polygon(polygon(n, k)):
        edges = t.edge_set()
        absent = [e for e in all_edges(n) if e not in edges]
        for e in t.relevant_edges():
            for f in absent:
                probe = PolygonTriangulation(t.surface, tuple(sorted(edges - {e} | {f})))
                assert _outcome(star_decomposition, probe) == _outcome(oracle_star_decomposition, probe)
                swaps += 1
    relevant = expected_edge_count(n, k) - n * k
    absent = n * (n - 1) // 2 - expected_edge_count(n, k)
    assert swaps == len(enumerate_polygon(polygon(n, k))) * relevant * absent


@pytest.mark.parametrize("relevant", [
    # a walk closes after five steps on 0, 3, 5, 7, visiting 5 twice
    [(0, 4), (0, 5), (1, 4), (2, 6), (2, 7), (3, 7)],
    # a walk closes on 0, 1, 2, 3, 4 along edges that are not those of its star
    [(0, 3), (1, 4), (1, 5), (1, 6), (2, 6), (4, 7)],
])
def test_closed_walks_that_are_not_stars_do_not_count(relevant):
    """Edge sets of the 8-gon with every short edge and the right count but
    a 3-crossing.  Counting either walk as a star would make four, the
    expected number, where the scan finds a wrong number and raises."""
    edges = short_edges(8, 2) | {Edge(a, b) for a, b in relevant}
    probe = PolygonTriangulation(polygon(8, 2), tuple(sorted(edges)))
    assert len(edges) == expected_edge_count(8, 2)
    assert _outcome(oracle_star_decomposition, probe) is StructureViolation
    with pytest.raises(StructureViolation, match="found 3 stars"):
        star_decomposition(probe)


def test_missing_short_edge_now_raises():
    """A 2-triangulation of the 7-gon less its side [0,1] is not a
    k-triangulation.  The scan still found three stars in it; the walk
    rejects it before walking."""
    t = enumerate_polygon(polygon(7, 2))[0]
    probe = PolygonTriangulation(t.surface, tuple(e for e in t.edges if e != Edge(0, 1)))
    assert len(oracle_star_decomposition(probe)) == 3
    with pytest.raises(StructureViolation, match="missing"):
        star_decomposition(probe)


@pytest.mark.parametrize("extra", [Edge(3, 7), Edge(5, 9), Edge(-1, 3)])
def test_endpoint_out_of_range_raises(extra):
    """One relevant edge swapped for an edge leaving the 7-gon."""
    t = enumerate_polygon(polygon(7, 2))[0]
    edges = set(t.edges) - {t.relevant_edges()[0]} | {extra}
    probe = PolygonTriangulation(t.surface, tuple(sorted(edges)))
    with pytest.raises(StructureViolation, match="out of range"):
        star_decomposition(probe)


def test_duplicated_edge_raises():
    t = enumerate_polygon(polygon(7, 2))[0]
    probe = PolygonTriangulation(t.surface, t.edges[:-1] + (t.edges[0],))
    assert len(probe.edges) == 18
    with pytest.raises(StructureViolation, match="duplicate"):
        star_decomposition(probe)


@pytest.mark.parametrize("n,vertex_edges", [(5, [Edge(0, 2)]), (5, [Edge(0, 1)]), (6, [])])
def test_vertex_with_fewer_than_two_neighbours_raises(n, vertex_edges):
    """k(2n-2k-1) edges at k=1, all but at most one of them among vertices
    1..n-1, so vertex 0 has at most one neighbour.  On K_4 plus [0,2] a walk
    without the short-edge check returns three triangles."""
    others = [Edge(a, b) for a, b in itertools.combinations(range(1, n), 2)]
    edges = (vertex_edges + others)[:expected_edge_count(n, 1)]
    probe = PolygonTriangulation(polygon(n, 1), tuple(sorted(edges)))
    assert len(set(probe.edges)) == expected_edge_count(n, 1)
    with pytest.raises(StructureViolation, match="missing"):
        star_decomposition(probe)


def test_short_edges_are_the_edges_of_cyclic_length_at_most_k():
    for n in range(3, 16):
        for k in range(1, 9):
            want = {e for e in all_edges(n) if cyclic_length(e, n) <= k}
            assert short_edges(n, k) == want
