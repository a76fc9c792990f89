"""Polygon k-triangulations: enumeration, stars, flips, shift invariance.

The enumeration counts are frozen from a Hankel-determinant oracle
(det of the Catalan matrix [C_{n-i-j}]), computed independently of the
backtracking enumerator.
"""

from __future__ import annotations

import itertools
import random

import pytest

from multitri import (
    Edge,
    KStar,
    PolygonTriangulation,
    TooLarge,
    all_edges,
    common_bisector,
    crosses,
    cylinder,
    enumerate_polygon,
    enumerate_shift_invariant,
    expected_edge_count,
    has_k_plus_1_crossing,
    is_shift_invariant,
    make_star,
    polygon,
    polygon_flip,
    relevant_candidates,
    short_edges,
    star_decomposition,
    validate_polygon_triangulation,
)
from multitri.errors import NotInTriangulation, NotRelevant, StructureViolation
from multitri.polygon import _checked_edge_set

from conftest import POLYGON_COUNTS, make_polygon_triangulation


SMALL_CASES = [(5, 1), (6, 1), (7, 1), (8, 1),
               (5, 2), (6, 2), (7, 2), (8, 2),
               (7, 3), (8, 3), (9, 3)]


@pytest.mark.parametrize("n,k", SMALL_CASES)
def test_enumeration_matches_hankel_oracle(n, k):
    ts = enumerate_polygon(polygon(n, k))
    assert len(ts) == POLYGON_COUNTS[(n, k)]


def test_enumeration_respects_budget():
    with pytest.raises(TooLarge):
        enumerate_polygon(polygon(11, 2))
    # an explicit cap can lower the gate further
    with pytest.raises(TooLarge):
        enumerate_polygon(polygon(8, 2), max_n=7)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 3)])
def test_below_2k_plus_1_the_complete_graph_is_valid_and_starless(n, k):
    """Below n = 2k+1 every edge is short: the complete graph is the only
    k-triangulation, with n(n-1)/2 edges and no star."""
    (t,) = enumerate_polygon(polygon(n, k))
    assert expected_edge_count(n, k) == len(t.edges) == n * (n - 1) // 2
    validate_polygon_triangulation(t)
    assert star_decomposition(t) == []


def test_edge_counts_and_validity():
    for n, k in ((8, 2), (9, 3)):
        want = expected_edge_count(n, k)
        assert want == k * (2 * n - 2 * k - 1)
        for t in enumerate_polygon(polygon(n, k)):
            assert len(t.edges) == want
            validate_polygon_triangulation(t)


def test_all_triangulations_distinct():
    ts = enumerate_polygon(polygon(8, 2))
    assert len({t.edges for t in ts}) == len(ts)


def test_short_edges_always_present():
    shorts = short_edges(8, 2)
    assert len(shorts) == 2 * 8
    for t in enumerate_polygon(polygon(8, 2)):
        assert shorts <= t.edge_set()


def test_relevant_candidates_partition():
    n, k = 9, 2
    cands = relevant_candidates(n, k)
    shorts = short_edges(n, k)
    assert len(cands) + len(shorts) == len(all_edges(n))
    assert not (set(cands) & shorts)


def test_make_star_pentagon():
    star = make_star((0, 1, 2, 3, 4))
    assert set(star.edges) == {Edge(0, 2), Edge(1, 3), Edge(2, 4),
                               Edge(0, 3), Edge(1, 4)}
    # visiting order hops k=2 vertices at a time
    assert star.vertices == (0, 2, 4, 1, 3)


def test_star_decomposition_counts():
    for n, k in ((8, 2), (7, 1), (9, 3)):
        for t in enumerate_polygon(polygon(n, k)):
            stars = star_decomposition(t)
            assert len(stars) == n - 2 * k
            for s in stars:
                assert set(s.edges) <= t.edge_set()


def test_star_decomposition_covers_relevant_edges():
    n, k = 8, 2
    for t in enumerate_polygon(polygon(n, k)):
        covered = set().union(*(set(s.edges) for s in star_decomposition(t)))
        for e in t.edges:
            if e in covered:
                continue
            # only edges short on the cycle may go uncovered
            assert min((e.b - e.a) % n, (e.a - e.b) % n) <= k


def test_polygon_flip_roundtrip():
    n, k = 8, 2
    for t in enumerate_polygon(polygon(n, k)):
        for e in sorted(t.edges):
            if e not in set(relevant_candidates(n, k)):
                continue
            t2, f = polygon_flip(t, e)
            validate_polygon_triangulation(t2)
            assert t2.edge_set() == (t.edge_set() - {e}) | {f}
            t3, g = polygon_flip(t2, f)
            assert t3.edge_set() == t.edge_set() and g == e


def test_polygon_flip_rejects_bad_edges():
    t = enumerate_polygon(polygon(8, 2))[0]
    absent = next(iter(set(relevant_candidates(8, 2)) - t.edge_set()))
    with pytest.raises(NotInTriangulation):
        polygon_flip(t, absent)
    with pytest.raises(NotRelevant):
        polygon_flip(t, Edge(0, 1))


@pytest.mark.parametrize("n,k", [(8, 2), (9, 2)])
def test_polygon_flip_matches_bisector_among_all_absent_edges(n, k):
    """`polygon_flip` against `common_bisector` over the full complement of
    t, on every relevant edge of every triangulation."""
    flips = 0
    for t in enumerate_polygon(polygon(n, k)):
        edges = t.edge_set()
        absent = frozenset(all_edges(n)) - edges
        stars = star_decomposition(t)
        for e in t.relevant_edges():
            r, s = [star for star in stars if e in star.edge_set()]
            f = common_bisector(r, s, absent)
            assert polygon_flip(t, e) == (
                PolygonTriangulation(t.surface, tuple(sorted(edges - {e} | {f}))), f)
            flips += 1
    assert flips == POLYGON_COUNTS[n, k] * (expected_edge_count(n, k) - n * k)


@pytest.mark.parametrize("n,k,step,probes", [(7, 2, 1, 112), (8, 2, 4, 630)])
def test_polygon_flip_rejects_a_crossing_edge_set(n, k, step, probes):
    """Every swap of one relevant edge of every `step`-th triangulation for
    one absent edge that leaves a (k+1)-crossing has the right edge count
    and every short edge; flipping any of its relevant edges raises
    StructureViolation, though the flip searches only the stars through
    that edge and no longer counts the stars of the whole set."""
    found = 0
    for t in enumerate_polygon(polygon(n, k))[::step]:
        edges = t.edge_set()
        for g in t.relevant_edges():
            for h in relevant_candidates(n, k):
                swapped = tuple(sorted(edges - {g} | {h}))
                if h in edges or not has_k_plus_1_crossing(swapped, k, t.surface):
                    continue
                probe = PolygonTriangulation(t.surface, swapped)
                found += 1
                for e in probe.relevant_edges():
                    with pytest.raises(StructureViolation):
                        polygon_flip(probe, e)
    assert found == probes


def test_common_bisector_needs_exactly_one_absent_candidate():
    t = enumerate_polygon(polygon(8, 2))[0]
    e = t.relevant_edges()[0]
    r, s = [star for star in star_decomposition(t) if e in star.edge_set()]
    absent = frozenset(all_edges(8)) - t.edge_set()
    f = common_bisector(r, s, absent)
    with pytest.raises(StructureViolation, match=r"expected one common bisector, found \[\]"):
        common_bisector(r, s, absent - {f})


def test_flip_changes_exactly_one_triangulation_edge():
    ts = enumerate_polygon(polygon(7, 2))
    index = {t.edge_set() for t in ts}
    for t in ts:
        for e in t.edge_set() & set(relevant_candidates(7, 2)):
            t2, _ = polygon_flip(t, e)
            assert t2.edge_set() in index
            assert len(t.edge_set() ^ t2.edge_set()) == 2


def test_shift_invariant_enumeration(shift3_invariant, shift6_invariant):
    inv = shift3_invariant
    assert len(inv) == 36
    for t in inv:
        assert is_shift_invariant(t, 3)
        validate_polygon_triangulation(t)
    # shift-3 invariance implies shift-6 invariance, never conversely here
    inv6 = shift6_invariant
    assert {t.edges for t in inv} <= {t.edges for t in inv6}
    assert all(is_shift_invariant(t, 6) for t in inv6)
    assert len(inv6) > len(inv)


def test_shift_invariant_are_genuinely_invariant(worked_12gon):
    assert is_shift_invariant(worked_12gon, 3)
    assert is_shift_invariant(worked_12gon, 6)
    t2, _ = polygon_flip(worked_12gon, Edge(0, 4))
    assert not is_shift_invariant(t2, 3)


def test_worked_example_is_enumerated(worked_12gon, shift3_invariant):
    assert len(worked_12gon.edges) == expected_edge_count(12, 2)
    validate_polygon_triangulation(worked_12gon)
    assert worked_12gon.edge_set() in {t.edge_set() for t in shift3_invariant}


def test_tiny_polygons_have_unique_triangulation():
    # below n = 2k+2 every diagonal is short, one triangulation: all edges
    ts = enumerate_polygon(polygon(5, 2))
    assert len(ts) == 1
    assert len(ts[0].edges) == 10



@pytest.mark.parametrize("n", range(3, 15))
def test_missing_short_edge_message_matches_set_difference(n):
    """The check counts the missing short edges by a closed form and lists
    the first five lazily; its message is the one the full sorted difference
    with `short_edges` gives."""
    rng = random.Random(n)
    for k in range(1, n // 2 + 2):
        for density in (0.0, 0.3, 0.8, 0.95, 1.0):
            t = PolygonTriangulation(
                polygon(n, k), tuple(e for e in all_edges(n) if rng.random() < density))
            missing = sorted(short_edges(n, k) - t.edge_set())
            if not missing:
                assert _checked_edge_set(t) == t.edge_set()
                continue
            more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
            with pytest.raises(StructureViolation) as raised:
                _checked_edge_set(t)
            assert str(raised.value) == f"edges of length <= {k} missing: {missing[:5]}{more}"


def test_polygon_enumerators_refuse_a_cylinder():
    with pytest.raises(ValueError, match="^enumerate_polygon needs a polygon surface$"):
        enumerate_polygon(cylinder(6, 1))
    with pytest.raises(ValueError, match="^enumerate_shift_invariant needs a polygon surface$"):
        enumerate_shift_invariant(cylinder(6, 1), 3)
