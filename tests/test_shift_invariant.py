"""Rotation-invariant polygon enumeration against a frozenset oracle.

`oracle_shift_invariant` is a direct search over rotation orbits: it unions
frozensets of edges, tests each partial set with `has_k_plus_1_crossing`
and checks maximality against single absent edges, with no pruning of
excluded orbits.  `enumerate_shift_invariant` runs the shared bitmask
search of `CrossingUniverse.maximal_sets` and must return the same list.
"""

from __future__ import annotations

import math

import pytest

from conftest import SHIFT_INVARIANT_COUNTS
from multitri import (
    Edge,
    PolygonTriangulation,
    SurfaceDesc,
    TooLarge,
    enumerate_polygon,
    enumerate_shift_invariant,
    has_k_plus_1_crossing,
    polygon,
    relevant_candidates,
    short_edges,
    validate_polygon_triangulation,
)
from multitri.polygon import ENUMERATION_BUDGET
from multitri.surfaces import POLYGON, CrossingUniverse


def oracle_shift_invariant(surface: SurfaceDesc, shift: int) -> list[PolygonTriangulation]:
    """All k-triangulations invariant under vertex rotation by `shift`.

    Candidates are whole rotation orbits of relevant edges.  Maximality at
    the leaves is checked against single absent edges.
    """
    if surface.kind != POLYGON:
        raise ValueError("enumerate_shift_invariant needs a polygon surface")
    n, k = surface.n, surface.k
    if n % shift:
        raise ValueError(f"shift {shift} does not divide {n}")

    def rotate(e: Edge, d: int) -> Edge:
        return Edge(*sorted(((e.a + d) % n, (e.b + d) % n)))

    orbits: list[tuple[Edge, ...]] = []
    seen: set[Edge] = set()
    for e in relevant_candidates(n, k):
        if e in seen:
            continue
        orbit = []
        x = e
        while x not in orbit:
            orbit.append(x)
            x = rotate(x, shift)
        seen.update(orbit)
        orbits.append(tuple(orbit))

    shorts = sorted(short_edges(n, k))
    longs_of = [frozenset(o) for o in orbits]
    results: list[tuple[Edge, ...]] = []

    def rec(i: int, chosen: list[frozenset[Edge]]):
        if i == len(orbits):
            edges = frozenset().union(*chosen) if chosen else frozenset()
            all_e = edges | set(shorts)
            for g in relevant_candidates(n, k):
                if g in edges:
                    continue
                if not has_k_plus_1_crossing(all_e | {g}, k, surface):
                    return
            results.append(tuple(sorted(all_e)))
            return
        trial = chosen + [longs_of[i]]
        if not has_k_plus_1_crossing(frozenset().union(*trial), k, surface):
            rec(i + 1, trial)
        rec(i + 1, chosen)

    rec(0, [])
    return [PolygonTriangulation(surface, edges) for edges in sorted(results)]


@pytest.mark.parametrize("m,k,shift", sorted(SHIFT_INVARIANT_COUNTS))
def test_matches_frozenset_oracle(m, k, shift):
    found = enumerate_shift_invariant(polygon(m, k), shift)
    assert len(found) == SHIFT_INVARIANT_COUNTS[m, k, shift]
    assert found == oracle_shift_invariant(polygon(m, k), shift)


def test_shift_must_divide_n():
    for shift in (0, 5, -5):
        with pytest.raises(ValueError, match="does not divide"):
            enumerate_shift_invariant(polygon(12, 2), shift)
    assert enumerate_shift_invariant(polygon(12, 2), -3) == enumerate_shift_invariant(
        polygon(12, 2), 3)


@pytest.mark.parametrize("k", sorted(ENUMERATION_BUDGET))
@pytest.mark.parametrize("sign", [1, -1])
def test_shift_n_keeps_the_polygon_budget(monkeypatch, k, sign):
    """Shift n is the plain enumeration, so it is refused past the plain
    budget before any universe is built."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("built a crossing universe")

    monkeypatch.setattr(CrossingUniverse, "__init__", refuse)
    n = ENUMERATION_BUDGET[k] + 1
    with pytest.raises(TooLarge, match=f"budget is n <= {n - 1} for k={k}, got n={n}"):
        enumerate_shift_invariant(polygon(n, k), sign * n)


# Every proper divisor shift of every n inside the enumeration budget; shift
# n is `enumerate_polygon`, checked against Catalan-Hankel and the oracle
# in test_search_bound.
BUDGET_SHIFTS = [(n, k, shift) for k, top in ENUMERATION_BUDGET.items()
                 for n in range(3, top + 1) for shift in range(1, n) if n % shift == 0]


@pytest.mark.parametrize("n,k,shift", BUDGET_SHIFTS)
def test_every_shift_invariant_result_validates(n, k, shift):
    """A search whose seed holds too few members for a triangulation finds
    nothing: at shift 1 every relevant orbit holds a crossing of its own."""
    for t in enumerate_shift_invariant(polygon(n, k), shift):
        validate_polygon_triangulation(t)


def rotation_orbit_count(found, n: int) -> int:
    """The number of rotation orbits among the triangulations, each named by
    its least rotated edge tuple."""
    def rotated(edges, d):
        return tuple(sorted(Edge((a + d) % n, (b + d) % n) for a, b in edges))
    return len({min(rotated(t.edges, d) for d in range(n)) for t in found})


@pytest.mark.parametrize("n,k,orbits", [(10, 1, 150), (9, 2, 66), (10, 2, 491), (11, 3, 429)])
def test_burnside_counts_rotation_orbits(n, k, orbits):
    """Cauchy-Frobenius: the rotation orbits of the k-triangulations of the
    n-gon number (1/n) times the sum over d = 1..n of the triangulations
    invariant under rotation by d, which are those invariant under gcd(d, n).
    This ties the shift search to the full enumeration, whose search keeps
    one result per rotation orbit and expands it."""
    assert rotation_orbit_count(enumerate_polygon(polygon(n, k)), n) == orbits
    fixed = sum(len(enumerate_shift_invariant(polygon(n, k), math.gcd(d, n)))
                for d in range(1, n + 1))
    assert fixed == orbits * n
