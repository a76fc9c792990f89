"""k-triangulations of the convex n-gon.

A k-triangulation is a maximal set of edges containing no k+1 pairwise
crossing members.  Every one of them contains all edges of cyclic length
at most k (those cannot take part in a large crossing), has exactly
k(2n-2k-1) edges, and decomposes into n-2k star polygons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotInTriangulation, NotRelevant, StructureViolation, TooLarge
from .surfaces import (
    POLYGON,
    CrossingUniverse,
    Edge,
    SurfaceDesc,
    bits,
    cyclic_length,
    cyclically_ordered,
    has_k_plus_1_crossing,
)

# Largest n per k the backtracking search will accept by default.
ENUMERATION_BUDGET = {1: 12, 2: 10, 3: 12}


@dataclass(frozen=True)
class PolygonTriangulation:
    surface: SurfaceDesc
    edges: tuple[Edge, ...]

    def __contains__(self, e: Edge) -> bool:
        return e in set(self.edges)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def relevant_edges(self) -> tuple[Edge, ...]:
        k, n = self.surface.k, self.surface.n
        return tuple(e for e in self.edges if cyclic_length(e, n) > k)


@dataclass(frozen=True)
class KStar:
    """2k+1 vertices in star order with the 2k+1 edges wrapping around them.

    vertices[j] is s_j; with the same points sorted in cyclic order as
    z_0 .. z_2k, star order means s_j = z_{kj mod 2k+1}.  Consecutive
    s_j, s_{j+1} are the star's edges, each of vertex-index span k.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


def make_star(sorted_vertices: tuple[int, ...]) -> KStar:
    """Build the star on cyclically ordered vertices z_0 < ... < z_2k."""
    z = sorted_vertices
    m = len(z)
    k = (m - 1) // 2
    order = tuple(z[(k * j) % m] for j in range(m))
    edges = tuple(Edge(*sorted((order[j], order[(j + 1) % m]))) for j in range(m))
    return KStar(order, edges)


def short_edges(n: int, k: int) -> set[Edge]:
    return {e for e in all_edges(n) if cyclic_length(e, n) <= k}


def all_edges(n: int) -> list[Edge]:
    return [Edge(a, b) for a in range(n) for b in range(a + 1, n)]


def relevant_candidates(n: int, k: int) -> list[Edge]:
    return sorted(e for e in all_edges(n) if cyclic_length(e, n) > k)


def expected_edge_count(n: int, k: int) -> int:
    return k * (2 * n - 2 * k - 1)


def enumerate_polygon(surface: SurfaceDesc, max_n: int | None = None) -> list[PolygonTriangulation]:
    """All k-triangulations of the n-gon, canonically sorted, no duplicates.

    The maximal sets of `CrossingUniverse.maximal_sets` over the single
    k-relevant edges.
    """
    if surface.kind != POLYGON:
        raise ValueError("enumerate_polygon needs a polygon surface")
    n, k = surface.n, surface.k
    limit = max_n if max_n is not None else ENUMERATION_BUDGET.get(k, 2 * k + 1)
    if n > limit:
        raise TooLarge(
            f"polygon enumeration budget is n <= {limit} for k={k}, got n={n}")
    return _rotation_invariant(surface, n)


def _rotation_invariant(surface: SurfaceDesc, shift: int) -> list[PolygonTriangulation]:
    """The k-triangulations invariant under rotation by `shift`, a divisor of
    n, found over the orbits of the k-relevant edges; shift n gives single
    edges."""
    n, k = surface.n, surface.k

    def orbit(e: Edge) -> tuple[Edge, ...]:
        return tuple(sorted({Edge((e.a + d) % n, (e.b + d) % n)
                             for d in range(0, n, abs(shift))}))

    orbits = sorted({orbit(e) for e in relevant_candidates(n, k)})
    universe = CrossingUniverse(k, orbits, own_blocks=False)
    shorts = sorted(short_edges(n, k))
    found = [tuple(sorted(shorts + [universe.edges[p] for p in bits(universe.lift(bits(picked)))]))
             for picked in universe.maximal_sets()]
    return [PolygonTriangulation(surface, edges) for edges in sorted(found)]


def validate_polygon_triangulation(t: PolygonTriangulation):
    """Raise StructureViolation unless t really is a k-triangulation."""
    n, k = t.surface.n, t.surface.k
    edges = t.edge_set()
    if len(edges) != len(t.edges):
        raise StructureViolation("duplicate edges")
    for e in t.edges:
        if not 0 <= e.a < e.b < n:
            raise StructureViolation(f"edge {e} out of range for the {n}-gon")
    missing = short_edges(n, k) - edges
    if missing:
        raise StructureViolation(f"edges of length <= {k} missing: {sorted(missing)}")
    if has_k_plus_1_crossing(edges, k, t.surface):
        raise StructureViolation(f"contains a {k + 1}-crossing")
    # Every maximal (k+1)-crossing-free set has exactly k(2n-2k-1) edges, so
    # the count settles maximality.
    if len(edges) != expected_edge_count(n, k):
        raise StructureViolation(
            f"{len(edges)} edges, a k-triangulation of the {n}-gon has "
            f"{expected_edge_count(n, k)}")


def star_decomposition(t: PolygonTriangulation) -> list[KStar]:
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


def _star_angle_at(star: KStar, v: int) -> tuple[int, int]:
    """The star's angle at vertex v, as (u, w) with (u, v, w) cyclically ordered."""
    j = star.vertices.index(v)
    m = len(star.vertices)
    p, q = star.vertices[j - 1], star.vertices[(j + 1) % m]
    return (p, q) if cyclically_ordered(p, v, q) else (q, p)


def _bisects(v: int, far: int, u: int, w: int) -> bool:
    # The edge [v, far] splits the angle (u, v, w) iff far sits in the arc
    # that the angle opens onto.
    return cyclically_ordered(far, u, v, w)


def common_bisector(r: KStar, s: KStar, absent: frozenset[Edge]) -> Edge:
    """The unique edge splitting an angle of r and an angle of s."""
    found = set()
    for x in r.vertices:
        ux, wx = _star_angle_at(r, x)
        for y in s.vertices:
            if x == y:
                continue
            uy, wy = _star_angle_at(s, y)
            if _bisects(x, y, ux, wx) and _bisects(y, x, uy, wy):
                found.add(Edge(*sorted((x, y))))
    found &= absent
    if len(found) != 1:
        raise StructureViolation(
            f"expected one common bisector, found {sorted(found)}")
    return found.pop()


def polygon_flip(t: PolygonTriangulation, e: Edge) -> tuple[PolygonTriangulation, Edge]:
    """Exchange e for the unique other edge completing t minus e.

    The replacement is the common bisector of the two stars of t that
    contain e.
    """
    n, k = t.surface.n, t.surface.k
    if e not in t.edge_set():
        raise NotInTriangulation(f"{e} not in the triangulation")
    if cyclic_length(e, n) <= k:
        raise NotRelevant(f"{e} has cyclic length {cyclic_length(e, n)} <= k = {k}")
    holders = [s for s in star_decomposition(t) if e in s.edge_set()]
    if len(holders) != 2:
        raise StructureViolation(
            f"relevant edge {e} lies in {len(holders)} stars, expected 2")
    absent = frozenset(all_edges(n)) - t.edge_set()
    f = common_bisector(holders[0], holders[1], absent)
    new_edges = tuple(sorted(t.edge_set() - {e} | {f}))
    flipped = PolygonTriangulation(t.surface, new_edges)
    if has_k_plus_1_crossing(new_edges, k, t.surface):
        raise StructureViolation(f"flip of {e} to {f} created a crossing")
    return flipped, f


def is_shift_invariant(t: PolygonTriangulation, shift: int) -> bool:
    edges = t.edge_set()
    return all(
        Edge(*sorted(((e.a + shift) % t.surface.n, (e.b + shift) % t.surface.n))) in edges
        for e in t.edges)


def enumerate_shift_invariant(surface: SurfaceDesc, shift: int) -> list[PolygonTriangulation]:
    """All k-triangulations invariant under vertex rotation by `shift`.

    The same search as enumerate_polygon, over whole rotation orbits of
    relevant edges; there are far fewer of them, which keeps gons of size
    beyond the plain enumeration budget reachable.  Maximality is still
    checked against single absent edges.
    """
    if surface.kind != POLYGON:
        raise ValueError("enumerate_shift_invariant needs a polygon surface")
    if shift == 0 or surface.n % shift:
        raise ValueError(f"shift {shift} does not divide {surface.n}")
    return _rotation_invariant(surface, shift)
