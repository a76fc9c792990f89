"""k-triangulations of the convex n-gon.

A k-triangulation is a maximal set of edges containing no k+1 pairwise
crossing members.  Every one of them contains all edges of cyclic length
at most k (those cannot take part in a large crossing).  For n >= 2k+1 it
has exactly k(2n-2k-1) edges and decomposes into n-2k star polygons; below
that every edge is short, and the complete graph is the only one.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import NotInTriangulation, NotRelevant, StructureViolation, TooLarge
from .surfaces import (
    POLYGON,
    CrossingUniverse,
    Edge,
    SurfaceDesc,
    cyclic_length,
    has_k_plus_1_crossing,
    sorted_unions,
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
    edges = tuple(Edge(order[j], order[(j + 1) % m]) for j in range(m))
    return KStar(order, edges)


def short_edges(n: int, k: int) -> set[Edge]:
    return {Edge(v, (v + d) % n) for d in range(1, min(k, n // 2) + 1) for v in range(n)}


def _rotation_orbit(a: int, b: int, shift: int, m: int) -> list[Edge]:
    """The edges of the m-gon that [a, b] rotates onto by the multiples of
    `shift`, sorted."""
    return sorted({Edge((a + d) % m, (b + d) % m) for d in range(0, m, shift)})


def all_edges(n: int) -> list[Edge]:
    return [Edge(a, b) for a in range(n) for b in range(a + 1, n)]


def relevant_candidates(n: int, k: int) -> list[Edge]:
    return sorted(e for e in all_edges(n) if cyclic_length(e, n) > k)


def expected_edge_count(n: int, k: int) -> int:
    return k * (2 * n - 2 * k - 1) if n > 2 * k else n * (n - 1) // 2


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
    edges.  Each result is merged with the short edges on integer ranks
    (`sorted_unions`)."""
    n, k = surface.n, surface.k
    shift = abs(shift)
    orbits = sorted({tuple(_rotation_orbit(*e, shift, n)) for e in relevant_candidates(n, k)})
    index = {orbit: i for i, orbit in enumerate(orbits)}
    # Rotation by d < shift permutes the orbits.
    rotations = [[index[tuple(_rotation_orbit(a + d, b + d, shift, n))] for (a, b), *_ in orbits]
                 for d in range(1, shift)]
    universe = CrossingUniverse(k, orbits, rotations)
    shorts = short_edges(n, k)
    # Polygon purity: every k-triangulation has expected_edge_count edges.
    size = expected_edge_count(n, k) - len(shorts)
    found = sorted_unions(shorts, orbits, universe.maximal_sets(size))
    return [PolygonTriangulation(surface, edges) for edges in found]


def validate_polygon_triangulation(t: PolygonTriangulation):
    """Raise StructureViolation unless t really is a k-triangulation."""
    n, k = t.surface.n, t.surface.k
    edges = _checked_edge_set(t)
    if has_k_plus_1_crossing(edges, k, t.surface):
        raise StructureViolation(f"contains a {k + 1}-crossing")
    # Every maximal (k+1)-crossing-free set has exactly
    # expected_edge_count(n, k) edges, so the count settles maximality.
    _check_edge_count(edges, n, k)


def _checked_edge_set(t: PolygonTriangulation) -> frozenset[Edge]:
    """t's edges as a set; raise StructureViolation unless they are distinct,
    within the n-gon and include every edge of cyclic length at most k."""
    n, k = t.surface.n, t.surface.k
    edges = t.edge_set()
    if len(edges) != len(t.edges):
        raise StructureViolation("duplicate edges")
    for e in t.edges:
        if not 0 <= e.a < e.b < n:
            raise StructureViolation(f"edge {e} out of range for the {n}-gon")
    d = min(k, n // 2)
    present = sum(1 for e in edges if cyclic_length(e, n) <= k)
    shorts = (Edge(a, b) for a in range(n) for b in itertools.chain(
        range(a + 1, min(a + k, n - 1) + 1), range(max(a + k + 1, n - k + a), n)))
    _check_shorts("edges", k, n * d - (n // 2 if 2 * d == n else 0) - present, shorts, edges)
    return edges


def _check_shorts(kind: str, k: int, missing: int, shorts, present) -> None:
    """The one short-edge rule of both surfaces: unless `missing` is 0, raise
    StructureViolation naming the first five of `shorts`, the short edges or
    classes in sorted order, that are not in `present`.  `shorts` is read
    lazily, so the message costs the size of the input, not n*k."""
    if missing:
        first = list(itertools.islice((s for s in shorts if s not in present), 5))
        more = f" and {missing - 5} more" if missing > 5 else ""
        raise StructureViolation(f"{kind} of length <= {k} missing: {first}{more}")


def _check_edge_count(edges: frozenset[Edge], n: int, k: int):
    if len(edges) != expected_edge_count(n, k):
        raise StructureViolation(
            f"{len(edges)} edges, a k-triangulation of the {n}-gon has "
            f"{expected_edge_count(n, k)}")


def star_decomposition(t: PolygonTriangulation) -> list[KStar]:
    """The max(n-2k, 0) stars of t, ordered by their sorted vertex tuples.

    The stars of a k-triangulation are exactly the k-stars whose 2k+1 edges
    all lie in it, and there are n-2k of them (Pilaud-Santos,
    "Multitriangulations as complexes of star polygons").  They are found by
    `_contained_stars`, with the vertex labels as the cyclic order.

    Raises StructureViolation unless the edges of t are distinct, lie in
    the n-gon, include every edge of cyclic length at most k and number
    `expected_edge_count(n, k)`, and when t contains another number of stars.
    """
    n, k = t.surface.n, t.surface.k
    edges = _checked_edge_set(t)
    _check_edge_count(edges, n, k)
    stars = _contained_stars(_neighbour_lists(edges, n), range(n), k)
    expected = max(n - 2 * k, 0)
    if len(stars) != expected:
        raise StructureViolation(f"found {len(stars)} stars, expected {expected}")
    return stars


def _neighbour_lists(edges, n: int) -> list[list[int]]:
    """The neighbours of each vertex of the n-gon in `edges`, in increasing order."""
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    for around in neighbours:
        around.sort()
    return neighbours


def _contained_stars(neighbours, anchors, k: int, through=None) -> list[KStar]:
    """Every k-star z_0 < ... < z_2k with z_0 in `anchors` and all 2k+1
    edges in the graph, ordered by sorted vertices.

    `neighbours[v]` lists the neighbours of v in increasing order.  A
    depth-first search places s_j = z_{kj mod 2k+1} along the neighbours of
    s_{j-1} and keeps the star if s_2k is a neighbour of s_0.  Each s_j
    lies strictly between the placed vertices of the ranks next to its own:
    above s_0 = z_0 for odd j and above s_1 = z_k for even j, and for
    j >= 3 below s_{j-2}, whose rank is one more.

    With `through` the `Edge` [a, b], only the stars having it as an edge
    are kept, and the search is bounded by where such a star can lie.  Every
    edge of a k-star joins the sorted ranks i and i+k, or i and i+k+1, with
    i <= k; so [a, b] is an edge iff a = z_i and b = z_{i+k} or z_{i+k+1}.
    Then z_0 <= a, a <= z_k <= b and z_2k >= b, and the search skips the
    anchors above a, places s_1 = z_k in [a, b] and s_2 = z_2k at b or
    above.  A star outside these bounds lacks [a, b], so dropping it loses
    nothing.  Since z_0 z_k is an edge, also z_0 >= a - L for the longest
    edge L: anchors from there up to a suffice on an unbounded vertex set.
    `anchors` is then a sorted sequence, cut at a by bisection.
    """
    found = []

    def place(s: list[int], closing: set[int]):
        j = len(s)
        if j == 2 * k + 1:
            if s[-1] in closing:
                found.append(tuple(sorted(s)))
            return
        around = neighbours[s[-1]]
        if j >= 3:
            start = bisect_right(around, s[1 - j % 2])
            stop = bisect_left(around, s[j - 2], start)
        elif through is None:
            start, stop = bisect_right(around, s[1 - j % 2]), len(around)
        else:
            # s_1 in [a, b], s_2 >= b; both lie above s_{j-1} = s_0 or s_1,
            # since no vertex neighbours itself.
            start = bisect_left(around, through[j - 1])
            stop = bisect_right(around, through[1]) if j == 1 else len(around)
        for x in around[start:stop]:
            s.append(x)
            place(s, closing)
            s.pop()

    if through is not None:
        anchors = anchors[:bisect_right(anchors, through[0])]
    for z0 in anchors:
        place([z0], set(neighbours[z0]))
    if through is not None:
        a, b = through
        found = [z for z in found if a in z and b in z and z.index(b) - z.index(a) in (k, k + 1)]
    return [make_star(z) for z in sorted(found)]


def _star_angles(s) -> list[tuple[int, int, int]]:
    """(v, u, w) for each vertex v of a star's vertices `s` in star order,
    with (u, v, w) cyclically ordered and u, w the neighbours of v in s."""
    m = len(s)
    angles = []
    for j, v in enumerate(s):
        p, q = s[j - 1], s[(j + 1) % m]
        # Three distinct integers are cyclically ordered iff at most one
        # of the three steps around them descends.
        angles.append((v, p, q) if (p > v) + (v > q) + (q > p) <= 1 else (v, q, p))
    return angles


def _bisects(v: int, far: int, u: int, w: int) -> bool:
    # The edge [v, far] splits the angle (u, v, w) iff far sits in the arc
    # that the angle opens onto: far, u, v, w distinct and cyclically
    # ordered, with at most one descent going around them.
    return far != u and far != w and (far > u) + (u > v) + (v > w) + (w > far) <= 1


def _bisectors(r, s) -> set[Edge]:
    """Every edge splitting an angle of r and an angle of s, two stars'
    vertices in star order (or any rotation of it)."""
    found = set()
    s_angles = _star_angles(s)
    for x, ux, wx in _star_angles(r):
        for y, uy, wy in s_angles:
            if x != y and _bisects(x, y, ux, wx) and _bisects(y, x, uy, wy):
                found.add(Edge(x, y))
    return found


def _sole_bisector(found: set[Edge]) -> Edge:
    if len(found) != 1:
        raise StructureViolation(
            f"expected one common bisector, found {sorted(found)}")
    return found.pop()


def common_bisector(r: KStar, s: KStar, absent: frozenset[Edge]) -> Edge:
    """The unique edge of `absent` splitting an angle of r and an angle of s."""
    return _sole_bisector(_bisectors(r.vertices, s.vertices) & absent)


def polygon_flip(t: PolygonTriangulation, e: Edge) -> tuple[PolygonTriangulation, Edge]:
    """Exchange e for the unique other edge completing t minus e.

    The replacement is the common bisector of the two stars of t that
    contain e, found by the contained-star search bounded to stars
    through e; the flipped set is checked for a (k+1)-crossing.
    """
    n, k = t.surface.n, t.surface.k
    if e not in t:
        raise NotInTriangulation(f"{e} not in the triangulation")
    if cyclic_length(e, n) <= k:
        raise NotRelevant(f"{e} has cyclic length {cyclic_length(e, n)} <= k = {k}")
    edges = _checked_edge_set(t)
    _check_edge_count(edges, n, k)
    holders = _contained_stars(_neighbour_lists(edges, n), range(n), k, e)
    if len(holders) != 2:
        raise StructureViolation(
            f"relevant edge {e} lies in {len(holders)} stars, expected 2")
    f = _sole_bisector(_bisectors(holders[0].vertices, holders[1].vertices) - edges)
    new_edges = tuple(sorted(edges - {e} | {f}))
    if has_k_plus_1_crossing(new_edges, k, t.surface):
        raise StructureViolation(f"flip of {e} to {f} created a crossing")
    return PolygonTriangulation(t.surface, new_edges), f


def is_shift_invariant(t: PolygonTriangulation, shift: int) -> bool:
    return _unshifted(t.edges, shift, t.surface.n) is None


def _unshifted(edges, shift: int, m: int) -> Edge | None:
    """The first of the m-gon's `edges` whose rotation by `shift` is not
    among them, or None."""
    present = set(edges)
    for e in edges:
        a, b = (e[0] + shift) % m, (e[1] + shift) % m
        if ((a, b) if a < b else (b, a)) not in present:
            return e
    return None


def enumerate_shift_invariant(surface: SurfaceDesc, shift: int) -> list[PolygonTriangulation]:
    """All k-triangulations invariant under vertex rotation by `shift`.

    The same search as enumerate_polygon over the far fewer rotation orbits
    of relevant edges, so gons past its budget stay reachable; at shift n it
    is `enumerate_polygon`, budget and all.  Maximality is still checked
    edge by edge.
    """
    if surface.kind != POLYGON:
        raise ValueError("enumerate_shift_invariant needs a polygon surface")
    if shift == 0 or surface.n % shift:
        raise ValueError(f"shift {shift} does not divide {surface.n}")
    if abs(shift) == surface.n:
        return enumerate_polygon(surface)
    return _rotation_invariant(surface, shift)
