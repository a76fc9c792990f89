"""Orbit flips of periodic 2-triangulations and the flip graph.

Removing a relevant class from a maximal periodic family leaves room for
exactly one other class, found here by two independent routes that must
agree.  On the lift, the class representative lies in exactly two stars
and the new class is their one common bisector, the weak-pseudomanifold
step on the complex; only the stars through that representative are
searched.  In the chevron of the periodic polygon image, the two pipes
that bump at a representative tile cross at exactly one tile, which
carries the new class: a flip exchanges the contact of two pseudolines
for their crossing (Pilaud-Pocchiola; Stump).  The chevron's tiles are
read off the image's edges by the label rule of `pipedreams`, with no
pipe dream built, and only those two pipes are followed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .bijection import PeriodicPolygonTriangulation, class_of_polygon_edge, orbit_of_class, phi
from .cylinder import (
    CylinderTriangulation,
    _check_budget,
    _cover_stars,
    enumerate_cylinder,
    stars_of,
)
from .errors import LengthPrecondition, NotInTriangulation, NotRelevant, StructureViolation
from .pipedreams import BUMP, CHEVRON, _bump_crossings, _canonical_geometry, _fill, cell_edge
from .polygon import _bisectors, _sole_bisector, make_star
from .surfaces import EdgeClass, cylinder, edge_class_of, lift_universe


def _flip_via_stars(t: CylinderTriangulation, e: EdgeClass,
                    present: frozenset[EdgeClass]) -> EdgeClass:
    """Flip on the cover: the sole bisector, of a class absent from t (whose
    classes are `present`), of the two stars of the lift holding e's
    representative, wrapped onto the 2kn-gon.  The holders come from the
    star search bounded to that edge.  For a spanning class it finds one;
    the second holder is that star moved by kn, which wraps onto the same
    diameter.  No guard: `orbit_flip` has checked t's lift."""
    n, k = t.surface.n, t.surface.k
    holders = [star.vertices for star in _cover_stars(t, e.rep)]
    if e.is_spanning(k):
        holders += [[v + k * n for v in star] for star in holders]
    if len(holders) != 2:
        raise StructureViolation(f"relevant class {e} lies in {len(holders)} stars, expected 2")
    r, s = (make_star(tuple(sorted(v % (2 * k * n) for v in star))) for star in holders)
    found = {class_of_polygon_edge(f, n, k) for f in _bisectors(r, s)}
    return _sole_bisector(found - present)


def _flip_via_chevron(p: PeriodicPolygonTriangulation, e: EdgeClass) -> EdgeClass:
    """Flip through the chevron: the two pipes that bump at the first tile
    carrying a representative of e cross at exactly one cross tile, which
    carries the new class.  The tiles are read off the image's edges by the
    chevron's label rule, with no pipe dream built, and only those two pipes
    are followed, each from the tile out of both sides of its strand to the
    boundary."""
    n, k = p.period, p.inner.surface.k
    geometry = _canonical_geometry(CHEVRON, 2 * k * n, k)
    kinds = _fill(geometry, p.inner.edge_set())
    orbit = set(orbit_of_class(e, k))
    cells = geometry.cells
    tiles = [i for i, end in enumerate(geometry.ends) if end in orbit]
    if not tiles:
        raise StructureViolation(f"no chevron tile carries a representative of {e}")
    tile = min(tiles, key=cells.__getitem__)
    if kinds[tile] != BUMP:
        raise StructureViolation(f"tile {cells[tile]} carrying {e} is a {kinds[tile]}, not a bump")
    crossings = _bump_crossings(geometry, kinds, tile)
    if len(crossings) != 1:
        raise StructureViolation(
            f"the pipes bumping at {cells[tile]} cross {len(crossings)} times, expected once")
    return class_of_polygon_edge(cell_edge(*cells[crossings.pop()], 2 * k * n), n, k)


def orbit_flip(t: CylinderTriangulation, e: EdgeClass) -> tuple[CylinderTriangulation, EdgeClass]:
    """Replace class e by the unique other class completing T minus e.

    Both backends run on every call and must name the same class: stars
    on the lift of t, the chevron on its periodic polygon image `phi(t)`.
    The rebuilt family has k(2n-1) classes, so by cylinder purity at k=2
    it is a triangulation once its lift is crossing-free, which one
    `blocked` test of the new class against the lift of t minus e decides.
    """
    k = t.surface.k
    if k != 2:
        raise LengthPrecondition(f"orbit flips are defined for k=2, got k={k}")
    present = t.class_set()
    if e not in present:
        raise NotInTriangulation(f"{e} is not a class of this triangulation")
    if not e.is_relevant(k):
        raise NotRelevant(f"{e} has length {e.length} <= k={k}, not flippable")
    p = phi(t)
    # phi(t) has checked t's class list (`_check_classes`) and rejected an
    # image with a (k+1)-crossing, and that covers t's lift: no class is
    # longer than kn, and the edges of a lift (k+1)-crossing interleave as
    # a_0 < ... < a_k < b_0 < ... < b_k, so their endpoints span
    # b_k - a_0 < (b_k - a_k) + (b_0 - a_0) <= 2kn and wrap onto a
    # (k+1)-crossing of the 2kn-gon.
    f_stars = _flip_via_stars(t, e, present)
    f_chevron = _flip_via_chevron(p, e)
    if f_stars != f_chevron:
        raise StructureViolation(
            f"flip backends disagree on {e}: stars give {f_stars}, "
            f"chevron gives {f_chevron}")
    rest = present - {e}
    # The lift of t minus e is crossing-free, being part of t's, so adding
    # f makes a crossing iff one runs through f's representative
    # (`lift_universe`): one `blocked` test decides the new family.  f is
    # canonical, of period n, longer than k (t holds every shorter class)
    # and at most kn long, so it has an index and needs no `_check_classes`.
    universe = lift_universe(t.surface.n, k)
    if universe.blocked(universe.index[f_stars],
                        universe.lift(universe.index[c] for c in rest if c.length > k)):
        raise StructureViolation(f"flip of {e} to {f_stars} created a crossing")
    return CylinderTriangulation(t.surface, tuple(sorted(rest | {f_stars}))), f_stars


@dataclass(frozen=True)
class FlipGraph:
    vertices: tuple[CylinderTriangulation, ...]
    adjacency: tuple[tuple[int, int, EdgeClass], ...]
    degrees: tuple[int, ...]
    component_count: int


def build_flip_graph(n: int) -> FlipGraph:
    """The graph of n-periodic 2-triangulations joined by orbit flips.

    Every enumerated triangulation seeds the closure, so a flip landing
    outside the enumeration is caught rather than silently extending the
    vertex set.  Adjacency entries are directed: (i, j, class removed
    from vertex i).  Component count is reported, never asserted.
    """
    vertices = tuple(enumerate_cylinder(cylinder(n, 2)))
    index = {t.class_set(): i for i, t in enumerate(vertices)}
    adjacency = []
    seen: dict[tuple[int, int], EdgeClass] = {}
    for i, t in enumerate(vertices):
        for e in t.relevant_classes():
            flipped, f = orbit_flip(t, e)
            j = index.get(flipped.class_set())
            if j is None:
                raise StructureViolation(
                    f"flip of {e} leaves the enumerated set at vertex {i}")
            if j == i:
                raise StructureViolation(f"flip of {e} at vertex {i} is a self-loop")
            if (i, j) in seen and seen[i, j] != e:
                raise StructureViolation(
                    f"parallel flip edges between vertices {i} and {j}")
            seen[i, j] = e
            adjacency.append((i, j, e))
    for (i, j) in seen:
        if (j, i) not in seen:
            raise StructureViolation(f"flip edge {i}->{j} has no reverse")
    out_degree = Counter(i for (i, _, _) in adjacency)
    degrees = tuple(out_degree[v] for v in range(len(vertices)))
    component_count = _count_components(len(vertices), seen)
    return FlipGraph(vertices, tuple(sorted(adjacency)), degrees, component_count)


def _count_components(order: int, seen: dict) -> int:
    neighbors: list[set[int]] = [set() for _ in range(order)]
    for (i, j) in seen:
        neighbors[i].add(j)
        neighbors[j].add(i)
    unvisited = set(range(order))
    components = 0
    while unvisited:
        components += 1
        stack = [unvisited.pop()]
        while stack:
            for nxt in neighbors[stack.pop()]:
                if nxt in unvisited:
                    unvisited.remove(nxt)
                    stack.append(nxt)
    return components


def find_multi_representative_stars(max_n: int) -> list[dict]:
    """Scan enumerations for stars holding two translates of one relevant class.

    These exercise the delicate flip case where the removed class meets a
    holder star more than once.  Returns a witness per (n, triangulation,
    star) instance; an empty list for the range scanned means the case
    never arises there and should be reported, not ignored.
    """
    _check_budget(max_n, 2)
    witnesses = []
    for n in range(1, max_n + 1):
        for idx, t in enumerate(enumerate_cylinder(cylinder(n, 2))):
            for star in stars_of(t):
                per_class = Counter(edge_class_of(edge, n) for edge in star.edges)
                repeated = sorted(
                    c for c, count in per_class.items()
                    if count >= 2 and c.is_relevant(2))
                if repeated:
                    witnesses.append({
                        "n": n,
                        "triangulation_index": idx,
                        "star_vertices": list(star.vertices),
                        "repeated_classes": [list(c.rep) for c in repeated],
                    })
    return witnesses


def flip_graph_dot(g: FlipGraph) -> str:
    """DOT text, one undirected edge per flip pair, labeled by the class
    removed from the lower-index endpoint."""
    lines = ["graph flips {"]
    for i in range(len(g.vertices)):
        lines.append(f"  t{i};")
    for (i, j, e) in g.adjacency:
        if i < j:
            lines.append(f'  t{i} -- t{j} [label="{e.rep.a}-{e.rep.b}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def flip_graph_json(g: FlipGraph) -> dict:
    removed = {(i, j): e for (i, j, e) in g.adjacency}
    edges = []
    for (i, j, e) in g.adjacency:
        if i < j:
            back = removed[j, i]
            edges.append({
                "i": i,
                "j": j,
                "removed_i": list(e.rep),
                "removed_j": list(back.rep),
            })
    return {
        "n": g.vertices[0].surface.n if g.vertices else None,
        "k": 2,
        "vertex_count": len(g.vertices),
        "vertices": [
            [list(c.rep) for c in t.classes] for t in g.vertices
        ],
        "edges": edges,
        "degrees": list(g.degrees),
        "component_count": g.component_count,
    }
