"""`orbit_flip`'s two backends against the routes they replaced, and the
bounded contained-star search against the unbounded one, filtered.

`oracle_flip_via_stars` searches every star orbit of the lift
(`_cover_stars`) and keeps the translates with an edge of class e, found
by `edge_class_of` on every star edge; `oracle_bisectors` tests each pair
of angles with the generic `cyclically_ordered`.  `oracle_flip_via_chevron`
traces every pipe of the chevron with `trace_pipes` and reads the crossings
of the two pipes through the representative tile off its crossing map.
`oracle_flip_via_polygon` is the route the stars backend replaced before
that: wrap t onto the 2kn-gon with `phi`, flip the class representative
there through every star of the image (`star_decomposition`, as
`polygon_flip` once did) and unwrap the new edge; `test_flip_on_cover`
holds the stars backend to it.  The backends under test search only the
stars through e's representative and follow only the two pipes that bump
at its tile; both must name the same class as their oracle on every
relevant class of C_1..C_4, and of C_5 with stride 7.

The bounded search must find exactly the stars of the unbounded search
that have the required edge, on every relevant edge of the cover graphs of
C_2..C_4 at k=2 and C_3 at k=3, and of the 9-gon at k=2 and the 10-gon at
k=3, with a stride on the larger ones.  The cover graphs here are built from the classes directly, on a
window of anchors wider than the bound's.
"""

from __future__ import annotations

import pytest

from multitri import (
    Edge,
    class_of_polygon_edge,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    enumerate_polygon,
    orbit_of_class,
    phi,
    polygon,
    star_decomposition,
    trace_pipes,
)
from multitri import flips
from multitri.cylinder import _cover_stars
from multitri.errors import StructureViolation
from multitri.pipedreams import (
    _geometry,
    cell_edge,
    chevron_from_staircase,
    staircase_from_triangulation,
)
from multitri.polygon import (
    _bisectors,
    _contained_stars,
    _neighbour_lists,
    _sole_bisector,
    make_star,
)
from multitri.surfaces import cyclically_ordered


def oracle_star_angle_at(star, v):
    j = star.vertices.index(v)
    m = len(star.vertices)
    p, q = star.vertices[j - 1], star.vertices[(j + 1) % m]
    return (p, q) if cyclically_ordered(p, v, q) else (q, p)


def oracle_bisectors(r, s):
    """Every edge splitting an angle of r and an angle of s."""
    found = set()
    for x in r.vertices:
        ux, wx = oracle_star_angle_at(r, x)
        for y in s.vertices:
            if x == y:
                continue
            uy, wy = oracle_star_angle_at(s, y)
            if cyclically_ordered(y, ux, x, wx) and cyclically_ordered(x, uy, y, wy):
                found.add(Edge(x, y))
    return found


def oracle_flip_via_stars(t, e):
    n, k = t.surface.n, t.surface.k
    holders = [[v + e.rep.a - f.a for v in star.vertices]
               for star in _cover_stars(t) for f in star.edges if edge_class_of(f, n) == e]
    if e.is_spanning(k):
        holders += [[v + k * n for v in star] for star in holders]
    if len(holders) != 2:
        raise StructureViolation(f"relevant class {e} lies in {len(holders)} stars, expected 2")
    r, s = (make_star(tuple(sorted(v % (2 * k * n) for v in star))) for star in holders)
    found = {class_of_polygon_edge(f, n, k) for f in oracle_bisectors(r, s)}
    return _sole_bisector(found - t.class_set())


def oracle_polygon_flip(t, e):
    """The replacement edge of e in the polygon triangulation t: the one
    absent common bisector of the two stars of t holding e."""
    holders = [s for s in star_decomposition(t) if e in s.edge_set()]
    if len(holders) != 2:
        raise StructureViolation(f"relevant edge {e} lies in {len(holders)} stars, expected 2")
    (f,) = oracle_bisectors(*holders) - t.edge_set()
    return f


def oracle_flip_via_polygon(t, e):
    return class_of_polygon_edge(oracle_polygon_flip(phi(t).inner, e.rep), t.surface.n, 2)


def oracle_flip_via_chevron(p, e):
    n, k = p.period, p.inner.surface.k
    m = 2 * k * n
    dream = chevron_from_staircase(staircase_from_triangulation(p.inner))
    orbit = set(orbit_of_class(e, k))
    geometry = _geometry(dream)
    cells = sorted(cell for cell, end in zip(geometry.cells, geometry.ends) if end in orbit)
    if not cells:
        raise StructureViolation(f"no chevron tile carries a representative of {e}")
    r, c = cells[0]
    trace = trace_pipes(dream)
    through = {out: i for i, path in enumerate(trace.paths)
               for (pr, pc, out) in path.visited if (pr, pc) == (r, c)}
    pair = tuple(sorted(through.values()))
    if len(pair) != 2 or pair[0] == pair[1]:
        raise StructureViolation(f"tile {(r, c)} is not a bump of two distinct pipes")
    crossing_cells = trace.crossings.get(pair, ())
    if len(crossing_cells) != 1:
        raise StructureViolation(
            f"pipes {pair} cross {len(crossing_cells)} times, expected once")
    return class_of_polygon_edge(cell_edge(*crossing_cells[0], m), n, k)


@pytest.mark.parametrize("n,step", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 7)])
def test_backends_match_their_oracles(n, step, cylinder_k2_triangulations):
    flipped = 0
    for t in cylinder_k2_triangulations[n][::step]:
        present, p = t.class_set(), phi(t)
        for e in t.relevant_classes():
            f = oracle_flip_via_stars(t, e)
            assert flips._flip_via_stars(t, e, present) == f, (t, e)
            assert flips._flip_via_chevron(p, e) == oracle_flip_via_chevron(p, e) == f, (t, e)
            flipped += 1
    assert flipped == {1: 0, 2: 8, 3: 144, 4: 2400, 5: 5600}[n]


def test_bisectors_match_the_generic_test():
    """On every pair of stars of every 5th triangulation of the 9-gon."""
    pairs = 0
    for t in enumerate_polygon(polygon(9, 2))[::5]:
        stars = star_decomposition(t)
        for r in stars:
            for s in stars:
                assert _bisectors(r.vertices, s.vertices) == oracle_bisectors(r, s), (r, s)
                pairs += 1
    assert pairs == 119 * 25


def _filtered(stars, a, b):
    return [star for star in stars if Edge(a, b) in star.edge_set()]


def _cover_graph(classes, n, lo, hi):
    """The sorted lift neighbours of the cover vertices lo..hi-1."""
    neighbours = {v: [] for v in range(lo, hi)}
    for c in classes:
        a, b = c.rep.a, c.rep.b
        for shift in range((lo - b) // n * n, hi - a + n, n):
            if a + shift in neighbours:
                neighbours[a + shift].append(b + shift)
            if b + shift in neighbours:
                neighbours[b + shift].append(a + shift)
    for around in neighbours.values():
        around.sort()
    return neighbours


@pytest.mark.parametrize("n,k,step,count", [(2, 2, 1, 4), (3, 2, 1, 36), (4, 2, 3, 134),
                                            (3, 3, 3, 72)])
def test_bounded_search_on_the_cover(n, k, step, count):
    """On every `step`-th triangulation.  Any two vertices of a star are at
    most k of its edges apart, each of length at most kn, so the anchors
    from -k*kn to n hold every star through an edge with its lower end in
    [0, n)."""
    reach = k * k * n
    searched = 0
    ts = enumerate_cylinder(cylinder(n, k))[::step]
    assert len(ts) == count
    for t in ts:
        graph = _cover_graph(t.classes, n, -reach, n + 2 * reach)
        every = _contained_stars(graph, range(-reach, n), k)
        for e in t.relevant_classes():
            a, b = e.rep.a, e.rep.b
            want = _filtered(every, a, b)
            assert _contained_stars(graph, range(-reach, n), k, (a, b)) == want, (t, e)
            assert _cover_stars(t, e.rep) == want, (t, e)
            searched += 1
    assert searched == count * k * (n - 1)


@pytest.mark.parametrize("n,k,step,count", [(9, 2, 2, 297), (10, 3, 2, 165)])
def test_bounded_search_on_the_polygon(n, k, step, count):
    """On every `step`-th triangulation; each relevant edge lies in exactly
    two stars (Pilaud-Santos)."""
    searched = 0
    ts = enumerate_polygon(polygon(n, k))[::step]
    assert len(ts) == count
    for t in ts:
        graph = _neighbour_lists(t.edge_set(), n)
        every = _contained_stars(graph, range(n), k)
        for e in t.relevant_edges():
            want = _filtered(every, e.a, e.b)
            assert len(want) == 2
            assert _contained_stars(graph, range(n), k, (e.a, e.b)) == want, (t, e)
            searched += 1
    assert searched == count * (k * (2 * n - 2 * k - 1) - n * k)
