"""k-triangulations of the half-cylinder C_n.

A triangulation here is a set of edge classes whose lift to the cover is
maximal (k+1)-crossing-free.  Every such set contains all classes of
length at most k, no class of length above kn, and exactly one of length
kn.  For k=2 the set decomposes into n-1 star polygons, found by the
polygon's contained-star search run on the universal cover.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import LengthPrecondition, StructureViolation, TooLarge
from .polygon import KStar, _check_shorts, _contained_stars, make_star
from .surfaces import (
    CYLINDER,
    Edge,
    EdgeClass,
    SurfaceDesc,
    _check_classes,
    cyclically_ordered,
    edge_class_of,
    is_periodic_crossing_free,
    lift_universe,
    sorted_unions,
    window_translations,
)

ENUMERATION_BUDGET = {1: 6, 2: 5, 3: 3}


@dataclass(frozen=True)
class CylinderTriangulation:
    surface: SurfaceDesc
    classes: tuple[EdgeClass, ...]

    def class_set(self) -> frozenset[EdgeClass]:
        return frozenset(self.classes)

    def relevant_classes(self) -> tuple[EdgeClass, ...]:
        k = self.surface.k
        return tuple(c for c in self.classes if c.is_relevant(k))

    def contains_edge(self, e: Edge) -> bool:
        """Is the cover edge e in the lift?"""
        return edge_class_of(e, self.surface.n) in self.class_set()


@dataclass(frozen=True)
class Angle:
    """Two consecutive lift edges [u,v] and [v,w] at a common apex v.

    The vertices satisfy u < v < w in the cyclic order of the cover (the
    line plus a point at infinity), and no lift edge from v lands strictly
    between w and u on the far side.  `relevant` records whether some side
    has length strictly between k and kn.
    """

    u: int
    v: int
    w: int
    relevant: bool

    def sides(self) -> tuple[Edge, Edge]:
        return Edge(self.u, self.v), Edge(self.v, self.w)

    def __repr__(self):
        return f"<{self.u},{self.v},{self.w}>"


def short_classes(n: int, k: int) -> list[EdgeClass]:
    return [EdgeClass(Edge(a, a + l), n) for l in range(1, k + 1) for a in range(n)]


def relevant_class_candidates(n: int, k: int) -> list[EdgeClass]:
    return [
        EdgeClass(Edge(a, a + l), n)
        for l in range(k + 1, k * n + 1)
        for a in range(n)
    ]


def expected_class_count(n: int, k: int) -> int:
    return k * (2 * n - 1)


def _check_budget(n: int, k: int, max_n: int | None = None) -> None:
    """The cylinder's one size rule: TooLarge for n above `max_n`, by default
    `ENUMERATION_BUDGET[k]`.  For a k outside the table only C_1 is admitted,
    which has no relevant class to search over."""
    limit = max_n if max_n is not None else ENUMERATION_BUDGET.get(k, 1)
    if n > limit:
        raise TooLarge(
            f"cylinder enumeration budget is n <= {limit} for k={k}, got n={n}")


def enumerate_cylinder(surface: SurfaceDesc, max_n: int | None = None) -> list[CylinderTriangulation]:
    """All k-triangulations on C_n, canonically sorted.

    The maximal sets of `CrossingUniverse.maximal_sets` over the k-relevant
    classes of `lift_universe`, each merged with the short classes on
    integer ranks (`sorted_unions`).
    """
    if surface.kind != CYLINDER:
        raise ValueError("enumerate_cylinder needs a cylinder surface")
    n, k = surface.n, surface.k
    _check_budget(n, k, max_n)
    universe, shorts = lift_universe(n, k), short_classes(n, k)
    # Purity of the complex is proved at k=2 only; elsewhere the leaf test
    # decides maximality.
    size = ((expected_class_count(n, k) - len(shorts)) * len(window_translations(k))
            if k == 2 else None)
    found = sorted_unions(shorts, [[c] for c in universe.classes], universe.maximal_sets(size))
    return [CylinderTriangulation(surface, cs) for cs in found]


def validate_cylinder_triangulation(t: CylinderTriangulation):
    """Raise StructureViolation unless t really is a k-triangulation of C_n.
    `_check_classes` runs once, then the short-class count, both before any
    lift universe or list of the n*k short classes is built."""
    n, k = t.surface.n, t.surface.k
    _check_classes(t.classes, n, k)
    present = sum(1 for c in t.classes if c.length <= k)
    shorts = (EdgeClass(Edge(a, a + l), n) for a in range(n) for l in range(1, k + 1))
    _check_shorts("classes", k, n * k - present, shorts, t.class_set())
    report = _maximal_lifting(t)
    if not report["crossing_free"]:
        raise StructureViolation(f"lift contains a {k + 1}-crossing")
    if report["addable"]:
        raise StructureViolation(f"not maximal: class {report['addable'][0]} is addable")


def unique_spanning_class(t: CylinderTriangulation) -> EdgeClass:
    """The one class of length kn."""
    spanning = [c for c in t.classes if c.is_spanning(t.surface.k)]
    if len(spanning) != 1:
        raise StructureViolation(
            f"{len(spanning)} classes of length {t.surface.k * t.surface.n}, expected 1")
    return spanning[0]


def find_angles(t: CylinderTriangulation) -> list[Angle]:
    """All angles of the lift with apex in [0, n), one per translation orbit.

    The fan at an apex v, from `_cover_offsets` of t.classes (so a duplicate
    class raises StructureViolation), runs through the right-hand neighbors
    in increasing order and then the left-hand ones in increasing order; the
    pair closing the fan back on itself spans the cylinder boundary and is
    not an angle.
    """
    n, k = t.surface.n, t.surface.k
    angles = []
    for v, around in enumerate(_cover_offsets(t.classes, n)):
        fan = [v + d for d in around if d > 0] + [v + d for d in around if d < 0]
        for w, u in itertools.pairwise(fan):
            if not cyclically_ordered(u, v, w):
                raise StructureViolation(f"fan neighbors {w}, {u} at {v} out of order")
            lens = (abs(v - u), abs(w - v))
            relevant = any(k < l < k * n for l in lens)
            angles.append(Angle(u, v, w, relevant))
    return angles


def star_of_angle(t: CylinderTriangulation, angle: Angle) -> KStar:
    """The star of the lift having this angle: among the stars through its
    side [u, v], the one with the angle at its apex.

    At k=2 the lift of a triangulation decomposes into stars, so every
    relevant angle lies in exactly one.  Raises StructureViolation where
    `stars_of` does, or when the angle lies in no star or in several.
    """
    n, k = t.surface.n, t.surface.k
    if k != 2:
        raise LengthPrecondition(f"star location is established for k=2 only, got k={k}")
    if not angle.relevant:
        raise LengthPrecondition(
            f"angle {angle} has no side of length strictly between {k} and {k * n}")
    if not is_periodic_crossing_free(t.classes, k, n):
        raise StructureViolation(f"lift contains a {k + 1}-crossing")
    side = angle.sides()[0]
    orbits = {canonical_star(star, n) for star in _cover_stars(t, side)}
    found = _stars_with_angle(orbits, angle, n)
    if len(found) != 1:
        raise StructureViolation(f"angle {angle} lies in {len(found)} stars, expected 1")
    return found[0]


def _stars_with_angle(stars, angle: Angle, n: int) -> list[KStar]:
    """The translates of the star orbits `stars` of C_n that have the apex v
    as a vertex with star neighbours u and w, ordered by sorted vertices."""
    u, v, w = angle.u, angle.v, angle.w
    found = []
    for star in stars:
        s = star.vertices
        for j, x in enumerate(s):
            shift = v - x
            if shift % n == 0 and {s[j - 1] + shift, s[(j + 1) % len(s)] + shift} == {u, w}:
                found.append(make_star(tuple(sorted(y + shift for y in s))))
    return sorted(found, key=lambda star: sorted(star.vertices))


def canonical_star(star: KStar, n: int) -> KStar:
    """Translate the star so its lowest vertex lands in [0, n)."""
    low = min(star.vertices)
    shift = low % n - low
    return make_star(tuple(sorted(x + shift for x in star.vertices)))


def stars_of(t: CylinderTriangulation) -> list[KStar]:
    """The distinct stars of the lift up to translation, each with its lowest
    vertex in [0, n), ordered by sorted vertices.

    At k=2 the lift decomposes into stars, the k-stars whose edges all lie
    in it (this paper's decomposition, the cylinder analogue of
    Pilaud-Santos, "Multitriangulations as complexes of star polygons").
    They are the stars of `_cover_stars`.

    Raises LengthPrecondition for k != 2 once t has a class of length
    strictly between k and kn, then what `_check_classes` raises, and
    StructureViolation on a lift with a (k+1)-crossing.
    """
    n, k = t.surface.n, t.surface.k
    if k != 2 and any(k < c.length < k * n for c in t.classes):
        raise LengthPrecondition(f"star location is established for k=2 only, got k={k}")
    if not is_periodic_crossing_free(t.classes, k, n):
        raise StructureViolation(f"lift contains a {k + 1}-crossing")
    return _cover_stars(t)


def _cover_offsets(classes, n: int) -> list[list[int]]:
    """Per residue r mod n, the sorted signed offsets of the lift edges at a
    vertex congruent to r: class ~[a,b] gives +(b-a) at a and -(b-a) at b.
    StructureViolation on a class of another period."""
    offsets: list[list[int]] = [[] for _ in range(n)]
    for c in classes:
        (a, b), period = c
        if period != n:
            raise StructureViolation(f"class {c} has period {period}, surface has {n}")
        offsets[a].append(b - a)
        offsets[b % n].append(a - b)
    for around in offsets:
        around.sort()
    return offsets


def _cover_stars(t: CylinderTriangulation, through: Edge | None = None) -> list[KStar]:
    """Every k-star of the cover whose edges all lie in the lift, ordered by
    sorted vertices: one per translation orbit, with its lowest vertex in
    [0, n); or, with `through` the cover edge [a, b], every one having it as
    an edge, in absolute coordinates.  The search of `_contained_stars`,
    bounded to that edge over the anchors from a - L to a for the longest
    class length L.  No guard: the search runs at any k."""
    n, k = t.surface.n, t.surface.k
    offsets = _cover_offsets(t.class_set(), n)
    longest = max((around[-1] for around in offsets if around), default=0)
    anchors = range(n) if through is None else range(through.a - longest, through.a + 1)
    # The search looks up neighbours below a star's top vertex z_2k only,
    # which lies two star edges above its anchor z_0.
    neighbours = {v: [v + d for d in offsets[v % n]]
                  for v in range(anchors[0], anchors[-1] + 2 * longest + 1)}
    return _contained_stars(neighbours, anchors, k, through)


def check_maximal_lifting(t: CylinderTriangulation) -> dict:
    """Confirm the lift is crossing-free and every absent class is blocked by
    a crossing; report-valued.

    For a genuine triangulation the addable list comes back empty; otherwise
    it lists the absent classes (shorts first, then in candidate order) that
    keep a crossing-free lift crossing-free, witnessing that t is not maximal.
    """
    _check_classes(t.classes, t.surface.n, t.surface.k)
    return _maximal_lifting(t)


def _maximal_lifting(t: CylinderTriangulation) -> dict:
    """The report of `check_maximal_lifting` on a class list already checked."""
    n, k = t.surface.n, t.surface.k
    classes, universe = t.class_set(), lift_universe(n, k)
    chosen = [universe.index[c] for c in t.classes if c.length > k]
    crossing_free = universe.crossing_free(chosen)
    lift = universe.lift(chosen)
    shorts = [c for c in short_classes(n, k) if c not in classes]
    # The absent relevant classes in candidate order: the universe's (a, b)
    # order sorted stably by length.
    gaps = sorted((i for i, bits in enumerate(universe.translates) if not bits & lift),
                  key=lambda i: universe.classes[i].length)
    # "c is addable iff short or not blocked" needs t's lift crossing-free.
    addable = shorts + [universe.classes[i] for i in gaps
                        if not universe.blocked(i, lift)] if crossing_free else []
    return {
        "n": n,
        "k": k,
        "checked": len(shorts) + len(gaps),
        "crossing_free": crossing_free,
        "addable": addable,
        "violations": list(addable),
        "ok": crossing_free and not addable,
    }
