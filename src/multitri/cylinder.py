"""k-triangulations of the half-cylinder C_n.

A triangulation here is a set of edge classes whose lift to the cover is
maximal (k+1)-crossing-free.  Every such set contains all classes of
length at most k, no class of length above kn, and exactly one of length
kn.  For k=2 the set decomposes into n-1 star polygons, located one
angle at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import LengthPrecondition, StructureViolation, TooLarge
from .polygon import KStar, make_star
from .surfaces import (
    CYLINDER,
    Edge,
    EdgeClass,
    SurfaceDesc,
    cyclically_ordered,
    edge_class_of,
    lift_universe,
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
        return Edge(*sorted((self.u, self.v))), Edge(*sorted((self.v, self.w)))

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


def enumerate_cylinder(surface: SurfaceDesc, max_n: int | None = None) -> list[CylinderTriangulation]:
    """All k-triangulations on C_n, canonically sorted.

    Backtracking over the k-relevant classes of `lift_universe`, keeping
    the lift of the chosen classes and of the still possible ones as masks.
    """
    if surface.kind != CYLINDER:
        raise ValueError("enumerate_cylinder needs a cylinder surface")
    n, k = surface.n, surface.k
    limit = max_n if max_n is not None else ENUMERATION_BUDGET.get(k, 2)
    if n > limit:
        raise TooLarge(
            f"cylinder enumeration budget is n <= {limit} for k={k}, got n={n}")

    shorts = sorted(short_classes(n, k))
    universe = lift_universe(n, k)
    cands, tmask, blocked = universe.classes, universe.translates, universe.blocked
    results: list[tuple[EdgeClass, ...]] = []

    def rec(i: int, chosen: list[int], lift_mask: int, pot_mask: int):
        if i == len(cands):
            if all(blocked(j, lift_mask) for j in range(len(cands)) if j not in chosen):
                results.append(tuple(sorted(shorts + [cands[j] for j in chosen])))
            return
        if not blocked(i, lift_mask):
            chosen.append(i)
            rec(i + 1, chosen, lift_mask | tmask[i], pot_mask)
            chosen.pop()
        if blocked(i, pot_mask):
            rec(i + 1, chosen, lift_mask, pot_mask & ~tmask[i])

    rec(0, [], 0, universe.lift(range(len(cands))))
    return [CylinderTriangulation(surface, cs) for cs in sorted(results)]


def validate_cylinder_triangulation(t: CylinderTriangulation):
    """Raise StructureViolation unless t really is a k-triangulation of C_n."""
    n, k = t.surface.n, t.surface.k
    classes = t.class_set()
    if len(classes) != len(t.classes):
        raise StructureViolation("duplicate classes")
    for c in classes:
        if c.n != n:
            raise StructureViolation(f"class {c} has period {c.n}, surface has {n}")
        if c.length > k * n:
            raise StructureViolation(f"class {c} longer than kn = {k * n}")
    missing = set(short_classes(n, k)) - classes
    if missing:
        raise StructureViolation(f"classes of length <= {k} missing: {sorted(missing)}")
    report = check_maximal_lifting(t)
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


def find_angles(t: CylinderTriangulation, window: int | None = None) -> list[Angle]:
    """All angles of the lift with apex in [0, n), one per translation orbit.

    The fan of neighbors at an apex v runs through the right-hand ones in
    increasing order and then the left-hand ones in increasing order; the
    pair closing the fan back on itself spans the cylinder boundary and is
    not an angle.
    """
    n, k = t.surface.n, t.surface.k
    if window is None:
        window = 2 * k + 1
    if window < 2 * k + 1:
        raise ValueError(f"window {window} shorter than 2k+1 = {2 * k + 1}")
    angles = []
    for v in range(n):
        rights, lefts = [], []
        for c in t.classes:
            for s in range(-window, window + 1):
                e = c.translate(s)
                if e.a == v:
                    rights.append(e.b)
                elif e.b == v:
                    lefts.append(e.a)
        fan = sorted(rights) + sorted(lefts)
        for w, u in itertools.pairwise(fan):
            if not cyclically_ordered(u, v, w):
                raise StructureViolation(f"fan neighbors {w}, {u} at {v} out of order")
            lens = (abs(v - u), abs(w - v))
            relevant = any(k < l < k * n for l in lens)
            angles.append(Angle(u, v, w, relevant))
    return angles


def _arc_key(x: int, start: int, stop: int) -> tuple[int, int]:
    """Position of x along the arc from start to stop, possibly through infinity."""
    if start < stop:
        return (0, x)
    return (0, x) if x > start else (1, x)


def star_of_angle(t: CylinderTriangulation, angle: Angle) -> KStar:
    """The star of the lift having this angle.

    The star's remaining two vertices a, b are the endpoints of the edge
    crossing the angle closest to the chord from u to w; its existence and
    dominance in both coordinates is guaranteed for relevant angles when
    k=2, and the construction double-checks by verifying all five star
    edges against the lift.
    """
    n, k = t.surface.n, t.surface.k
    if k != 2:
        raise LengthPrecondition(f"star location is established for k=2 only, got k={k}")
    if not angle.relevant:
        raise LengthPrecondition(
            f"angle {angle} has no side of length strictly between {k} and {k * n}")
    u, v, w = angle.u, angle.v, angle.w
    cands = []
    for c in t.classes:
        for s in window_translations(k):
            e = c.translate(s)
            for a, b in ((e.a, e.b), (e.b, e.a)):
                if cyclically_ordered(u, a, v) and cyclically_ordered(v, b, w):
                    cands.append((a, b))
    if not cands:
        raise StructureViolation(f"no edge of the lift crosses angle {angle}")
    best_a = min(_arc_key(a, u, v) for a, b in cands)
    best_b = max(_arc_key(b, v, w) for a, b in cands)
    dominant = [
        (a, b) for a, b in cands
        if _arc_key(a, u, v) == best_a and _arc_key(b, v, w) == best_b
    ]
    if len(dominant) != 1:
        raise StructureViolation(
            f"no single edge is maximal in both directions across {angle}")
    a, b = dominant[0]
    star = make_star(tuple(sorted((u, a, v, b, w))))
    for e in star.edges:
        if not t.contains_edge(e):
            raise StructureViolation(f"star edge {e} of angle {angle} missing from the lift")
    return star


def canonical_star(star: KStar, n: int) -> KStar:
    """Translate the star so its lowest vertex lands in [0, n)."""
    low = min(star.vertices)
    shift = low % n - low
    return make_star(tuple(sorted(x + shift for x in star.vertices)))


def stars_of(t: CylinderTriangulation) -> list[KStar]:
    """The distinct stars of the lift, up to translation, via their angles."""
    n = t.surface.n
    found: dict[tuple[int, ...], KStar] = {}
    for angle in find_angles(t):
        if not angle.relevant:
            continue
        star = canonical_star(star_of_angle(t, angle), n)
        found[tuple(sorted(star.vertices))] = star
    return [found[key] for key in sorted(found)]


def check_maximal_lifting(t: CylinderTriangulation) -> dict:
    """Confirm the lift is crossing-free and every absent class is blocked by
    a crossing; report-valued.

    For a genuine triangulation the addable list comes back empty; otherwise
    it lists the absent classes (shorts first, then in candidate order) that
    keep a crossing-free lift crossing-free, witnessing that t is not maximal.
    """
    n, k = t.surface.n, t.surface.k
    classes = t.class_set()
    universe = lift_universe(n, k)
    chosen = universe.indices(classes)
    crossing_free = universe.crossing_free(chosen)
    lift = universe.lift(chosen)
    absent = [c for c in short_classes(n, k) + relevant_class_candidates(n, k)
              if c not in classes]
    # "c is addable iff short or not blocked" needs t's lift crossing-free.
    addable = [c for c in absent if crossing_free and (
        c.length <= k or not universe.blocked(universe.index[c], lift))]
    return {
        "n": n,
        "k": k,
        "checked": len(absent),
        "crossing_free": crossing_free,
        "addable": addable,
        "violations": list(addable),
        "ok": crossing_free and not addable,
    }
