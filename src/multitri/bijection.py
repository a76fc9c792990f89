"""Cylinder triangulations versus periodic polygon triangulations.

Folding the cover of C_n modulo 2kn wraps the lift of a k-triangulation
onto the 2kn-gon; the image is a k-triangulation invariant under vertex
rotation by n, and the correspondence is a bijection.  Classes of length
below kn land on orbits of 2k polygon edges, the spanning class on an
orbit of k.

`phi` is integer work on two tables built on first use.  Per m: the
edges of the m-gon in sorted order, `polygon.all_edges`, so a set of
edges is a bitmask over their positions and reading its bits lowest
first gives the sorted tuple.  Per (n, k):
the orbit mask of every class of length at most kn, and the mask of the
edges of cyclic length above k.  Both are exact, being the orbits and
lengths of the definitions computed once; each is an lru_cache of
`_CACHE_SIZE` entries of O(m^2) items.  No crossing rows are cached: the
(k+1)-crossing check builds the crossing graph of the image's own long
edges on every call, so it stays independent of the lift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .cylinder import CylinderTriangulation, expected_class_count, stars_of
from .errors import NotPeriodic, StructureViolation
from .polygon import (
    PolygonTriangulation, _rotation_orbit, _unshifted, all_edges, expected_edge_count)
from .surfaces import (
    _CACHE_SIZE,
    Edge,
    EdgeClass,
    _check_classes,
    _has_crossing,
    bits,
    cyclic_length,
    cylinder,
    edge_class_of,
    polygon,
)


@dataclass(frozen=True)
class PeriodicPolygonTriangulation:
    """A k-triangulation of the 2kn-gon fixed by rotating vertices by n."""

    inner: PolygonTriangulation
    period: int

    def __post_init__(self):
        m, k = self.inner.surface.n, self.inner.surface.k
        if m != 2 * k * self.period:
            raise ValueError(
                f"period {self.period} with k={k} needs a {2 * k * self.period}-gon, got {m}")
        e = _unshifted(self.inner.edges, self.period, m)
        if e is not None:
            raise NotPeriodic(f"edge {e} present but its shift by {self.period} is not")


class CountReport(NamedTuple):
    stars: int
    relevant: int
    total: int


def orbit_of_class(c: EdgeClass, k: int) -> list[Edge]:
    """The polygon edges the class wraps onto, 2k of them (k if spanning)."""
    return _rotation_orbit(*c.rep, c.n, 2 * k * c.n)


_polygon_edges = functools.lru_cache(maxsize=_CACHE_SIZE)(all_edges)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _wrap_table(n: int, k: int) -> tuple[dict[Edge, int], int]:
    """The orbit mask of each class of C_n of length at most kn, keyed by
    its representative, and the mask of the 2kn-gon's edges of cyclic
    length above k."""
    m = 2 * k * n
    position = {e: p for p, e in enumerate(_polygon_edges(m))}
    orbits = {Edge(a, b): sum(1 << position[e] for e in _rotation_orbit(a, b, n, m))
              for a in range(n) for b in range(a + 1, a + k * n + 1)}
    longs = sum(1 << p for e, p in position.items() if cyclic_length(e, m) > k)
    return orbits, longs


def phi(t: CylinderTriangulation) -> PeriodicPolygonTriangulation:
    """Wrap the lift onto the 2kn-gon.

    The class list passes `_check_classes` first: a repeated class, one of
    another period or one longer than kn has no image.  The image is
    checked to have the edge count of a k-triangulation, from the orbit
    sizes before any table is built, and no k+1 pairwise crossing edges
    among its long ones.  C_1 at k=1 would wrap onto a 2-gon: ValueError."""
    n, k = t.surface.n, t.surface.k
    _check_classes(t.classes, n, k)
    m = 2 * k * n
    # Distinct classes wrap onto disjoint orbits of 2k edges (k if spanning),
    # so the image's edge count is known before the tables are built.
    count = k * (2 * len(t.classes) - [c.length for c in t.classes].count(k * n))
    wanted = expected_edge_count(m, k)
    if count != wanted:
        raise StructureViolation(
            f"image has {count} edges, a k-triangulation of the {m}-gon has {wanted}")
    if m < 3:
        raise ValueError("C_1 at k=1 wraps onto a 2-gon")
    orbits, longs = _wrap_table(n, k)
    image = 0
    for c in t.classes:
        image |= orbits[c.rep]
    edges = _polygon_edges(m)
    if _has_crossing([edges[p] for p in bits(image & longs)], k):
        raise StructureViolation(f"image contains a {k + 1}-crossing")
    inner = PolygonTriangulation(polygon(m, k), tuple(edges[p] for p in bits(image)))
    return PeriodicPolygonTriangulation(inner, n)


def class_of_polygon_edge(e: Edge, n: int, k: int) -> EdgeClass:
    """The cylinder class a polygon edge of the 2kn-gon unwraps to.

    A chord shorter than the half-perimeter kn unrolls as it stands; a
    longer one unrolls the other way around.  At exactly kn both ways give
    the same class.
    """
    a, b = e
    if b - a <= k * n:
        return edge_class_of(e, n)
    return edge_class_of(Edge(b, a + 2 * k * n), n)


def phi_inverse(p: PeriodicPolygonTriangulation) -> CylinderTriangulation:
    """Unwrap a periodic polygon triangulation back to classes on C_n."""
    n = p.period
    k = p.inner.surface.k
    classes = sorted({class_of_polygon_edge(e, n, k) for e in p.inner.edges})
    t = CylinderTriangulation(cylinder(n, k), tuple(classes))
    back = phi(t)
    if back.inner.edge_set() != p.inner.edge_set():
        raise StructureViolation("unwrapped class set does not wrap back to the input")
    return t


def _count_law(n: int, k: int) -> CountReport:
    """The counts of every k-triangulation of C_n: n-1 stars, k(n-1)
    relevant classes and k(2n-1) classes in all."""
    return CountReport(n - 1, k * (n - 1), expected_class_count(n, k))


def count_report(t: CylinderTriangulation) -> CountReport:
    """Star, relevant-class and total-class counts, checked against the law."""
    report = CountReport(
        stars=len(stars_of(t)),
        relevant=len(t.relevant_classes()),
        total=len(t.classes),
    )
    expected = _count_law(t.surface.n, t.surface.k)
    if report != expected:
        raise StructureViolation(f"counts {report} do not match {expected}")
    return report
