"""Cylinder triangulations versus periodic polygon triangulations.

Folding the cover of C_n modulo 2kn wraps the lift of a k-triangulation
onto the 2kn-gon; the image is a k-triangulation invariant under vertex
rotation by n, and the correspondence is a bijection.  Classes of length
below kn land on orbits of 2k polygon edges, the spanning class on an
orbit of k.

`phi` is integer work on tables built on first use.  Per m: the edges
of the m-gon in sorted order, `polygon.all_edges`, so a set of edges is
a bitmask over their positions and its binary digits, lowest first,
select the sorted tuple; and, up to m = `_ROWS_MAX_M`, their crossing
graph as bitmask rows, `surfaces.crossing_rows`.  Per (n, k): the orbit
mask of every class of length at most kn, and the mask of the edges of
cyclic length above k.  All are exact, being the orbits, lengths and
crossings of the definitions computed once; each is an lru_cache of
`_CACHE_SIZE` entries.  The (k+1)-crossing check is one clique search on
the m-gon's own rows, restricted to the image's long edges (past
`_ROWS_MAX_M`, `has_k_plus_1_crossing` on the image's edges), so it stays
independent of the lift.  The image is a union of rotation orbits, so
`phi` builds it as periodic with no shift check; the public constructor
of `PeriodicPolygonTriangulation` keeps that check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress
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
    crossing_rows,
    cyclic_length,
    cylinder,
    edge_class_of,
    has_clique,
    has_k_plus_1_crossing,
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


def _of_orbits(inner: PolygonTriangulation, period: int) -> PeriodicPolygonTriangulation:
    """`inner`, a union of rotation orbits by `period` of the 2k*period-gon,
    as a periodic triangulation without the constructor's shift check."""
    p = object.__new__(PeriodicPolygonTriangulation)
    object.__setattr__(p, "inner", inner)
    object.__setattr__(p, "period", period)
    return p


class CountReport(NamedTuple):
    stars: int
    relevant: int
    total: int


def orbit_of_class(c: EdgeClass, k: int) -> list[Edge]:
    """The polygon edges the class wraps onto, 2k of them (k if spanning)."""
    return _rotation_orbit(*c.rep, c.n, 2 * k * c.n)


_SELECTORS = bytes.maketrans(b"01", b"\0\1")  # binary digits as `compress` selectors

_polygon_edges = functools.lru_cache(maxsize=_CACHE_SIZE)(all_edges)


# The largest m whose crossing rows `phi` caches.  The rows hold O(m^4)
# bits and take about 5 ms to build at m = 24 (16 ms at 32, 0.3 s at 64),
# so past it `phi` checks its image with `has_k_plus_1_crossing`, on the
# image's own edges, and a short class list naming a large C_n stays cheap.
_ROWS_MAX_M = 24


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _polygon_rows(m: int) -> list[int]:
    """The crossing graph of the m-gon's edges, in `_polygon_edges` order."""
    return crossing_rows(_polygon_edges(m))


def _no_polygon_side(n: int, k: int) -> str | None:
    """Why C_n at order k has no polygon side, or None: only C_1 at k=1
    lacks one, as it would wrap onto a 2-gon."""
    return "C_1 at k=1 wraps onto a 2-gon" if 2 * k * n < 3 else None


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
    among its long ones: a clique search on the m-gon's cached crossing
    rows up to `_ROWS_MAX_M`, `has_k_plus_1_crossing` past it.  C_1 at k=1
    has no polygon side (`_no_polygon_side`): ValueError."""
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
    if reason := _no_polygon_side(n, k):
        raise ValueError(reason)
    orbits, longs = _wrap_table(n, k)
    image = 0
    for c in t.classes:
        image |= orbits[c.rep]
    # The image's binary digits, lowest bit first, select its edges in
    # order, with no per-bit step (as in `surfaces.sorted_unions`).
    edges = _polygon_edges(m)
    digits = format(image, f"0{len(edges)}b")[::-1].encode().translate(_SELECTORS)
    inner = PolygonTriangulation(polygon(m, k), tuple(compress(edges, digits)))
    if (has_clique(_polygon_rows(m), k + 1, within=image & longs) if m <= _ROWS_MAX_M
            else has_k_plus_1_crossing(inner.edges, k, inner.surface)):
        raise StructureViolation(f"image contains a {k + 1}-crossing")
    return _of_orbits(inner, n)


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
