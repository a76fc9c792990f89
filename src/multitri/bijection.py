"""Cylinder triangulations versus periodic polygon triangulations.

Folding the cover of C_n modulo 2kn wraps the lift of a k-triangulation
onto the 2kn-gon; the image is a k-triangulation invariant under vertex
rotation by n, and the correspondence is a bijection.  Classes of length
below kn land on orbits of 2k polygon edges, the spanning class on an
orbit of k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .cylinder import CylinderTriangulation, stars_of
from .errors import NotPeriodic, StructureViolation
from .polygon import PolygonTriangulation, expected_edge_count
from .surfaces import Edge, EdgeClass, cylinder, edge_class_of, has_k_plus_1_crossing, polygon


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
        edges = self.inner.edge_set()
        for e in self.inner.edges:
            shifted = Edge((e.a + self.period) % m, (e.b + self.period) % m)
            if shifted not in edges:
                raise NotPeriodic(
                    f"edge {e} present but its shift by {self.period} is not")


class CountReport(NamedTuple):
    stars: int
    relevant: int
    total: int


def orbit_of_class(c: EdgeClass, k: int) -> list[Edge]:
    """The polygon edges the class wraps onto, 2k of them (k if spanning)."""
    m = 2 * k * c.n
    edges = {
        Edge((c.rep.a + t * c.n) % m, (c.rep.b + t * c.n) % m)
        for t in range(2 * k)
    }
    return sorted(edges)


def phi(t: CylinderTriangulation) -> PeriodicPolygonTriangulation:
    """Wrap the lift onto the 2kn-gon."""
    n, k = t.surface.n, t.surface.k
    m = 2 * k * n
    edges: set[Edge] = set()
    for c in t.classes:
        edges.update(orbit_of_class(c, k))
    surface = polygon(m, k)
    if len(edges) != expected_edge_count(m, k):
        raise StructureViolation(
            f"image has {len(edges)} edges, a k-triangulation of the {m}-gon "
            f"has {expected_edge_count(m, k)}")
    if has_k_plus_1_crossing(edges, k, surface):
        raise StructureViolation(f"image contains a {k + 1}-crossing")
    inner = PolygonTriangulation(surface, tuple(sorted(edges)))
    return PeriodicPolygonTriangulation(inner, n)


def class_of_polygon_edge(e: Edge, n: int, k: int) -> EdgeClass:
    """The cylinder class a polygon edge of the 2kn-gon unwraps to.

    A chord shorter than the half-perimeter kn unrolls as it stands; a
    longer one unrolls the other way around.  At exactly kn both ways give
    the same class.
    """
    m = 2 * k * n
    d = e.b - e.a
    if d <= k * n:
        return edge_class_of(Edge(e.a, e.b), n)
    return edge_class_of(Edge(e.b, e.a + m), n)


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


def count_report(t: CylinderTriangulation) -> CountReport:
    """Star, relevant-class and total-class counts, checked against the law."""
    n, k = t.surface.n, t.surface.k
    report = CountReport(
        stars=len(stars_of(t)),
        relevant=len(t.relevant_classes()),
        total=len(t.classes),
    )
    expected = CountReport(n - 1, k * (n - 1), k * (2 * n - 1))
    if report != expected:
        raise StructureViolation(f"counts {report} do not match {expected}")
    return report
