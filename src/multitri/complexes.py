"""The simplicial complex of relevant classes on the half-cylinder.

Facets are the relevant-class sets of the enumerated triangulations;
every lower face is crossing-free by inheritance, so purity and the
weak-pseudomanifold property only need facets and ridges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cylinder import enumerate_cylinder
from .surfaces import cylinder


@dataclass(frozen=True)
class ComplexReport:
    """Dimension here means facet cardinality, following the source
    convention of counting relevant classes rather than cardinality
    minus one."""

    n: int
    k: int
    facet_count: int
    facet_dimension: int
    is_pure: bool
    ridge_link_histogram: dict
    is_weak_pseudomanifold: bool


def analyze_complex(n: int, k: int) -> ComplexReport:
    """Facet census of the complex whose faces are crossing-free relevant-class sets.

    The ridge histogram maps containing-facet counts to the number of
    ridges with that count; incidences are gathered facet by facet, which
    counts containment exactly when the complex is pure.
    """
    triangulations = enumerate_cylinder(cylinder(n, k))
    facets = [frozenset(t.relevant_classes()) for t in triangulations]
    cardinalities = {len(f) for f in facets}
    is_pure = len(cardinalities) <= 1
    ridge_parents = Counter(facet - {v} for facet in facets for v in facet)
    histogram = dict(Counter(ridge_parents.values()))
    return ComplexReport(
        n=n,
        k=k,
        facet_count=len(facets),
        facet_dimension=max(cardinalities, default=0),
        is_pure=is_pure,
        ridge_link_histogram=histogram,
        is_weak_pseudomanifold=set(histogram) == {2} or not ridge_parents,
    )


def complex_report_json(report: ComplexReport) -> dict:
    return {
        "n": report.n,
        "k": report.k,
        "facet_count": report.facet_count,
        "facet_dimension": report.facet_dimension,
        "dimension_convention": "facet cardinality (relevant-class count)",
        "is_pure": report.is_pure,
        "ridge_link_histogram": {
            str(count): mult for count, mult in sorted(report.ridge_link_histogram.items())
        },
        "is_weak_pseudomanifold": report.is_weak_pseudomanifold,
    }
