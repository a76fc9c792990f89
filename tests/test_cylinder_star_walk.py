"""The star walk of `stars_of` against the angle-by-angle search.

`oracle_stars_of` locates the stars one angle at a time: every relevant
angle of `find_angles` gives its star through `star_of_angle`, translated
by `canonical_star`.  `stars_of` walks the stars on the cover and must
return the same list on every 2-triangulation, and `count_report` must
reach the same verdict with either on sets that are not triangulations.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from multitri import (
    CylinderTriangulation,
    KStar,
    canonical_star,
    count_report,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    expected_class_count,
    find_angles,
    find_multi_representative_stars,
    relevant_class_candidates,
    short_classes,
    star_of_angle,
    stars_of,
)
from multitri import bijection
from multitri.conjectures import check_counts_k
from multitri.errors import LengthPrecondition, StructureViolation
from multitri.surfaces import Edge, lift_universe

DATA = Path(__file__).resolve().parent / "data"


def oracle_stars_of(t: CylinderTriangulation) -> list[KStar]:
    """The distinct stars of the lift, up to translation, via their angles."""
    n = t.surface.n
    found: dict[tuple[int, ...], KStar] = {}
    for angle in find_angles(t):
        if not angle.relevant:
            continue
        star = canonical_star(star_of_angle(t, angle), n)
        found[tuple(sorted(star.vertices))] = star
    return [found[key] for key in sorted(found)]


def _verdict(t: CylinderTriangulation):
    try:
        return count_report(t)
    except StructureViolation:
        return StructureViolation


def _variants(t: CylinderTriangulation):
    """Every one-class deletion, one-class addition and single swap of a
    relevant class for an absent one."""
    classes = t.class_set()
    absent = [c for c in relevant_class_candidates(t.surface.n, 2) if c not in classes]
    for c in t.classes:
        yield classes - {c}
    for d in absent:
        yield classes | {d}
    for c in t.relevant_classes():
        for d in absent:
            yield classes - {c} | {d}


def _with_classes(surface, classes) -> CylinderTriangulation:
    return CylinderTriangulation(surface, tuple(sorted(classes)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_matches_angle_search_on_every_triangulation(n):
    for t in enumerate_cylinder(cylinder(n, 2)):
        assert stars_of(t) == oracle_stars_of(t)


def test_walk_matches_angle_search_on_every_49th_triangulation_of_c5(cylinder_k2_triangulations):
    for t in cylinder_k2_triangulations[5][::49]:
        assert stars_of(t) == oracle_stars_of(t)


@pytest.mark.parametrize("n", [2, 3])
def test_count_report_verdicts_unchanged_on_variants(n, monkeypatch):
    """Without its crossing guard the walk passed 168 of the 1,152 swaps of
    C_3 (45 distinct class sets) that the angle search rejects."""
    triangulations = enumerate_cylinder(cylinder(n, 2))
    probes = [_with_classes(t.surface, v) for t in triangulations for v in _variants(t)]
    walked = [_verdict(p) for p in probes]
    monkeypatch.setattr(bijection, "stars_of", oracle_stars_of)
    assert walked == [_verdict(p) for p in probes]
    absent = 2 * (n - 1) ** 2  # relevant candidates less the relevant classes
    per_t = expected_class_count(n, 2) + absent + 2 * (n - 1) * absent
    assert len(probes) == len(triangulations) * per_t


@pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (2, 3), (3, 3)])
def test_length_precondition_off_k2(n, k):
    for t in enumerate_cylinder(cylinder(n, k)):
        with pytest.raises(LengthPrecondition):
            stars_of(t)


@pytest.mark.parametrize("n,k", [(1, 1), (1, 3)])
def test_no_stars_without_relevant_classes(n, k):
    for t in enumerate_cylinder(cylinder(n, k)):
        assert stars_of(t) == []


def test_c2_at_k1_walks_its_triangle():
    """At k=1 on C_2 no class is strictly between k and kn, so the walk
    runs: each triangulation has its one triangle, and `count_report`
    meets the law (1, 1, 3).  The angle search found no relevant angle
    there and returned no star."""
    for t in enumerate_cylinder(cylinder(2, 1)):
        (star,) = stars_of(t)
        assert len(star.vertices) == 3 and all(t.contains_edge(e) for e in star.edges)
        assert oracle_stars_of(t) == []
        assert tuple(count_report(t)) == (1, 1, 3)


def test_crossing_lift_raises_structure_violation():
    """A swap of C_3 with k(2n-1) classes whose lift has a 3-crossing; the
    walk without the crossing guard closes on two stars here."""
    relevant = [(0, 3), (0, 5), (0, 6), (1, 4)]
    classes = short_classes(3, 2) + [edge_class_of(Edge(a, b), 3) for a, b in relevant]
    t = _with_classes(cylinder(3, 2), classes)
    assert len(t.classes) == expected_class_count(3, 2)
    universe = lift_universe(3, 2)
    assert not universe.crossing_free(universe.indices(t.classes))
    with pytest.raises(StructureViolation, match="3-crossing"):
        stars_of(t)
    with pytest.raises(StructureViolation, match="missing from the lift"):
        oracle_stars_of(t)


def test_duplicate_class_raises_structure_violation():
    t = enumerate_cylinder(cylinder(3, 2))[0]
    relevant = t.relevant_classes()
    probe = CylinderTriangulation(
        t.surface, tuple(c for c in t.classes if c != relevant[1]) + relevant[:1])
    assert len(probe.classes) == expected_class_count(3, 2)
    with pytest.raises(StructureViolation, match="duplicate"):
        stars_of(probe)


def test_multi_representative_stars_frozen():
    """Output of the angle search, frozen."""
    frozen = json.loads((DATA / "multi_representative_stars_4.json").read_text())
    assert find_multi_representative_stars(4) == frozen


@pytest.mark.parametrize("n,frozen", [
    (2, {"check": "counts", "n": 2, "k": 2, "triangulations": 4,
         "expected": [1, 2, 6], "holds": True, "mismatches": []}),
    (4, {"check": "counts", "n": 4, "k": 2, "triangulations": 400,
         "expected": [3, 6, 14], "holds": True, "mismatches": []}),
])
def test_check_counts_frozen(n, frozen):
    assert json.loads(json.dumps(check_counts_k(n, 2))) == frozen
