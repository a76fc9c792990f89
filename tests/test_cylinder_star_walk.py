"""The contained-star search against the angle-by-angle window scan.

`oracle_star_of_angle` locates the star of one relevant angle by scanning
every class at every translate of `window_translations` for the edge
crossing the angle closest to its chord.  `oracle_stars_of` runs it on
every relevant angle of `find_angles` and translates each star by
`canonical_star`.  `stars_of` walks the stars on the cover and must return
the same list on every 2-triangulation, `star_of_angle` reads an angle's
star off that list and must give the scan's outcome, and `count_report`
must reach the same verdict with either on sets that are not
triangulations.
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
    cyclically_ordered,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    expected_class_count,
    find_angles,
    find_multi_representative_stars,
    make_star,
    relevant_class_candidates,
    short_classes,
    star_of_angle,
    stars_of,
    window_translations,
)
from multitri import bijection
from multitri.conjectures import check_counts_k
from multitri.cylinder import Angle
from multitri.errors import LengthPrecondition, StructureViolation
from multitri.surfaces import Edge, lift_universe

DATA = Path(__file__).resolve().parent / "data"


def _arc_key(x: int, start: int, stop: int) -> tuple[int, int]:
    """Position of x along the arc from start to stop, possibly through infinity."""
    if start < stop:
        return (0, x)
    return (0, x) if x > start else (1, x)


def oracle_star_of_angle(t: CylinderTriangulation, angle: Angle) -> KStar:
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


def oracle_stars_of(t: CylinderTriangulation) -> list[KStar]:
    """The distinct stars of the lift, up to translation, via their angles."""
    located = [oracle_star_of_angle(t, angle) for angle in _relevant_angles(t)]
    return _distinct_orbits(located, t.surface.n)


def _distinct_orbits(stars, n: int) -> list[KStar]:
    found: dict[tuple[int, ...], KStar] = {}
    for star in stars:
        star = canonical_star(star, n)
        found[tuple(sorted(star.vertices))] = star
    return [found[key] for key in sorted(found)]


def _assert_matches_angle_search(t: CylinderTriangulation):
    """`star_of_angle` gives the scan's star on every relevant angle, and
    `stars_of` the orbits of those stars."""
    angles = _relevant_angles(t)
    located = [oracle_star_of_angle(t, angle) for angle in angles]
    assert [star_of_angle(t, angle) for angle in angles] == located
    assert stars_of(t) == _distinct_orbits(located, t.surface.n)


def _relevant_angles(t: CylinderTriangulation):
    return [angle for angle in find_angles(t) if angle.relevant]


def _located(locate, t: CylinderTriangulation, angle: Angle):
    """The star `locate` finds for the angle, or StructureViolation."""
    try:
        return locate(t, angle)
    except StructureViolation:
        return StructureViolation


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
        _assert_matches_angle_search(t)


def test_walk_matches_angle_search_on_every_49th_triangulation_of_c5(cylinder_k2_triangulations):
    for t in cylinder_k2_triangulations[5][::49]:
        _assert_matches_angle_search(t)


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


@pytest.mark.parametrize("n", [2, 3])
def test_star_of_angle_matches_scan_on_crossing_free_variants(n):
    """The same star, or both raise, on every relevant angle of the variants
    whose lift is crossing-free: 112 angles at C_2 and 4,332 at C_3."""
    universe = lift_universe(n, 2)
    checked = 0
    for t in enumerate_cylinder(cylinder(n, 2)):
        for v in _variants(t):
            probe = _with_classes(t.surface, v)
            if not universe.crossing_free(universe.indices(probe.classes)):
                continue
            for angle in _relevant_angles(probe):
                assert (_located(star_of_angle, probe, angle)
                        == _located(oracle_star_of_angle, probe, angle)), (probe, angle)
                checked += 1
    assert checked == {2: 112, 3: 4332}[n]


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
    walk without the crossing guard closes on two stars here.  The scan finds
    a contained star for four of its relevant angles, and `star_of_angle`
    raises on them like `stars_of`."""
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
    scanned = [angle for angle in _relevant_angles(t)
               if _located(oracle_star_of_angle, t, angle) is not StructureViolation]
    assert len(scanned) == 4
    for angle in scanned:
        with pytest.raises(StructureViolation, match="3-crossing"):
            star_of_angle(t, angle)


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
