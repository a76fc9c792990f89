"""Half-cylinder triangulations: classes, enumeration, angles and stars."""

from __future__ import annotations

import re

import pytest

from multitri import (
    CylinderTriangulation,
    Edge,
    EdgeClass,
    TooLarge,
    canonical_star,
    check_maximal_lifting,
    count_report,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    expected_class_count,
    find_angles,
    orbit_flip,
    polygon,
    relevant_class_candidates,
    short_classes,
    star_of_angle,
    stars_containing_angle,
    stars_of,
    unique_spanning_class,
    validate_cylinder_triangulation,
)
from multitri.cylinder import Angle
from multitri.errors import LengthPrecondition, StructureViolation

from conftest import CYLINDER_COUNTS_K2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_counts(n):
    ts = enumerate_cylinder(cylinder(n, 2))
    assert len(ts) == CYLINDER_COUNTS_K2[n]
    assert len({t.classes for t in ts}) == len(ts)


def test_enumeration_budget():
    with pytest.raises(TooLarge):
        enumerate_cylinder(cylinder(6, 2))
    with pytest.raises(TooLarge):
        enumerate_cylinder(cylinder(3, 2), max_n=2)


def test_class_census():
    n, k = 3, 2
    shorts = short_classes(n, k)
    cands = relevant_class_candidates(n, k)
    assert len(shorts) == k * n
    assert len(cands) == (k * n - k) * n  # lengths k+1..kn, n reps each
    assert expected_class_count(n, k) == k * (2 * n - 1)


def test_every_triangulation_valid_with_expected_count():
    for n in (1, 2, 3):
        want = expected_class_count(n, 2)
        for t in enumerate_cylinder(cylinder(n, 2)):
            validate_cylinder_triangulation(t)
            assert len(t.classes) == want
            assert len(t.relevant_classes()) == 2 * (n - 1)


def test_unique_spanning_class():
    for n in (1, 2, 3):
        for t in enumerate_cylinder(cylinder(n, 2)):
            span = unique_spanning_class(t)
            assert span.length == 2 * n
            others = [c for c in t.classes if c.length == 2 * n]
            assert others == [span]


def test_contains_edge_respects_translation(t_left):
    assert t_left.contains_edge(Edge(1, 6))
    assert t_left.contains_edge(Edge(-2, 3))
    assert t_left.contains_edge(Edge(4, 9))
    assert not t_left.contains_edge(Edge(2, 7))


def test_angle_census(t_left):
    angles = find_angles(t_left)
    assert len(angles) == 17
    relevant = [a for a in angles if a.relevant]
    assert len(relevant) == 9
    # apexes live in one fundamental window
    assert {a.v for a in relevant} == {0, 1}


def test_angle_sides_are_lift_edges(t_left):
    for a in find_angles(t_left):
        for side in a.sides():
            assert t_left.contains_edge(side)


# Verified by hand from the C_3 flip example: each relevant angle resolves
# to one of the two stars, written here by their canonical visiting order.
STAR_A = (1, 4, 9, 3, 6)
STAR_B = (0, 2, 4, 1, 3)
ANGLE_TO_STAR = {
    (3, 0, 2): STAR_B,
    (6, 0, 3): STAR_A,
    (-5, 0, -6): STAR_A,
    (-3, 0, -5): STAR_A,
    (-2, 0, -3): STAR_B,
    (4, 1, 3): STAR_B,
    (6, 1, 4): STAR_A,
    (-2, 1, 6): STAR_A,
    (-1, 1, -2): STAR_B,
}


def test_star_of_angle_resolves_known_stars(t_left):
    seen = {}
    for a in find_angles(t_left):
        if not a.relevant:
            continue
        star = star_of_angle(t_left, a)
        canon = canonical_star(star, 3)
        seen[(a.u, a.v, a.w)] = canon.vertices
        # the angle's apex and far vertices belong to the star found
        assert a.v in star.vertex_set
        assert {a.u, a.w} <= star.vertex_set
    assert seen == ANGLE_TO_STAR


def test_star_of_angle_rejects_irrelevant(t_left):
    bland = next(a for a in find_angles(t_left) if not a.relevant)
    with pytest.raises(LengthPrecondition):
        star_of_angle(t_left, bland)


@pytest.mark.parametrize("other", [(2, 5), (1, 4)])
def test_class_of_another_period_raises_structure_violation(other):
    """The per-residue table and the lift universe reject a class of period
    3 on C_2 with one message, whether its representative starts past the
    table (~[2,5]) or inside it (~[1,4]).  `orbit_flip` rejects the same
    input already in `phi`, on its edge count."""
    c = EdgeClass(Edge(*other), 3)
    t = CylinderTriangulation(cylinder(2, 2), (edge_class_of(Edge(0, 1), 2), c))
    message = re.escape(f"class {c} has period 3, surface has 2")
    angle = Angle(-3, 0, 1, True)
    for call in (find_angles, stars_of, count_report, validate_cylinder_triangulation,
                 lambda t: stars_containing_angle(t, angle),
                 lambda t: star_of_angle(t, angle)):
        with pytest.raises(StructureViolation, match=message):
            call(t)
    with pytest.raises(StructureViolation):
        orbit_flip(t, c)


def test_stars_of_counts():
    for n in (1, 2, 3):
        for t in enumerate_cylinder(cylinder(n, 2)):
            stars = stars_of(t)
            assert len(stars) == n - 1
            for s in stars:
                assert all(t.contains_edge(e) for e in s.edges)


def test_stars_of_t_left(t_left):
    stars = stars_of(t_left)
    assert sorted(s.vertices for s in stars) == sorted([STAR_A, STAR_B])


def test_star_edges_include_spanning_translate(t_left):
    (a_star,) = [s for s in stars_of(t_left) if s.vertices == STAR_A]
    assert Edge(3, 9) in a_star.edge_set()


def test_maximal_lifting_clean():
    for n in (1, 2, 3):
        for t in enumerate_cylinder(cylinder(n, 2)):
            rep = check_maximal_lifting(t)
            assert rep["ok"]
            assert rep["addable"] == []
            assert rep["violations"] == []


def test_maximal_lifting_flags_incomplete(t_left):
    from multitri import CylinderTriangulation

    pruned = tuple(c for c in t_left.classes if (c.rep.a, c.rep.b) != (1, 4))
    rep = check_maximal_lifting(CylinderTriangulation(t_left.surface, pruned))
    assert not rep["ok"]
    assert (1, 4) in {(c.rep.a, c.rep.b) for c in rep["addable"]}


def test_missing_class_message_is_bounded():
    t = CylinderTriangulation(cylinder(2000, 1), ())
    with pytest.raises(StructureViolation, match="missing: .* and 1995 more") as info:
        validate_cylinder_triangulation(t)
    assert len(str(info.value)) < 1024


def test_enumerate_cylinder_refuses_a_polygon():
    with pytest.raises(ValueError, match="^enumerate_cylinder needs a cylinder surface$"):
        enumerate_cylinder(polygon(6, 2))


def test_unique_spanning_class_needs_exactly_one():
    t = enumerate_cylinder(cylinder(3, 2))[0]
    span = unique_spanning_class(t)
    without = tuple(c for c in t.classes if c != span)
    second = EdgeClass(Edge(span.rep.a + 1, span.rep.b + 1), 3)
    for classes, count in [(without, 0), (t.classes + (second,), 2)]:
        with pytest.raises(StructureViolation, match=f"^{count} classes of length 6, expected 1$"):
            unique_spanning_class(CylinderTriangulation(t.surface, classes))


@pytest.mark.parametrize("k", [1, 3])
def test_star_of_angle_is_established_at_k2_only(k):
    t = enumerate_cylinder(cylinder(3, k))[0]
    angle = next(a for a in find_angles(t) if a.relevant)
    message = f"^star location is established for k=2 only, got k={k}$"
    with pytest.raises(LengthPrecondition, match=message):
        star_of_angle(t, angle)
