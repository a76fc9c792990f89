"""The correspondence between cylinder triangulations and periodic
polygon triangulations of the 2kn-gon."""

from __future__ import annotations

import ast

import pytest

from multitri import (
    CylinderTriangulation,
    Edge,
    NotPeriodic,
    check_counts_k,
    class_of_polygon_edge,
    count_report,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    is_periodic_crossing_free,
    orbit_of_class,
    phi,
    phi_inverse,
    relevant_class_candidates,
    validate_cylinder_triangulation,
)
from multitri.bijection import PeriodicPolygonTriangulation
from multitri.cli import main

from conftest import make_polygon_triangulation


def test_orbit_of_class_translates():
    c = edge_class_of(Edge(1, 4), 3)
    orbit = orbit_of_class(c, 2)
    assert sorted((e.a, e.b) for e in orbit) == [(1, 4), (1, 10), (4, 7), (7, 10)]
    assert all(class_of_polygon_edge(e, 3, 2) == c for e in orbit)


def test_phi_of_worked_triangulation(worked_c3, worked_12gon):
    image = phi(worked_c3)
    assert image.period == 3
    assert image.inner.edge_set() == worked_12gon.edge_set()


def test_phi_inverse_roundtrip(worked_c3):
    back = phi_inverse(phi(worked_c3))
    assert back.class_set() == worked_c3.class_set()


def test_class_of_polygon_edge_wraps():
    c = class_of_polygon_edge(Edge(5, 10), 3, 2)
    assert (c.rep.a, c.rep.b) == (2, 7)
    # short cyclic gap measured the short way around
    c2 = class_of_polygon_edge(Edge(0, 11), 3, 2)
    assert c2.length == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_is_bijective(n, shift3_invariant):
    ts = enumerate_cylinder(cylinder(n, 2))
    images = {phi(t).inner.edge_set() for t in ts}
    assert len(images) == len(ts)
    if n == 3:
        assert images == {t.edge_set() for t in shift3_invariant}
    for t in ts:
        back = phi_inverse(phi(t))
        assert back.class_set() == t.class_set()
        validate_cylinder_triangulation(back)


def test_phi_inverse_rejects_aperiodic():
    from multitri import polygon_flip

    base = make_polygon_triangulation(
        12, 2,
        [(1, 4), (4, 7), (7, 10), (1, 10),
         (0, 4), (3, 7), (6, 10), (1, 9),
         (4, 11), (5, 10), (1, 8), (2, 7),
         (4, 10), (1, 7)],
    )
    broken, _ = polygon_flip(base, Edge(0, 4))
    with pytest.raises(NotPeriodic):
        PeriodicPolygonTriangulation(broken, 3)


def test_count_report_worked_example(worked_c3):
    rep = count_report(worked_c3)
    assert (rep.stars, rep.relevant, rep.total) == (2, 4, 10)


def test_count_report_all_small():
    for n in (1, 2, 3):
        for t in enumerate_cylinder(cylinder(n, 2)):
            rep = count_report(t)
            assert (rep.stars, rep.relevant, rep.total) == (
                n - 1, 2 * (n - 1), 2 * (2 * n - 1))


def test_count_report_n5_by_greedy_completion():
    # one C_5 instance built greedily, without the full enumeration
    n, k = 5, 2
    classes = list(__import__("multitri").short_classes(n, k))
    for cand in relevant_class_candidates(n, k):
        if is_periodic_crossing_free(classes + [cand], k, n):
            classes.append(cand)
    t = CylinderTriangulation(cylinder(n, k), tuple(sorted(classes)))
    validate_cylinder_triangulation(t)
    rep = count_report(t)
    assert (rep.stars, rep.relevant, rep.total) == (4, 8, 18)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_count_law_agrees_across_cli_lab_and_report(capsys, n):
    assert main(["verify", "--suite", "counts", "--n", str(n), "--k", "2"]) == 0
    printed = ast.literal_eval(capsys.readouterr().out.splitlines()[0].split(" = ")[1])
    assert tuple(check_counts_k(n, 2)["expected"]) == printed
    assert {tuple(count_report(t)) for t in enumerate_cylinder(cylinder(n, 2))} == {printed}


def test_periodic_polygon_needs_the_2k_period_gon(worked_12gon):
    with pytest.raises(ValueError, match="^period 2 with k=2 needs a 8-gon, got 12$"):
        PeriodicPolygonTriangulation(worked_12gon, 2)
