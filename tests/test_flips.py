"""Orbit flips, the flip graph, and multi-representative stars."""

from __future__ import annotations

import pytest

from multitri import (
    CylinderTriangulation,
    Edge,
    TooLarge,
    build_flip_graph,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    find_multi_representative_stars,
    flip_graph_dot,
    flip_graph_json,
    is_periodic_crossing_free,
    orbit_flip,
    relevant_class_candidates,
    validate_cylinder_triangulation,
)
from multitri.errors import (
    EdgeTooLong,
    LengthPrecondition,
    NotInTriangulation,
    NotRelevant,
    StructureViolation,
)

from multitri import flips

from conftest import CYLINDER_COUNTS_K2, make_cylinder_triangulation


def test_worked_flip_example(t_left):
    flipped, f = orbit_flip(t_left, edge_class_of(Edge(1, 6), 3))
    assert (f.rep.a, f.rep.b) == (0, 4)
    got = sorted((c.rep.a, c.rep.b) for c in flipped.relevant_classes())
    assert got == [(0, 3), (0, 4), (0, 6), (1, 4)]
    validate_cylinder_triangulation(flipped)


def test_flip_is_involution(t_left):
    e = edge_class_of(Edge(1, 6), 3)
    flipped, f = orbit_flip(t_left, e)
    back, g = orbit_flip(flipped, f)
    assert back.class_set() == t_left.class_set()
    assert g == e


def test_flip_gates(t_left):
    with pytest.raises(NotInTriangulation):
        orbit_flip(t_left, edge_class_of(Edge(2, 7), 3))
    with pytest.raises(NotRelevant):
        orbit_flip(t_left, edge_class_of(Edge(0, 1), 3))
    k3 = next(iter(enumerate_cylinder(cylinder(2, 3))))
    victim = k3.relevant_classes()[0]
    with pytest.raises(LengthPrecondition):
        orbit_flip(k3, victim)


def test_flip_rejects_a_repeated_class():
    t = enumerate_cylinder(cylinder(3, 2))[5]
    e = edge_class_of(Edge(0, 3), 3)
    probe = CylinderTriangulation(t.surface, t.classes + (e,))
    with pytest.raises(StructureViolation, match="duplicate classes"):
        orbit_flip(probe, e)


def test_flip_rejects_a_class_longer_than_kn():
    """~[0,9] would wrap onto the 12-gon like its short alias ~[0,3]."""
    t = enumerate_cylinder(cylinder(3, 2))[5]
    short, alias = edge_class_of(Edge(0, 3), 3), edge_class_of(Edge(0, 9), 3)
    probe = CylinderTriangulation(
        t.surface, tuple(sorted(alias if c == short else c for c in t.classes)))
    with pytest.raises(EdgeTooLong):
        orbit_flip(probe, edge_class_of(Edge(0, 4), 3))


def test_flip_rejects_agreeing_backends_naming_a_crossing_class(t_left, monkeypatch):
    """The final lift check stays: when both backends name the same absent
    class that is not the flip, t minus e plus it crosses, and the flip
    raises rather than returning a non-triangulation."""
    e = edge_class_of(Edge(1, 6), 3)
    _, f = orbit_flip(t_left, e)
    wrong = next(c for c in relevant_class_candidates(3, 2)
                 if c not in t_left.class_set() and c != f)
    rest = [c for c in t_left.classes if c != e]
    assert not is_periodic_crossing_free(rest + [wrong], 2, 3)
    monkeypatch.setattr(flips, "_flip_via_stars", lambda *args: wrong)
    monkeypatch.setattr(flips, "_flip_via_chevron", lambda *args: wrong)
    with pytest.raises(StructureViolation, match="created a crossing"):
        orbit_flip(t_left, e)


def test_every_flip_is_unique_alternative():
    """Exhaustive check at n=2: removing a relevant class leaves exactly
    one other way to complete the triangulation, found both by direct
    crossing tests and by enumeration membership, and orbit_flip agrees.
    (The acceptance suite repeats this to n=4 via the membership route.)"""
    n, k = 2, 2
    ts = enumerate_cylinder(cylinder(n, k))
    enumerated = {t.class_set() for t in ts}
    for t in ts:
        for e in t.relevant_classes():
            rest = [c for c in t.classes if c != e]
            by_crossing = [
                g for g in relevant_class_candidates(n, k)
                if g != e and g not in t.class_set()
                and is_periodic_crossing_free(rest + [g], k, n)
            ]
            by_membership = [
                g for g in relevant_class_candidates(n, k)
                if g != e and g not in t.class_set()
                and frozenset(rest + [g]) in enumerated
            ]
            assert by_crossing == by_membership
            flipped, f = orbit_flip(t, e)
            assert by_membership == [f]
            assert flipped.class_set() in enumerated


@pytest.mark.parametrize("n,degree", [(1, 0), (2, 2), (3, 4)])
def test_flip_graph_regular(n, degree):
    g = build_flip_graph(n)
    assert len(g.vertices) == CYLINDER_COUNTS_K2[n]
    assert set(g.degrees) == {degree}
    assert g.component_count == 1


def test_flip_graph_budget():
    with pytest.raises(TooLarge):
        build_flip_graph(6)


def test_flip_graph_adjacency_is_symmetric():
    g = build_flip_graph(3)
    directed = {(i, j) for i, j, _ in g.adjacency}
    assert all((j, i) in directed for i, j in directed)
    assert len(directed) == 36 * 4
    # no self loops
    assert all(i != j for i, j in directed)


def test_flip_graph_edge_count_matches_handshake():
    g = build_flip_graph(3)
    assert sum(g.degrees) == len(g.adjacency)
    assert sum(g.degrees) % 2 == 0


def test_flip_graph_dot_shape():
    g = build_flip_graph(2)
    dot = flip_graph_dot(g)
    lines = dot.splitlines()
    assert lines[0] == "graph flips {"
    assert lines[-1] == "}"
    assert sum(1 for l in lines if l.strip().endswith(";") and "--" not in l) == 4
    edge_lines = [l for l in lines if "--" in l]
    assert len(edge_lines) == 4  # 4 vertices of degree 2
    assert all('label="' in l for l in edge_lines)


def test_flip_graph_json_shape():
    import json

    g = build_flip_graph(2)
    data = flip_graph_json(g)
    json.dumps(data)  # serializable as-is
    assert data["vertex_count"] == 4
    assert data["degrees"] == [2, 2, 2, 2]
    assert data["component_count"] == 1
    assert len(data["edges"]) == 4
    for e in data["edges"]:
        assert set(e) == {"i", "j", "removed_i", "removed_j"}


def test_multi_representative_star_exists():
    witnesses = find_multi_representative_stars(2)
    assert witnesses
    w = witnesses[0]
    assert w["n"] == 2
    # verify the witness honestly: rebuild the star and count class hits
    star_order = w["star_vertices"]
    repeated = [tuple(c) for c in w["repeated_classes"]]
    assert repeated
    edges = [Edge(*sorted((star_order[i], star_order[(i + 1) % len(star_order)])))
             for i in range(len(star_order))]
    for rep in repeated:
        cls = edge_class_of(Edge(*rep), w["n"])
        hits = [e for e in edges if edge_class_of(e, w["n"]) == cls]
        assert len(hits) >= 2


def test_multi_representative_budget():
    with pytest.raises(TooLarge):
        find_multi_representative_stars(99)
