"""The invariant raises that no valid input reaches, each run once.

Every raise below guards a theorem the code relies on (a relevant class
lies in two stars, a flip is an involution of the enumerated set, `phi`
and `phi_inverse` are mutually inverse, the translation lemma holds).
Valid inputs never break them, so each test breaks one by monkeypatching
the function that supplies it, as the theorem-suite CLI tests do, and
checks the raise or the failure record that follows.
"""

from __future__ import annotations

import re

import pytest

from multitri import (
    CylinderTriangulation,
    Edge,
    PeriodicPolygonTriangulation,
    StructureViolation,
    build_flip_graph,
    check_translation_lemma,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    orbit_flip,
    phi,
    phi_inverse,
)
from multitri import bijection, conjectures, flips


@pytest.fixture(scope="module")
def c3():
    return enumerate_cylinder(cylinder(3, 2))


def _flips_as(monkeypatch, answer):
    """Make `build_flip_graph` see `answer(t, e, true_flip)` as each flip."""
    monkeypatch.setattr(flips, "orbit_flip", lambda t, e: answer(t, e, orbit_flip(t, e)))


def test_a_flip_leaving_the_enumeration_is_caught(monkeypatch):
    _flips_as(monkeypatch, lambda t, e, flip: (
        CylinderTriangulation(t.surface, tuple(c for c in t.classes if c != e)), e))
    with pytest.raises(StructureViolation, match="leaves the enumerated set at vertex 0"):
        build_flip_graph(3)


def test_a_self_loop_is_caught(monkeypatch):
    _flips_as(monkeypatch, lambda t, e, flip: (t, e))
    with pytest.raises(StructureViolation, match="at vertex 0 is a self-loop"):
        build_flip_graph(3)


def test_parallel_flip_edges_are_caught(monkeypatch, c3):
    """Every relevant class of vertex 0 flipping to one neighbour."""
    target = orbit_flip(c3[0], c3[0].relevant_classes()[0])
    _flips_as(monkeypatch, lambda t, e, flip: target if t == c3[0] else flip)
    with pytest.raises(StructureViolation, match="parallel flip edges between vertices 0 and"):
        build_flip_graph(3)


def test_a_flip_edge_with_no_reverse_is_caught(monkeypatch, c3):
    """One flip of vertex 0 sent to a vertex that is not its neighbour."""
    first = c3[0].relevant_classes()[0]
    neighbours = {orbit_flip(c3[0], e)[0] for e in c3[0].relevant_classes()}
    stranger = next(t for t in c3[1:] if t not in neighbours)
    _flips_as(monkeypatch, lambda t, e, flip: (
        (stranger, flip[1]) if (t, e) == (c3[0], first) else flip))
    with pytest.raises(StructureViolation, match=r"flip edge \d+->\d+ has no reverse"):
        build_flip_graph(3)


@pytest.mark.parametrize("holders", [0, 1, 3])
def test_a_relevant_class_in_other_than_two_stars_is_caught(monkeypatch, c3, holders):
    t = c3[0]
    e = next(c for c in t.relevant_classes() if not c.is_spanning(2))
    found = flips._cover_stars(t, e.rep)
    monkeypatch.setattr(flips, "_cover_stars", lambda t, through: (found * 2)[:holders])
    with pytest.raises(StructureViolation, match=f"lies in {holders} stars, expected 2"):
        orbit_flip(t, e)


def test_a_class_on_no_chevron_tile_is_caught(monkeypatch, c3):
    t = c3[0]
    e = t.relevant_classes()[0]
    monkeypatch.setattr(flips, "orbit_of_class", lambda c, k: [])
    with pytest.raises(StructureViolation, match=re.escape(f"carries a representative of {e!r}")):
        orbit_flip(t, e)


def test_phi_inverse_checks_the_wrap_back(monkeypatch, c3):
    p = phi(c3[0])
    other = phi(c3[1])
    monkeypatch.setattr(bijection, "phi", lambda t: other)
    with pytest.raises(StructureViolation, match="does not wrap back to the input"):
        phi_inverse(p)
    monkeypatch.undo()
    assert phi_inverse(PeriodicPolygonTriangulation(p.inner, 3)) == c3[0]


def test_the_translation_lemma_records_a_failure(monkeypatch):
    """With no single-translate replacement ever found, every qualifying
    triple fails, and each failure carries its witness, minimized to the
    doubled class alone."""
    monkeypatch.setattr(conjectures, "find_single_translate_replacement", lambda *args: None)
    report = check_translation_lemma(2, 2)
    assert not report["holds"] and report["triples_held"] == 0
    assert len(report["failures"]) == report["triples_checked"] > 0
    for failure in report["failures"]:
        doubled = edge_class_of(Edge(*failure["doubled_class"]), 2)
        assert doubled.length > 2
        assert failure["minimized_classes"] == [failure["doubled_class"]]
        assert len(failure["crossing"]) == 3
