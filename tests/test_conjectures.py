"""The conjecture lab: control runs must hold, conjecture runs must
produce reports without crashing, witnesses must be genuine."""

from __future__ import annotations

import itertools
import json

import pytest

from multitri import (
    Edge,
    TooLarge,
    check_bijection_k,
    check_counts_k,
    check_star_decomposition_k,
    check_translation_lemma,
    edge_class_of,
    find_single_translate_replacement,
    minimize_witness,
    run_all_checks,
    stars_containing_angle,
)
from multitri.errors import LengthPrecondition
from multitri.cylinder import find_angles


def test_star_decomposition_k2_control():
    for n in (1, 2, 3):
        rep = check_star_decomposition_k(n, 2)
        assert rep["holds"]
        assert rep["angles_checked"] == rep["angles_held"]
        assert rep["multiple_star_angles"] == []


def test_star_decomposition_k1():
    rep = check_star_decomposition_k(3, 1)
    assert rep["holds"]
    assert rep["angles_checked"] > 0


def test_star_decomposition_k3_reports():
    rep = check_star_decomposition_k(2, 3)
    assert "holds" in rep and "angles_checked" in rep
    json.dumps(rep)


def test_bijection_k2_control():
    for n in (2, 3):
        rep = check_bijection_k(n, 2)
        assert rep["holds"]
        assert rep["counts_equal"]
        assert rep["phi_injective"] and rep["phi_surjective"]


def test_bijection_k1_and_k3():
    rep1 = check_bijection_k(3, 1)
    assert rep1["cylinder_count"] == rep1["periodic_polygon_count"]
    rep3 = check_bijection_k(2, 3)
    assert {"cylinder_count", "periodic_polygon_count", "holds"} <= set(rep3)
    json.dumps(rep3)


def test_counts_worked_examples():
    # the quoted example rows: observed == conjectured at these sizes
    assert check_counts_k(2, 1)["expected"] == [1, 1, 3]
    assert check_counts_k(2, 1)["holds"]
    assert check_counts_k(3, 1)["holds"]
    rep = check_counts_k(2, 3)
    assert rep["expected"] == [1, 3, 9]
    json.dumps(rep)
    rep4 = check_counts_k(4, 2)
    assert rep4["expected"] == [3, 6, 14]
    assert rep4["holds"]


def test_translation_lemma_control():
    # (sets_checked, vacuous_sets, triples_checked, triples_held), frozen
    # from the dict-adjacency implementation
    counters = {2: (8, 0, 312, 312), 3: (288, 36, 13544, 13544)}
    for n in (2, 3):
        rep = check_translation_lemma(n, 2)
        assert rep["holds"]
        assert rep["triples_checked"] == rep["triples_held"]
        assert rep["failures"] == []
        assert (rep["sets_checked"], rep["vacuous_sets"], rep["triples_checked"],
                rep["triples_held"]) == counters[n]


def test_translation_lemma_k2_only():
    with pytest.raises(LengthPrecondition):
        check_translation_lemma(2, 3)
    c = edge_class_of(Edge(0, 6), 2)
    with pytest.raises(LengthPrecondition):
        find_single_translate_replacement([c], c, 2, 3)


def test_translation_lemma_synthetic_example():
    c1 = edge_class_of(Edge(0, 6), 3)
    c2 = edge_class_of(Edge(1, 7), 3)
    triple = find_single_translate_replacement([c1, c2], c1, 3, 2)
    assert triple is not None
    in_orbit = [e for e in triple if edge_class_of(e, 3) == c1]
    assert len(in_orbit) == 1
    assert all(edge_class_of(e, 3) in (c1, c2) for e in triple)
    from multitri.surfaces import cover_crosses
    assert all(cover_crosses(a, b) for a, b in itertools.combinations(triple, 2))


def test_stars_containing_angle_agrees_with_fast_path(t_left):
    from multitri import canonical_star, star_of_angle

    for angle in find_angles(t_left):
        if not angle.relevant:
            continue
        found = stars_containing_angle(t_left, angle)
        assert len(found) == 1
        want = canonical_star(star_of_angle(t_left, angle), 3).vertices
        assert canonical_star(found[0], 3).vertices == want


def test_minimize_witness_shrinks_to_core():
    # failing condition: the subset still contains both 3 and 7
    items = list(range(10))
    minimal = minimize_witness(items, lambda sub: {3, 7} <= set(sub))
    assert sorted(minimal) == [3, 7]


def test_minimize_witness_keeps_failing_whole():
    items = [1, 2, 3]
    assert minimize_witness(items, lambda sub: len(sub) == 3) == [1, 2, 3]


def test_run_all_checks_bundle():
    out = run_all_checks(2, 2)
    assert set(out["reports"]) == {
        "star_decomposition", "bijection", "counts", "translation_lemma"}
    assert all(r.get("holds") for r in out["reports"].values())
    json.dumps(out)


def test_run_all_checks_k3_never_crashes():
    out = run_all_checks(2, 3)
    assert out["reports"]["translation_lemma"]["skipped"]
    json.dumps(out)


def test_budget_gates():
    with pytest.raises(TooLarge):
        check_star_decomposition_k(4, 3)
    with pytest.raises(TooLarge):
        check_counts_k(12, 2)
