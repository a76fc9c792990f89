"""The conjecture lab: control runs must hold, conjecture runs must
produce reports without crashing, witnesses must be genuine."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from multitri import (
    CylinderTriangulation,
    Edge,
    TooLarge,
    check_bijection_k,
    check_counts_k,
    check_star_decomposition_k,
    check_translation_lemma,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    find_single_translate_replacement,
    minimize_witness,
    run_all_checks,
    stars_containing_angle,
)
from multitri import conjectures
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


@pytest.mark.parametrize("n,searches,counters", [
    (2, 16, (8, 0, 312, 312)), (3, 570, (288, 36, 13544, 13544))])
def test_translation_lemma_searches_once_per_set_and_class(monkeypatch, n, searches, counters):
    """One replacement search per (extended set, doubled class), not one per
    qualifying triple; every triple is still counted."""
    searched = []
    search = conjectures.find_single_translate_replacement

    def spied(classes, doubled, n, k):
        searched.append((tuple(classes), doubled))
        return search(classes, doubled, n, k)

    monkeypatch.setattr(conjectures, "find_single_translate_replacement", spied)
    rep = check_translation_lemma(n, 2)
    assert len(searched) == len(set(searched)) == searches
    assert (rep["sets_checked"], rep["vacuous_sets"], rep["triples_checked"],
            rep["triples_held"]) == counters


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
    from multitri import canonical_star
    from test_cylinder_star_walk import oracle_star_of_angle

    for angle in find_angles(t_left):
        if not angle.relevant:
            continue
        found = stars_containing_angle(t_left, angle)
        assert len(found) == 1
        want = canonical_star(oracle_star_of_angle(t_left, angle), 3).vertices
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


# sha256 of json.dumps(run_all_checks(n, k), sort_keys=True), taken before
# the checks shared one enumeration.
BUNDLE_SHA256 = {
    (2, 2): "4d5411b9210997bcc62a5a321d21e7fdefb4d4683cceedac3c5677821b49cad8",
    (2, 3): "445501780ba9f7ddae25deeaddf64b6597011d8552a5545ab496efec0d880fc0",
    (3, 2): "a2af3a82451199e4540d88b7acc7ccac359c32aa35fd72022e66e3a5fdd3524e",
    (3, 3): "0015c0c2fc210bb7b5981eb93ddee09b03ec0bc1cf7f35fb709bdd19d6b50f85",
}


@pytest.mark.parametrize("n,k", sorted(BUNDLE_SHA256))
def test_run_all_checks_enumerates_once(monkeypatch, n, k):
    calls = []
    enumerate_ = conjectures.enumerate_cylinder

    def spied(surface):
        calls.append(surface)
        return enumerate_(surface)

    monkeypatch.setattr(conjectures, "enumerate_cylinder", spied)
    bundle = run_all_checks(n, k)
    assert len(calls) == 1
    text = json.dumps(bundle, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BUNDLE_SHA256[n, k]


def test_run_all_checks_searches_stars_once_per_triangulation(monkeypatch):
    """The star-decomposition and counts reports share one cover star search
    per triangulation (216 at C_3, k=3)."""
    searched = []
    search = conjectures._cover_stars
    monkeypatch.setattr(conjectures, "_cover_stars", lambda t: searched.append(t) or search(t))
    bundle = run_all_checks(3, 3)
    assert len(searched) == len(set(searched)) == 216
    text = json.dumps(bundle, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BUNDLE_SHA256[3, 3]


def test_run_all_checks_reports_match_the_public_checks():
    reports = run_all_checks(2, 2)["reports"]
    assert reports["star_decomposition"] == check_star_decomposition_k(2, 2)
    assert reports["bijection"] == check_bijection_k(2, 2)
    assert reports["counts"] == check_counts_k(2, 2)
    assert reports["translation_lemma"] == check_translation_lemma(2, 2)


def test_budget_gates():
    with pytest.raises(TooLarge):
        check_star_decomposition_k(4, 3)
    with pytest.raises(TooLarge):
        check_counts_k(12, 2)


def test_bijection_k3_n3_report():
    # Regression literal from the frozenset shift-invariant search, not a
    # claim about the k=3 conjecture.
    rep = check_bijection_k(3, 3)
    assert rep["cylinder_count"] == rep["periodic_polygon_count"] == 216
    assert rep["holds"]


def test_no_single_translate_replacement_in_a_triangulation():
    """A triangulation's lift has no 3-crossing, so none uses a translate."""
    for t in enumerate_cylinder(cylinder(3, 2)):
        for c in t.relevant_classes():
            assert find_single_translate_replacement(t.classes, c, 3, 2) is None


def test_lab_reports_record_their_failures():
    """Crafted star lists and class lists drive each report's failure
    branch; every report stays JSON."""
    n, k = 2, 2
    ts = enumerate_cylinder(cylinder(n, k))
    stars = [conjectures._cover_stars(t) for t in ts]

    starless = conjectures._star_decomposition_report(n, k, ts, [[] for _ in ts])
    assert not starless["holds"] and starless["angles_held"] == 0
    assert len(starless["failures"]) == starless["angles_checked"] > 0
    for failure in starless["failures"]:
        assert set(map(tuple, failure["minimized_classes"])) <= set(
            map(tuple, failure["triangulation"]))

    doubled = conjectures._star_decomposition_report(n, k, ts, [s + s for s in stars])
    assert doubled["holds"] and len(doubled["multiple_star_angles"]) == doubled["angles_checked"]
    assert all(len(m["stars"]) == 2 for m in doubled["multiple_star_angles"])

    counts = conjectures._counts_report(n, k, ts, [s[1:] for s in stars])
    assert not counts["holds"]
    assert [m["observed"] for m in counts["mismatches"]] == [[n - 2, k * (n - 1), 3 * k]] * len(ts)

    broken = CylinderTriangulation(ts[0].surface, ts[0].classes[1:])
    bijection = conjectures._bijection_report(n, k, [broken, *ts[1:]])
    assert not bijection["holds"] and not bijection["phi_surjective"]
    assert bijection["phi_failures"] == [{
        "triangulation_index": 0,
        "error": "image has 18 edges, a k-triangulation of the 8-gon has 22"}]

    for report in (starless, doubled, counts, bijection):
        json.dumps(report)
