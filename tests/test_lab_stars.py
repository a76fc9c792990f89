"""The lab's star searches against the exhaustive subset scans.

`oracle_stars_containing_angle` tries every choice of the other 2k-2
vertices within 2kn of the apex; `oracle_star_count` tries every 2k
vertices above each anchor in [0, n) within a window of width 2kn.  Both
keep the stars whose edges all lie in the lift and use no theorem, at any
k.  `stars_containing_angle` and the count of `_cover_stars` must give
identical lists in identical order, and identical counts.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from multitri import (
    CylinderTriangulation,
    KStar,
    canonical_star,
    check_counts_k,
    check_star_decomposition_k,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    find_angles,
    make_star,
    minimize_witness,
    relevant_class_candidates,
    stars_containing_angle,
)
import multitri.conjectures as conjectures
from multitri.cylinder import Angle, _cover_stars

DATA = Path(__file__).resolve().parent / "data"


def oracle_stars_containing_angle(t: CylinderTriangulation, angle) -> list[KStar]:
    """All lifted k-stars of t whose star angle at the apex is the given
    angle, by brute force over vertex choices near the apex."""
    n, k = t.surface.n, t.surface.k
    size = 2 * k + 1
    u, v, w = angle.u, angle.v, angle.w
    reach = 2 * k * n
    pool = [x for x in range(v - reach, v + reach + 1) if x not in (u, v, w)]
    classes = t.class_set()
    found = []
    for extra in itertools.combinations(pool, size - 3):
        z = tuple(sorted((u, v, w) + extra))
        j = z.index(v)
        if {z[(j - k) % size], z[(j + k) % size]} != {u, w}:
            continue
        star = make_star(z)
        if all(edge_class_of(edge, n) in classes for edge in star.edges):
            found.append(star)
    return found


def oracle_star_count(t: CylinderTriangulation) -> int:
    """Star orbits of the lift, by direct search over vertex windows with
    the minimum vertex in [0, n), canonicalised to remove duplicates."""
    n, k = t.surface.n, t.surface.k
    span = 2 * k * n
    classes = t.class_set()
    seen = set()
    for z0 in range(n):
        for rest in itertools.combinations(range(z0 + 1, z0 + span + 1), 2 * k):
            star = make_star((z0,) + rest)
            if all(e.length <= span and edge_class_of(e, n) in classes for e in star.edges):
                seen.add(canonical_star(star, n).vertices)
    return len(seen)


def _relevant_angles(t: CylinderTriangulation):
    return [angle for angle in find_angles(t) if angle.relevant]


@pytest.mark.parametrize("n,k,step", [
    (2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1),
    (2, 2, 1), (3, 2, 1), (4, 2, 1),
    (2, 3, 1), (3, 3, 27),
])
def test_stars_containing_angle_matches_scan(n, k, step):
    checked = 0
    for t in enumerate_cylinder(cylinder(n, k))[::step]:
        for angle in _relevant_angles(t):
            assert stars_containing_angle(t, angle) == oracle_stars_containing_angle(t, angle)
            checked += 1
    assert checked > 0 or n == 2 and k == 1


@pytest.mark.parametrize("n,step", [(2, 1), (3, 9)])
def test_stars_containing_angle_matches_scan_on_additions(n, step):
    """One absent relevant class added to a 2-triangulation: the lift
    crosses, and many angles lie in several contained stars."""
    several = 0
    for t in enumerate_cylinder(cylinder(n, 2))[::step]:
        for extra in relevant_class_candidates(n, 2):
            if extra in t.class_set():
                continue
            probe = CylinderTriangulation(t.surface, tuple(sorted(t.classes + (extra,))))
            for angle in _relevant_angles(probe):
                found = stars_containing_angle(probe, angle)
                assert found == oracle_stars_containing_angle(probe, angle)
                several += len(found) > 1
    assert several > 0


@pytest.mark.parametrize("n,k,step", [
    (2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1),
    (2, 2, 1), (3, 2, 1), (4, 2, 27),
    (2, 3, 1), (3, 3, 27),
])
def test_star_count_matches_scan(n, k, step):
    for t in enumerate_cylinder(cylinder(n, k))[::step]:
        assert len(_cover_stars(t)) == oracle_star_count(t)


def test_minimize_witness_probes_match_scan():
    """An angle widened over the next fan neighbour is in no star; every
    subset that the witness shrinking probes gets the scan's answer."""
    t = enumerate_cylinder(cylinder(2, 3))[0]
    first, second = next((a, b) for a, b in itertools.pairwise(find_angles(t))
                         if a.relevant and b.v == a.v and b.w == a.u)
    angle = Angle(second.u, first.v, first.w, True)
    probes = []

    def still_fails(subset):
        probe = CylinderTriangulation(t.surface, tuple(sorted(subset)))
        if not all(probe.contains_edge(s) for s in angle.sides()):
            return False
        found = stars_containing_angle(probe, angle)
        assert found == oracle_stars_containing_angle(probe, angle)
        probes.append(subset)
        return not found

    assert still_fails(list(t.classes))
    minimal = minimize_witness(list(t.classes), still_fails)
    assert len(probes) > len(minimal) > 0


@pytest.mark.parametrize("check,name", [
    (check_star_decomposition_k, "star_decomposition_k3_n3.json"),
    (check_counts_k, "counts_k3_n3.json"),
])
def test_k3_n3_reports_frozen(check, name):
    """Regression data from the subset scans, not claims about the k=3
    conjectures: the full reports of the lab at C_3, k=3."""
    frozen = json.loads((DATA / name).read_text())
    assert json.loads(json.dumps(check(3, 3))) == frozen


def test_star_decomposition_check_searches_once_per_triangulation(monkeypatch):
    """One cover star search per triangulation, not one per relevant angle
    (2,970 at C_3, k=3)."""
    searched = []
    search = conjectures._cover_stars
    monkeypatch.setattr(conjectures, "_cover_stars", lambda t: searched.append(t) or search(t))
    report = check_star_decomposition_k(3, 3)
    assert len(searched) == len(set(searched)) == 216
    assert report["angles_checked"] > 216
