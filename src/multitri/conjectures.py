"""Empirical harness for the general-k statements.

Everything here reports; nothing asserts.  The k=2 and k=1 runs are
controls sitting inside proved territory and are expected to hold at
100%, while k=3 runs are genuine experiments whose verdicts are data.
Failures carry a witness, greedily shrunk while it keeps failing.
"""

from __future__ import annotations

import itertools

from .bijection import _count_law, _no_polygon_side, phi
from .cylinder import (
    CylinderTriangulation,
    _cover_stars,
    _stars_with_angle,
    enumerate_cylinder,
    find_angles,
    relevant_class_candidates,
)
from .errors import LengthPrecondition, StructureViolation
from .polygon import enumerate_shift_invariant
from .surfaces import EdgeClass, bits, cylinder, lift_universe, polygon


def _class_list(classes) -> list:
    return [list(c.rep) for c in sorted(classes)]


def minimize_witness(items: list, still_fails) -> list:
    """Drop items one at a time as long as the failure survives."""
    current = list(items)
    for item in list(current):
        trial = [x for x in current if x != item]
        if still_fails(trial):
            current = trial
    return current


def stars_containing_angle(t: CylinderTriangulation, angle) -> list:
    """All lifted k-stars of t whose star angle at the apex is the given
    angle, among the stars of `_cover_stars`: the same search at every k,
    which is the point of the lab."""
    return _stars_with_angle(_cover_stars(t), angle, t.surface.n)


def check_star_decomposition_k(n: int, k: int) -> dict:
    """Does every relevant angle sit in a (unique) contained k-star?"""
    triangulations = enumerate_cylinder(cylinder(n, k))
    return _star_decomposition_report(n, k, triangulations, map(_cover_stars, triangulations))


def _star_decomposition_report(n: int, k: int, triangulations, cover_stars) -> dict:
    surface = cylinder(n, k)
    checked = held = 0
    failures = []
    multiple = []
    for idx, (t, stars) in enumerate(zip(triangulations, cover_stars)):
        for angle in find_angles(t):
            if not angle.relevant:
                continue
            checked += 1
            found = _stars_with_angle(stars, angle, n)
            if found:
                held += 1
            else:
                def still_fails(subset, angle=angle):
                    probe = CylinderTriangulation(surface, tuple(sorted(subset)))
                    if not all(probe.contains_edge(s) for s in angle.sides()):
                        return False
                    return not stars_containing_angle(probe, angle)

                minimal = minimize_witness(list(t.classes), still_fails)
                failures.append({
                    "triangulation_index": idx,
                    "triangulation": _class_list(t.classes),
                    "angle": [angle.u, angle.v, angle.w],
                    "minimized_classes": _class_list(minimal),
                })
            if len(found) > 1:
                multiple.append({
                    "triangulation_index": idx,
                    "angle": [angle.u, angle.v, angle.w],
                    "stars": [list(s.vertices) for s in found],
                })
    return {
        "check": "star_decomposition",
        "n": n,
        "k": k,
        "angles_checked": checked,
        "angles_held": held,
        "holds": not failures,
        "failures": failures,
        "multiple_star_angles": multiple,
    }


def check_bijection_k(n: int, k: int) -> dict:
    """Compare the cylinder enumeration with the shift-invariant polygon one.

    Both sides run the search of `CrossingUniverse.maximal_sets`, so their
    agreement does not check it; the closed-form counts C(2n-2, n-1)^k frozen
    in the tests remain the independent check.
    """
    return _bijection_report(n, k, enumerate_cylinder(cylinder(n, k)))


def _bijection_report(n: int, k: int, cyl) -> dict:
    if reason := _no_polygon_side(n, k):
        return {"check": "bijection", "n": n, "k": k, "skipped": reason}
    periodic = enumerate_shift_invariant(polygon(2 * k * n, k), n)
    images = {}
    failures = []
    for idx, t in enumerate(cyl):
        try:
            image = phi(t)
        except StructureViolation as exc:
            failures.append({"triangulation_index": idx, "error": str(exc)})
            continue
        images[image.inner.edge_set()] = idx
    periodic_sets = {p.edge_set() for p in periodic}
    injective = len(images) == len(cyl) - len(failures)
    surjective = periodic_sets <= set(images)
    image_inside = set(images) <= periodic_sets
    return {
        "check": "bijection",
        "n": n,
        "k": k,
        "cylinder_count": len(cyl),
        "periodic_polygon_count": len(periodic),
        "counts_equal": len(cyl) == len(periodic),
        "phi_failures": failures,
        "phi_injective": injective,
        "phi_surjective": surjective,
        "phi_image_periodic": image_inside,
        "holds": (
            not failures and injective and surjective and image_inside
            and len(cyl) == len(periodic)
        ),
    }


def check_counts_k(n: int, k: int) -> dict:
    """Observed (stars, relevant, total) against (n-1, k(n-1), k(2n-1))."""
    triangulations = enumerate_cylinder(cylinder(n, k))
    return _counts_report(n, k, triangulations, map(_cover_stars, triangulations))


def _counts_report(n: int, k: int, triangulations, cover_stars) -> dict:
    expected = _count_law(n, k)
    mismatches = []
    count = 0
    for idx, (t, stars) in enumerate(zip(triangulations, cover_stars)):
        count += 1
        observed = (
            len(stars),
            len(t.relevant_classes()),
            len(t.classes),
        )
        if observed != expected:
            mismatches.append({
                "triangulation_index": idx,
                "triangulation": _class_list(t.classes),
                "observed": list(observed),
            })
    return {
        "check": "counts",
        "n": n,
        "k": k,
        "triangulations": count,
        "expected": list(expected),
        "holds": not mismatches,
        "mismatches": mismatches,
    }


def find_single_translate_replacement(classes, doubled: EdgeClass, n: int, k: int):
    """A 3-crossing in the windowed lift using exactly one translate of `doubled`.

    Returns the triple of edges, or None when no such crossing exists.
    """
    if k != 2:
        raise LengthPrecondition(f"the translation lemma is stated for k=2, got k={k}")
    universe = lift_universe(n, k)
    lift = universe.lift(universe.indices(classes))
    orbit = universe.lift(universe.indices([doubled])) & lift
    adj, edges = universe.adj, universe.edges
    for anchor in bits(orbit):
        candidates = adj[anchor] & lift & ~orbit
        for g in bits(candidates):
            for h in bits(candidates & adj[g] & -(2 << g)):  # bits above g
                return (edges[anchor], edges[g], edges[h])
    return None


def check_translation_lemma(n: int, k: int) -> dict:
    """When a lift 3-crossing doubles up on one class's translates, an
    alternative 3-crossing using that class exactly once must exist.

    Scans every enumerated triangulation extended by every absent
    relevant class; those are the sets where 3-crossings appear.
    """
    if k != 2:
        raise LengthPrecondition(f"the translation lemma is stated for k=2, got k={k}")
    return _translation_report(n, k, enumerate_cylinder(cylinder(n, k)))


def _translation_report(n: int, k: int, triangulations) -> dict:
    universe = lift_universe(n, k)
    adj, edges = universe.adj, universe.edges
    candidates = relevant_class_candidates(n, k)
    sets_checked = vacuous = triples = held = 0
    failures = []
    for idx, t in enumerate(triangulations):
        present = t.class_set()
        absent = [c for c in candidates if c not in present]
        for extra in absent:
            sets_checked += 1
            classes = list(t.classes) + [extra]
            lift = universe.lift(universe.indices(classes))
            qualifying = [
                (c, edges[p1], edges[p2], edges[third])
                for c in classes if c.length > n
                for p1, p2 in itertools.pairwise(bits(universe.translates[universe.index[c]]))
                if adj[p1] >> p2 & 1
                for third in bits(adj[p1] & adj[p2] & lift)
            ]
            if not qualifying:
                vacuous += 1
                continue
            # One replacement search per doubled class: it reads nothing else.
            replaced = {c: find_single_translate_replacement(classes, c, n, k)
                        for c in {c for c, *_ in qualifying}}
            for (c, e1, e2, third) in qualifying:
                triples += 1
                if replaced[c] is not None:
                    held += 1
                else:
                    def still_fails(subset, c=c):
                        return c in subset and find_single_translate_replacement(
                            subset, c, n, k) is None

                    minimal = minimize_witness(classes, still_fails)
                    failures.append({
                        "triangulation_index": idx,
                        "added_class": list(extra.rep),
                        "doubled_class": list(c.rep),
                        "crossing": [list(e) for e in (e1, e2, third)],
                        "minimized_classes": _class_list(minimal),
                    })
    return {
        "check": "translation_lemma",
        "n": n,
        "k": k,
        "sets_checked": sets_checked,
        "vacuous_sets": vacuous,
        "triples_checked": triples,
        "triples_held": held,
        "holds": not failures,
        "failures": failures,
    }


def run_all_checks(n: int, k: int) -> dict:
    """The lab's four reports in one JSON-ready bundle.

    The translation lemma is k=2-specific and is skipped (with a note)
    for other k, and so is the bijection at C_1, k=1, whose 2kn-gon would
    be a 2-gon.  C_n is enumerated once and shared by the checks, and so
    are the stars of each triangulation, searched once.
    """
    triangulations = enumerate_cylinder(cylinder(n, k))
    stars = [_cover_stars(t) for t in triangulations]
    reports = {
        "star_decomposition": _star_decomposition_report(n, k, triangulations, stars),
        "bijection": _bijection_report(n, k, triangulations),
        "counts": _counts_report(n, k, triangulations, stars),
    }
    if k == 2:
        reports["translation_lemma"] = _translation_report(n, k, triangulations)
    else:
        reports["translation_lemma"] = {
            "check": "translation_lemma",
            "n": n,
            "k": k,
            "skipped": "stated for k=2 only",
        }
    return {"n": n, "k": k, "reports": reports}
