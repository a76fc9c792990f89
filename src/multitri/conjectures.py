"""Empirical harness for the general-k statements.

Everything here reports; nothing asserts.  The k=2 and k=1 runs are
controls sitting inside proved territory and are expected to hold at
100%, while k=3 runs are genuine experiments whose verdicts are data.
Failures carry a witness, greedily shrunk while it keeps failing.
"""

from __future__ import annotations

import itertools

from .bijection import phi
from .cylinder import (
    ENUMERATION_BUDGET,
    CylinderTriangulation,
    canonical_star,
    enumerate_cylinder,
    find_angles,
    relevant_class_candidates,
    stars_of,
)
from .errors import LengthPrecondition, NotPeriodic, StructureViolation, TooLarge
from .polygon import enumerate_shift_invariant, make_star
from .surfaces import EdgeClass, cylinder, lift_universe, polygon


def _budget_gate(n: int, k: int) -> None:
    limit = ENUMERATION_BUDGET.get(k)
    if limit is None or n > limit:
        raise TooLarge(f"enumeration budget for k={k} is n <= {limit}, got n={n}")


def _class_list(classes) -> list:
    return [[c.rep.a, c.rep.b] for c in sorted(classes)]


def minimize_witness(items: list, still_fails) -> list:
    """Drop items one at a time as long as the failure survives."""
    current = list(items)
    for item in list(current):
        trial = [x for x in current if x != item]
        if still_fails(trial):
            current = trial
    return current


def stars_containing_angle(t: CylinderTriangulation, angle) -> list:
    """All lifted k-stars of t whose star angle at the apex is the given angle.

    Brute force over vertex choices within two star-edge hops of the
    apex; works for any k, which is the point of the lab.
    """
    n, k = t.surface.n, t.surface.k
    size = 2 * k + 1
    u, v, w = angle.u, angle.v, angle.w
    reach = 2 * k * n
    pool = [x for x in range(v - reach, v + reach + 1) if x not in (u, v, w)]
    found = []
    for extra in itertools.combinations(pool, size - 3):
        z = tuple(sorted((u, v, w) + extra))
        j = z.index(v)
        if {z[(j - k) % size], z[(j + k) % size]} != {u, w}:
            continue
        star = make_star(z)
        if all(t.contains_edge(edge) for edge in star.edges):
            found.append(star)
    return found


def check_star_decomposition_k(n: int, k: int) -> dict:
    """Does every relevant angle sit in a (unique) contained k-star?"""
    _budget_gate(n, k)
    surface = cylinder(n, k)
    checked = held = 0
    failures = []
    multiple = []
    for idx, t in enumerate(enumerate_cylinder(surface)):
        for angle in find_angles(t):
            if not angle.relevant:
                continue
            checked += 1
            found = stars_containing_angle(t, angle)
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
    """Compare the cylinder enumeration with the shift-invariant polygon one."""
    _budget_gate(n, k)
    m = 2 * k * n
    cyl = enumerate_cylinder(cylinder(n, k))
    periodic = enumerate_shift_invariant(polygon(m, k), n)
    images = {}
    failures = []
    for idx, t in enumerate(cyl):
        try:
            image = phi(t)
        except (StructureViolation, NotPeriodic) as exc:
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


def _star_count_general(t: CylinderTriangulation) -> int:
    """Count star orbits by direct search over vertex windows of the lift.

    Any star side has length at most kn, so the vertex set fits in a
    window of width 2kn; anchoring the minimum vertex in [0, n) picks
    one candidate per translation orbit, and canonicalising afterwards
    removes the remaining duplicates.  For k=2 the exact machinery is
    cheaper and is used directly.
    """
    n, k = t.surface.n, t.surface.k
    if k == 2:
        return len(stars_of(t))
    span = 2 * k * n
    seen = set()
    for z0 in range(n):
        for rest in itertools.combinations(range(z0 + 1, z0 + span + 1), 2 * k):
            star = make_star((z0,) + rest)
            if all(e.length <= span and t.contains_edge(e) for e in star.edges):
                seen.add(canonical_star(star, n).vertices)
    return len(seen)


def check_counts_k(n: int, k: int) -> dict:
    """Observed (stars, relevant, total) against (n-1, k(n-1), k(2n-1))."""
    _budget_gate(n, k)
    expected = (n - 1, k * (n - 1), k * (2 * n - 1))
    mismatches = []
    count = 0
    for idx, t in enumerate(enumerate_cylinder(cylinder(n, k))):
        count += 1
        observed = (
            _star_count_general(t),
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


def _bits(mask: int):
    """The set bits of a mask, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


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
    for anchor in _bits(orbit):
        candidates = adj[anchor] & lift & ~orbit
        for g in _bits(candidates):
            for h in _bits(candidates & adj[g] & -(2 << g)):  # bits above g
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
    _budget_gate(n, k)
    surface = cylinder(n, k)
    universe = lift_universe(n, k)
    adj, edges = universe.adj, universe.edges
    sets_checked = vacuous = triples = held = 0
    failures = []
    for idx, t in enumerate(enumerate_cylinder(surface)):
        absent = [c for c in relevant_class_candidates(n, k) if c not in t.class_set()]
        for extra in absent:
            sets_checked += 1
            classes = list(t.classes) + [extra]
            lift = universe.lift(universe.indices(classes))
            qualifying = [
                (c, edges[p1], edges[p2], edges[third])
                for c in classes if c.length > n
                for p1, p2 in itertools.pairwise(_bits(universe.translates[universe.index[c]]))
                if adj[p1] >> p2 & 1
                for third in _bits(adj[p1] & adj[p2] & lift)
            ]
            if not qualifying:
                vacuous += 1
                continue
            for (c, e1, e2, third) in qualifying:
                triples += 1
                if find_single_translate_replacement(classes, c, n, k) is not None:
                    held += 1
                else:
                    def still_fails(subset, c=c):
                        return c in subset and find_single_translate_replacement(
                            subset, c, n, k) is None

                    minimal = minimize_witness(classes, still_fails)
                    failures.append({
                        "triangulation_index": idx,
                        "added_class": [extra.rep.a, extra.rep.b],
                        "doubled_class": [c.rep.a, c.rep.b],
                        "crossing": [[e.a, e.b] for e in (e1, e2, third)],
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
    for other k.
    """
    reports = {
        "star_decomposition": check_star_decomposition_k(n, k),
        "bijection": check_bijection_k(n, k),
        "counts": check_counts_k(n, k),
    }
    if k == 2:
        reports["translation_lemma"] = check_translation_lemma(n, k)
    else:
        reports["translation_lemma"] = {
            "check": "translation_lemma",
            "n": n,
            "k": k,
            "skipped": "stated for k=2 only",
        }
    return {"n": n, "k": k, "reports": reports}
