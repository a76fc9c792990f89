"""Each input rule has one home.

The size rule lives in the enumerators' gates: every entry point that
enumerates cylinders refuses a size past `cylinder.ENUMERATION_BUDGET` with
TooLarge before it builds a lift universe.  The shape rule for a class list
lives in `surfaces._check_classes`: an over-long class, a repeated class
and a class of another period each get one error type and one message on
every checking path, `phi` included; a cylinder validation runs it once.
The short-edge rule lives in `polygon._check_shorts`, behind both
validators: every k-triangulation holds all short edges (polygon) or all
n*k classes of length at most k (cylinder), and a list missing some is
answered by naming the first five in sorted order, at a cost set by the
list, not by the surface.
"""

from __future__ import annotations

import random
import re
import sys
from contextlib import nullcontext

import pytest

from multitri import (
    CylinderTriangulation,
    Edge,
    PolygonTriangulation,
    EdgeTooLong,
    StructureViolation,
    TooLarge,
    analyze_complex,
    build_flip_graph,
    check_bijection_k,
    check_counts_k,
    check_maximal_lifting,
    check_star_decomposition_k,
    check_translation_lemma,
    count_report,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    find_multi_representative_stars,
    is_periodic_crossing_free,
    orbit_flip,
    phi,
    polygon,
    relevant_class_candidates,
    run_all_checks,
    short_classes,
    stars_of,
    validate_cylinder_triangulation,
    validate_polygon_triangulation,
)
from multitri.cylinder import ENUMERATION_BUDGET
from multitri.surfaces import LiftUniverse, _check_classes, lift_universe

# `multitri.cylinder` is the surface constructor, so the modules are reached
# through `sys.modules`.
CYLINDER_MODULE = sys.modules["multitri.cylinder"]
POLYGON_MODULE = sys.modules["multitri.polygon"]


@pytest.fixture
def no_universe(monkeypatch):
    """Any lift universe built from here on fails the test."""
    lift_universe.cache_clear()

    def refuse(self, n, k):
        raise AssertionError(f"built the lift universe of C_{n} at k={k}")

    monkeypatch.setattr(LiftUniverse, "__init__", refuse)


# One past the table at each listed k, and C_2 at a k outside it.
ONE_PAST = [(ENUMERATION_BUDGET[k] + 1, k) for k in sorted(ENUMERATION_BUDGET)] + [(2, 8)]

ANY_K = {
    "enumerate_cylinder": lambda n, k: enumerate_cylinder(cylinder(n, k)),
    "analyze_complex": analyze_complex,
    "check_star_decomposition_k": check_star_decomposition_k,
    "check_bijection_k": check_bijection_k,
    "check_counts_k": check_counts_k,
    "run_all_checks": run_all_checks,
}

K2_ONLY = {
    "build_flip_graph": lambda n, k: build_flip_graph(n),
    "find_multi_representative_stars": lambda n, k: find_multi_representative_stars(n),
    "check_translation_lemma": check_translation_lemma,
}

GATED = ([(name, n, k) for name in ANY_K for n, k in ONE_PAST]
         + [(name, ENUMERATION_BUDGET[2] + 1, 2) for name in K2_ONLY])


@pytest.mark.parametrize("name,n,k", GATED)
def test_gate_refuses_before_building_a_universe(no_universe, name, n, k):
    call = ANY_K.get(name) or K2_ONLY[name]
    with pytest.raises(TooLarge, match=f"budget is n <= {n - 1} for k={k}, got n={n}"):
        call(n, k)


@pytest.fixture(scope="module")
def probes() -> dict:
    """A C_3 triangulation with ~[0,3] replaced by ~[0,9], with ~[0,3]
    listed twice, and with ~[0,3] replaced by its class of period 4."""
    t = enumerate_cylinder(cylinder(3, 2))[5]
    short, alias = edge_class_of(Edge(0, 3), 3), edge_class_of(Edge(0, 9), 3)
    other = edge_class_of(Edge(0, 3), 4)

    def swapped(new):
        return CylinderTriangulation(
            t.surface, tuple(sorted(new if c == short else c for c in t.classes)))

    return {
        "over-long": swapped(alias),
        "repeated": CylinderTriangulation(t.surface, t.classes + (short,)),
        "other period": swapped(other),
    }


ANSWERS = {
    "over-long": (EdgeTooLong, "class ~[0,9] has length 9 > k*n = 6"),
    "repeated": (StructureViolation, "duplicate classes"),
    "other period": (StructureViolation, "class ~[0,3] has period 4, surface has 3"),
}

PATHS = {
    "validate_cylinder_triangulation": validate_cylinder_triangulation,
    "check_maximal_lifting": check_maximal_lifting,
    "stars_of": stars_of,
    "count_report": count_report,
    "orbit_flip": lambda t: orbit_flip(t, edge_class_of(Edge(0, 4), 3)),
    "is_periodic_crossing_free": lambda t: is_periodic_crossing_free(t.classes, 2, 3),
    "phi": phi,
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("probe", sorted(ANSWERS))
def test_class_list_rule_has_one_answer(probes, probe, path):
    kind, message = ANSWERS[probe]
    with pytest.raises(StructureViolation) as info:
        PATHS[path](probes[probe])
    assert type(info.value) is kind
    assert str(info.value) == message


@pytest.mark.parametrize("probe", sorted(ANSWERS))
def test_validate_checks_the_class_list_before_any_universe(probes, no_universe, probe):
    kind, message = ANSWERS[probe]
    with pytest.raises(kind, match=re.escape(message)):
        validate_cylinder_triangulation(probes[probe])


def eager_missing_shorts(classes, n: int, k: int) -> str:
    """Oracle: the cylinder's missing-shorts message from the full list of
    short classes, every missing one sorted."""
    missing = sorted(set(short_classes(n, k)) - set(classes))
    more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
    return f"classes of length <= {k} missing: {missing[:5]}{more}"


def test_missing_shorts_message_matches_eager_oracle():
    """Random lists of distinct classes of C_n, n <= 6, k <= 3, with at
    least one short class removed, in random order."""
    rng = random.Random(2025)
    for _ in range(300):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        shorts = short_classes(n, k)
        dropped = set(rng.sample(shorts, rng.randint(1, len(shorts))))
        kept = [c for c in shorts + relevant_class_candidates(n, k)
                if c not in dropped and rng.random() < 0.5]
        rng.shuffle(kept)
        with pytest.raises(StructureViolation) as info:
            validate_cylinder_triangulation(CylinderTriangulation(cylinder(n, k), tuple(kept)))
        assert str(info.value) == eager_missing_shorts(kept, n, k)


def refuse_listing(n, k):
    raise AssertionError(f"listed the edges or classes of n={n} at k={k}")


def test_missing_shorts_answered_from_the_list_on_a_huge_cylinder(no_universe, monkeypatch):
    """A one-class list naming C_{10^9} gets the missing-shorts message with
    no lift universe and no list of the surface's classes."""
    for name in ("short_classes", "relevant_class_candidates"):
        monkeypatch.setattr(CYLINDER_MODULE, name, refuse_listing)
    n = 10 ** 9
    t = CylinderTriangulation(cylinder(n, 2), (edge_class_of(Edge(0, 1), n),))
    with pytest.raises(StructureViolation) as info:
        validate_cylinder_triangulation(t)
    assert type(info.value) is StructureViolation
    assert str(info.value) == ("classes of length <= 2 missing: "
                               "[~[0,2], ~[1,2], ~[1,3], ~[2,3], ~[2,4]] and 1999999994 more")


def test_missing_shorts_answered_from_the_list_on_a_huge_polygon(monkeypatch):
    """The same probe on the 10^9-gon."""
    for name in ("short_edges", "all_edges", "relevant_candidates"):
        monkeypatch.setattr(POLYGON_MODULE, name, refuse_listing)
    n = 10 ** 9
    t = PolygonTriangulation(polygon(n, 2), (Edge(0, 1),))
    with pytest.raises(StructureViolation) as info:
        validate_polygon_triangulation(t)
    assert type(info.value) is StructureViolation
    assert str(info.value) == (
        f"edges of length <= 2 missing: [[0,2], [0,{n - 2}], [0,{n - 1}], [1,2], [1,3]]"
        " and 1999999994 more")


def test_cylinder_validation_checks_the_class_list_once(monkeypatch):
    """One `_check_classes` per validation, valid or not, and no list of
    relevant candidates."""
    calls = []

    def spied(classes, n, k):
        calls.append(n)
        return _check_classes(classes, n, k)

    for module in (sys.modules["multitri.surfaces"], CYLINDER_MODULE):
        monkeypatch.setattr(module, "_check_classes", spied)
    monkeypatch.setattr(CYLINDER_MODULE, "relevant_class_candidates", refuse_listing)
    t = enumerate_cylinder(cylinder(3, 2))[0]
    short, relevant = t.classes[0], next(c for c in t.classes if c.is_relevant(2))
    probes = [
        (t.classes, nullcontext()),
        (t.classes + (edge_class_of(Edge(1, 4), 3),),
         pytest.raises(StructureViolation, match="3-crossing")),
        (tuple(c for c in t.classes if c != relevant),
         pytest.raises(StructureViolation, match="is addable")),
        (tuple(c for c in t.classes if c != short),
         pytest.raises(StructureViolation, match="missing")),
    ]
    for classes, outcome in probes:
        calls.clear()
        with outcome:
            validate_cylinder_triangulation(CylinderTriangulation(t.surface, classes))
        assert calls == [3], classes
