"""Each input rule has one home.

The size rule lives in the enumerators' gates: every entry point that
enumerates cylinders refuses a size past `cylinder.ENUMERATION_BUDGET` with
TooLarge before it builds a lift universe.  The shape rule for a class list
lives in `surfaces._check_classes`: an over-long class, a repeated class
and a class of another period each get one error type and one message on
every checking path, `phi` included.
"""

from __future__ import annotations

import re

import pytest

from multitri import (
    CylinderTriangulation,
    Edge,
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
    run_all_checks,
    stars_of,
    validate_cylinder_triangulation,
)
from multitri.cylinder import ENUMERATION_BUDGET
from multitri.surfaces import LiftUniverse, lift_universe


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
