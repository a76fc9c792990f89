"""The cached crossing universe against a per-call windowed oracle.

`windowed_crossing_free` is the straightforward construction: lift every
class to translates in [-radius, radius], build the crossing graph of the
long edges and look for a k-clique around each representative.  With a
radius of 2k+1 and with double that, it must agree with
`is_periodic_crossing_free`, which shows the window is wide enough.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from multitri import (
    CylinderTriangulation,
    Edge,
    EdgeClass,
    EdgeTooLong,
    StructureViolation,
    check_maximal_lifting,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    is_periodic_crossing_free,
    relevant_class_candidates,
    short_classes,
    validate_cylinder_triangulation,
)
from multitri.surfaces import _CACHE_SIZE, cover_crosses, has_clique, lift_universe


def windowed_crossing_free(classes, k: int, n: int, radius: int) -> bool:
    """Oracle: is the lift, truncated to translates within `radius`, free of
    (k+1)-crossings through a representative?"""
    window = sorted({c.translate(t) for c in classes for t in range(-radius, radius + 1)})
    longs = [e for e in window if e.length > k]
    adj = [0] * len(longs)
    for i, e in enumerate(longs):
        for j in range(i + 1, len(longs)):
            if cover_crosses(e, longs[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return not any(
        0 <= e.a < n and has_clique(adj, k, within=adj[i]) for i, e in enumerate(longs))


def one_class_neighbours(t: CylinderTriangulation):
    """t itself, t plus each absent relevant class (in candidate order), and
    t minus each of its classes."""
    n, k = t.surface.n, t.surface.k
    classes = t.class_set()
    yield t
    for c in relevant_class_candidates(n, k):
        if c not in classes:
            yield CylinderTriangulation(t.surface, tuple(sorted(classes | {c})))
    for c in t.classes:
        yield CylinderTriangulation(t.surface, tuple(sorted(classes - {c})))


DIFFERENTIAL_SIZES = [(n, 2) for n in (1, 2, 3)] + [(n, 3) for n in (1, 2)] + [
    (n, 1) for n in (1, 2, 3, 4)]


@pytest.mark.parametrize("n,k", DIFFERENTIAL_SIZES)
def test_crossing_free_matches_windowed_oracle(n, k):
    radius = 2 * k + 1
    seen = {True: 0, False: 0}
    for t in enumerate_cylinder(cylinder(n, k)):
        for probe in one_class_neighbours(t):
            got = is_periodic_crossing_free(probe.classes, k, n)
            assert got == windowed_crossing_free(probe.classes, k, n, radius), probe
            assert got == windowed_crossing_free(probe.classes, k, n, 2 * radius), probe
            seen[got] += 1
    assert seen[True] > 0
    assert seen[False] > 0 or n == 1


def test_class_longer_than_kn_raises():
    too_long = EdgeClass(Edge(0, 7), 3)
    with pytest.raises(EdgeTooLong):
        is_periodic_crossing_free([too_long], 2, 3)
    with pytest.raises(EdgeTooLong):
        lift_universe(3, 2).indices([edge_class_of(Edge(1, 4), 3), too_long])


def test_class_of_another_period_raises():
    with pytest.raises(StructureViolation, match="period 4, surface has 3"):
        is_periodic_crossing_free([edge_class_of(Edge(0, 4), 4)], 2, 3)


def test_universe_cache_is_bounded():
    try:
        for n in range(1, _CACHE_SIZE + 4):
            lift_universe(n, 1)
            info = lift_universe.cache_info()
            assert info.maxsize == _CACHE_SIZE
            assert info.currsize <= _CACHE_SIZE
    finally:
        lift_universe.cache_clear()


def test_universe_bit_order_is_edge_order():
    u = lift_universe(3, 2)
    assert u.edges == sorted(u.edges)
    assert lift_universe(3, 2) is u
    for i, c in enumerate(u.classes):
        members = [u.edges[p] for p in range(len(u.edges)) if u.translates[i] >> p & 1]
        assert members == [c.translate(t) for t in range(-5, 6)]
        assert u.through_rep[i] == u.adj[u.edges.index(c.rep)]


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


# sha256 of the JSON list of class representatives of every triangulation,
# in output order, frozen from the per-call windowed implementation.
ENUMERATION_DIGESTS = {
    (3, 2): (36, "7c6df75b38605e5cf07f5bc943a5aecfc77d93eca8ada9bcda0f4d9fb8dcfc42"),
    (4, 2): (400, "c56309b53cdc90527bdfcfc01ad47105fd7d7c15074af6565b3750336cdb25aa"),
    (2, 3): (8, "7427f3a228a02dc2a3de68a4465d2663149eb72fa603d347cb12f8d2219691e7"),
    (3, 3): (216, "fab2082f162f529b71e88730cb934f153328a3fc617bc867154b5b2164478422"),
    (6, 1): (252, "d8a89fcba58bab6dd7e56ab805ed0ca97ded9d3a71ff3ad6cc9200d0f75db70e"),
}


@pytest.mark.parametrize("n,k", sorted(ENUMERATION_DIGESTS))
def test_enumeration_output_frozen(n, k):
    found = enumerate_cylinder(cylinder(n, k))
    reps = [[[c.rep.a, c.rep.b] for c in t.classes] for t in found]
    assert (len(found), _digest(reps)) == ENUMERATION_DIGESTS[n, k]


# sha256 of the JSON list of validation outcomes ("ok" or "Type: message")
# over every C_n triangulation at k=2 and its one-class neighbours, frozen
# from the per-call windowed implementation.
VALIDATION_DIGESTS = {
    1: (3, "1b7a5f1651292e632aedfa45df59876c9b8779e10d296aae2525a2fb024caf07"),
    2: (36, "bb8d3070c73b7fe53042a3f581ea21535baa157f9e44aa40db596595ee1a6f9a"),
    3: (684, "979a275e8c225a1a4659e4e7268704cf3325be0277fddb9efac0bc19b1ef03fb"),
    4: (13200, "3dc835296011b74e38fce66b5b0ff2fb964e0c81d314bc86f99708ddcbb32413"),
}


def _validation_outcome(t) -> str:
    try:
        validate_cylinder_triangulation(t)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


@pytest.mark.parametrize("n", sorted(VALIDATION_DIGESTS))
def test_validation_outcomes_frozen(n):
    outcomes = [
        _validation_outcome(probe)
        for t in enumerate_cylinder(cylinder(n, 2))
        for probe in one_class_neighbours(t)
    ]
    assert (len(outcomes), _digest(outcomes)) == VALIDATION_DIGESTS[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_maximal_lifting_matches_windowed_oracle(n):
    radius = 5
    for t in enumerate_cylinder(cylinder(n, 2)):
        for probe in one_class_neighbours(t):
            classes = probe.class_set()
            free = windowed_crossing_free(classes, 2, n, radius)
            addable = [
                c for c in short_classes(n, 2) + relevant_class_candidates(n, 2)
                if free and c not in classes
                and windowed_crossing_free(classes | {c}, 2, n, radius)
            ]
            report = check_maximal_lifting(probe)
            assert (report["crossing_free"], report["addable"]) == (free, addable), probe
            assert report["ok"] == (free and not addable)


def test_maximal_lifting_rejects_crossing_lift():
    t = enumerate_cylinder(cylinder(3, 2))[0]
    crossing = CylinderTriangulation(
        t.surface, tuple(sorted(t.class_set() | {edge_class_of(Edge(1, 4), 3)})))
    with pytest.raises(StructureViolation, match="3-crossing"):
        validate_cylinder_triangulation(crossing)
    report = check_maximal_lifting(crossing)
    assert report["crossing_free"] is False
    assert report["addable"] == []
    assert report["ok"] is False
