"""`find_angles` against the window scan it replaces.

`oracle_find_angles` collects the fan at each apex in [0, n) by scanning
every class at every translate of `window_translations`; the library reads
it from the per-residue offsets of `_cover_offsets`.  Both must give the same angles in
the same order, or raise the same exception with the same message, on every
enumerated triangulation within the budget and on random class sets,
duplicates included, whose classes are at most 2kn long (the window holds
every translate of those).
"""

from __future__ import annotations

import itertools
import random

import pytest

from multitri import CylinderTriangulation, Edge, EdgeClass, cylinder, enumerate_cylinder, find_angles
from multitri.cylinder import Angle
from multitri.errors import StructureViolation
from multitri.surfaces import cyclically_ordered, window_translations


def oracle_find_angles(t: CylinderTriangulation) -> list[Angle]:
    n, k = t.surface.n, t.surface.k
    rights: list[list[int]] = [[] for _ in range(n)]
    lefts: list[list[int]] = [[] for _ in range(n)]
    for c in t.classes:
        for s in window_translations(k):
            a, b = c.rep.a + s * n, c.rep.b + s * n  # c.translate(s)
            if 0 <= a < n:
                rights[a].append(b)
            if 0 <= b < n:
                lefts[b].append(a)
    angles = []
    for v in range(n):
        fan = sorted(rights[v]) + sorted(lefts[v])
        for w, u in itertools.pairwise(fan):
            if not cyclically_ordered(u, v, w):
                raise StructureViolation(f"fan neighbors {w}, {u} at {v} out of order")
            lens = (abs(v - u), abs(w - v))
            relevant = any(k < l < k * n for l in lens)
            angles.append(Angle(u, v, w, relevant))
    return angles


def _outcome(find, t):
    try:
        return find(t)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)


@pytest.mark.parametrize("n,k", [(n, 1) for n in range(1, 7)] + [(n, 3) for n in range(1, 4)])
def test_matches_oracle_on_every_triangulation(n, k):
    for t in enumerate_cylinder(cylinder(n, k)):
        assert find_angles(t) == oracle_find_angles(t), t


def test_matches_oracle_on_every_2_triangulation(cylinder_k2_triangulations):
    for triangulations in cylinder_k2_triangulations.values():
        for t in triangulations:
            assert find_angles(t) == oracle_find_angles(t), t


@pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2, 3) for n in (1, 2, 3, 4)])
def test_matches_oracle_on_random_class_sets(n, k):
    rng = random.Random(1000 * n + k)
    pool = [EdgeClass(Edge(a, a + length), n)
            for a in range(n) for length in range(1, 2 * k * n + 1)]
    raised = 0
    for _ in range(200):
        classes = tuple(rng.choices(pool, k=rng.randint(0, 3 * k * n)))
        t = CylinderTriangulation(cylinder(n, k), classes)
        found = _outcome(find_angles, t)
        assert found == _outcome(oracle_find_angles, t), classes
        raised += isinstance(found, tuple)
    assert raised > 0
