"""The three checks a flip no longer repeats, against the checks they replaced.

- `phi`'s (k+1)-crossing check is one clique search on the m-gon's cached
  crossing rows (`bijection._polygon_rows`), restricted to the image's long
  edges; it replaced `crossing_rows` built per call on those edges alone.
- `orbit_flip` decides the flipped family by one `blocked` test of the new
  class against the lift of t minus e; it replaced `crossing_free` over
  every class of the new list.
- `phi` builds its image as periodic with no shift check; the public
  `PeriodicPolygonTriangulation` constructor keeps it.
"""

from __future__ import annotations

import itertools

import pytest

from multitri import (
    CylinderTriangulation,
    NotPeriodic,
    PeriodicPolygonTriangulation,
    StructureViolation,
    cyclic_length,
    cylinder,
    enumerate_cylinder,
    enumerate_polygon,
    has_k_plus_1_crossing,
    is_periodic_crossing_free,
    is_shift_invariant,
    orbit_flip,
    phi,
    polygon,
    relevant_class_candidates,
    short_classes,
)
from multitri import bijection, flips
from multitri.surfaces import crossing_rows, has_clique, lift_universe

from test_geometry_oracle import oracle_orbit


def image_edges(classes, k: int) -> list:
    """The polygon edges the classes wrap onto, sorted, from the oracle orbit."""
    return sorted({e for c in classes for e in oracle_orbit(c, k)})


def per_call_crossing(edges, m: int, k: int) -> bool:
    """The check `phi` made before the cached rows: a clique search on the
    crossing graph of the image's long edges, built for this call."""
    longs = [e for e in edges if cyclic_length(e, m) > k]
    return len(longs) > k and has_clique(crossing_rows(longs), k + 1)


def swaps(t: CylinderTriangulation):
    """t with one relevant class replaced by an absent one of the same
    kind (spanning or not), so the image keeps its edge count."""
    n, k = t.surface.n, t.surface.k
    present = t.class_set()
    for e in t.relevant_classes():
        for f in relevant_class_candidates(n, k):
            if f not in present and f.is_spanning(k) == e.is_spanning(k):
                yield CylinderTriangulation(t.surface, tuple(sorted(present - {e} | {f})))


PHI_CASES = [(n, 2) for n in range(1, 5)] + [(n, 3) for n in range(1, 4)]


@pytest.mark.parametrize("n,k", PHI_CASES)
def test_phi_accepts_every_triangulation_and_its_image_is_crossing_free(n, k):
    m = 2 * k * n
    for t in enumerate_cylinder(cylinder(n, k)):
        edges = image_edges(t.classes, k)
        assert not has_k_plus_1_crossing(edges, k, polygon(m, k))
        image = phi(t)
        assert list(image.inner.edges) == edges
        assert image == PeriodicPolygonTriangulation(image.inner, n)


# (n, k, step, whether some swap crosses): every swap on C_2 at k=2 is a
# triangulation again.
SWAP_CASES = [(2, 2, 1, False), (3, 2, 1, True), (4, 2, 5, True), (2, 3, 1, True),
              (3, 3, 9, True)]


@pytest.mark.parametrize("n,k,step,crosses", SWAP_CASES)
def test_phi_raises_on_a_crossing_exactly_when_the_per_call_rows_do(n, k, step, crosses):
    """Every single swap of every step-th triangulation: `phi` raises the
    crossing StructureViolation iff the per-call check finds a crossing,
    which `has_k_plus_1_crossing` confirms, and otherwise returns the
    oracle image."""
    m = 2 * k * n
    outcomes = set()
    for t in enumerate_cylinder(cylinder(n, k))[::step]:
        for u in swaps(t):
            edges = image_edges(u.classes, k)
            crossing = per_call_crossing(edges, m, k)
            assert crossing == has_k_plus_1_crossing(edges, k, polygon(m, k))
            try:
                image = phi(u)
            except StructureViolation as exc:
                assert crossing and str(exc) == f"image contains a {k + 1}-crossing"
            else:
                assert not crossing and list(image.inner.edges) == edges
            outcomes.add(crossing)
    assert outcomes == {False, crosses}


def test_polygon_rows_are_cached_and_bounded():
    t = enumerate_cylinder(cylinder(3, 2))[0]
    phi(t)
    hits = bijection._polygon_rows.cache_info().hits
    phi(t)
    assert bijection._polygon_rows.cache_info().hits == hits + 1
    assert bijection._polygon_rows(12) == crossing_rows(bijection._polygon_edges(12))
    for m in range(3, bijection._CACHE_SIZE + 6):
        bijection._polygon_rows(m)
        info = bijection._polygon_rows.cache_info()
        assert info.maxsize == bijection._CACHE_SIZE and info.currsize <= info.maxsize


def greedy(n: int, k: int) -> CylinderTriangulation:
    """A triangulation of C_n built class by class, with no enumeration."""
    classes = list(short_classes(n, k))
    for c in relevant_class_candidates(n, k):
        if is_periodic_crossing_free(classes + [c], k, n):
            classes.append(c)
    return CylinderTriangulation(cylinder(n, k), tuple(sorted(classes)))


@pytest.mark.parametrize("n,k", [(7, 2), (5, 3), (13, 1)])
def test_phi_past_the_cached_rows_checks_the_image_edges(monkeypatch, n, k):
    """Past `_ROWS_MAX_M` no rows are built, and the verdicts are the
    per-call check's."""
    m = 2 * k * n
    assert m > bijection._ROWS_MAX_M

    def refuse(m):
        raise AssertionError(f"crossing rows of the {m}-gon built")

    monkeypatch.setattr(bijection, "_polygon_rows", refuse)
    t = greedy(n, k)
    outcomes = set()
    for u in [t, *itertools.islice(swaps(t), 0, None, 7)]:
        edges = image_edges(u.classes, k)
        crossing = per_call_crossing(edges, m, k)
        try:
            image = phi(u)
        except StructureViolation as exc:
            assert crossing and str(exc) == f"image contains a {k + 1}-crossing"
        else:
            assert not crossing and list(image.inner.edges) == edges
        outcomes.add(crossing)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_blocked_test_decides_the_flipped_family(n):
    """For every relevant class e of every triangulation t and every absent
    class g, `blocked` of g against the lift of t minus e is the verdict of
    `crossing_free` over the whole new list, and the one class it leaves
    unblocked is the flip."""
    k = 2
    universe = lift_universe(n, k)
    candidates = relevant_class_candidates(n, k)
    for t in enumerate_cylinder(cylinder(n, k)):
        present = t.class_set()
        for e in t.relevant_classes():
            rest = present - {e}
            lift = universe.lift(universe.index[c] for c in rest if c.length > k)
            unblocked = []
            for g in candidates:
                if g in present:
                    continue
                blocked = universe.blocked(universe.index[g], lift)
                assert blocked == (not is_periodic_crossing_free([*rest, g], k, n))
                if not blocked:
                    unblocked.append(g)
            assert unblocked == [orbit_flip(t, e)[1]]


@pytest.mark.parametrize("n", [2, 3])
def test_orbit_flip_raises_exactly_for_a_crossing_family(monkeypatch, n):
    """With both backends naming each absent class in turn, `orbit_flip`
    raises "created a crossing" iff the new list's lift has a crossing."""
    raised = returned = 0
    for t in enumerate_cylinder(cylinder(n, 2)):
        for e in t.relevant_classes():
            rest = t.class_set() - {e}
            for g in relevant_class_candidates(n, 2):
                if g in t.class_set():
                    continue
                for backend in ("_flip_via_stars", "_flip_via_chevron"):
                    monkeypatch.setattr(flips, backend, lambda *args, g=g: g)
                if is_periodic_crossing_free([*rest, g], 2, n):
                    flipped, f = orbit_flip(t, e)
                    assert f == g and flipped.class_set() == rest | {g}
                    returned += 1
                else:
                    with pytest.raises(StructureViolation, match="created a crossing"):
                        orbit_flip(t, e)
                    raised += 1
                monkeypatch.undo()
    assert raised and returned == sum(len(t.relevant_classes())
                                      for t in enumerate_cylinder(cylinder(n, 2)))


def test_phi_runs_no_shift_check(monkeypatch):
    def refuse(*args):
        raise AssertionError("phi's image is periodic by construction")

    images = [phi(t) for t in enumerate_cylinder(cylinder(3, 2))]
    monkeypatch.setattr(bijection, "_unshifted", refuse)
    assert [phi(t) for t in enumerate_cylinder(cylinder(3, 2))] == images
    with pytest.raises(AssertionError, match="by construction"):
        PeriodicPolygonTriangulation(images[0].inner, 3)


@pytest.mark.parametrize("m,k,period", [(6, 1, 3), (8, 1, 4), (10, 1, 5), (8, 2, 2)])
def test_the_constructor_still_refuses_a_non_periodic_set(m, k, period):
    kinds = set()
    for t in enumerate_polygon(polygon(m, k)):
        periodic = is_shift_invariant(t, period)
        if periodic:
            assert PeriodicPolygonTriangulation(t, period).inner == t
        else:
            with pytest.raises(NotPeriodic, match=f"but its shift by {period} is not"):
                PeriodicPolygonTriangulation(t, period)
        kinds.add(periodic)
    assert kinds == {True, False}
