"""The search of `CrossingUniverse.maximal_sets` against an oracle.

`oracle_maximal_sets` is that search without forward checking.  With no
`size` it tests every absent group at each leaf and prunes on no count:
the leaf-check search.  `unbounded` runs an enumerator with the leaf-check
search in place of the bounded one, and the bounded enumerator must return
the same list; `test_forward_checking_matches_oracle` compares the two
searches mask for mask, with and without the size.  The largest budget
instances are too slow for the oracle and are checked against the
Catalan-Hankel counts instead; the largest, the 81,796 triangulations of
the 12-gon at k=3, took 0.8-1.0 s and 65 MB peak RSS to enumerate (three
runs on a shared 2-vCPU host).

The search returns its results in no promised order and `sorted_unions`
sorts the enumerators' output; the tests at the end check that it is
sorted.
"""

from __future__ import annotations

from collections import Counter

import pytest

from conftest import CYLINDER_COUNTS_K2, POLYGON_COUNTS, SHIFT_INVARIANT_COUNTS, spied_enumeration
from multitri import (
    cylinder,
    enumerate_cylinder,
    enumerate_polygon,
    enumerate_shift_invariant,
    expected_class_count,
    expected_edge_count,
    polygon,
    validate_cylinder_triangulation,
)
from multitri import surfaces
from multitri.polygon import ENUMERATION_BUDGET
from multitri.surfaces import CrossingUniverse, window_translations

maximal_sets = CrossingUniverse.maximal_sets


def oracle_maximal_sets(universe, size=None):
    """`CrossingUniverse.maximal_sets` before forward checking: each group is
    tested only when the search reaches it."""
    k, adj, rows, members = universe.k, universe.adj, universe.through_rep, universe.members
    own = members if universe.own_blocks else [0] * len(members)
    count, floor = len(members), size or 0
    found: list[int] = []

    def rec(i: int, picked: int, lift: int, possible: int):
        if i == count:
            if size is None:
                for j in range(count):
                    if not lift & members[j] and not surfaces.has_clique(
                            adj, k, within=rows[j] & (lift | own[j])):
                        return
            found.append(picked)
            return
        group = members[i]
        if not surfaces.has_clique(adj, k, within=rows[i] & (lift | group)):
            rec(i + 1, picked | 1 << i, lift | group, possible)
        possible &= ~group
        if possible.bit_count() >= floor and surfaces.has_clique(
                adj, k, within=rows[i] & (possible | own[i])):
            rec(i + 1, picked, lift, possible)

    rec(0, 0, 0, universe.lift(range(count)))
    return found


def unbounded(enumerate_, *args):
    """`enumerate_(*args)` with the oracle's leaf-check search in place of
    the bound."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CrossingUniverse, "maximal_sets",
                   lambda self, size=None: oracle_maximal_sets(self))
        return enumerate_(*args)


POLYGON_CASES = [(n, k) for k in (1, 2, 3) for n in range(3, ENUMERATION_BUDGET[k])]


@pytest.mark.parametrize("n,k", POLYGON_CASES)
def test_polygon_bound_matches_leaf_check(n, k):
    found = enumerate_polygon(polygon(n, k))
    assert found == unbounded(enumerate_polygon, polygon(n, k))


@pytest.mark.parametrize("m,k,shift", sorted(SHIFT_INVARIANT_COUNTS))
def test_shift_invariant_bound_matches_leaf_check(m, k, shift):
    found = enumerate_shift_invariant(polygon(m, k), shift)
    assert len(found) == SHIFT_INVARIANT_COUNTS[m, k, shift]
    assert found == unbounded(enumerate_shift_invariant, polygon(m, k), shift)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cylinder_k2_bound_matches_leaf_check(n):
    found = enumerate_cylinder(cylinder(n, 2))
    assert len(found) == CYLINDER_COUNTS_K2[n]
    assert found == unbounded(enumerate_cylinder, cylinder(n, 2))


def test_cylinder_c5_bound_gives_distinct_valid_triangulations(cylinder_k2_triangulations):
    found = cylinder_k2_triangulations[5]
    assert len({t.classes for t in found}) == len(found) == CYLINDER_COUNTS_K2[5]
    for t in found[::49]:
        assert len(t.classes) == expected_class_count(5, 2)
        validate_cylinder_triangulation(t)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_largest_polygon_budget_matches_catalan_hankel(k):
    """The enumerations the merge oracles read (`spied_enumeration`)."""
    n = ENUMERATION_BUDGET[k]
    found = spied_enumeration(enumerate_polygon, polygon(n, k)).found
    assert len({t.edges for t in found}) == len(found) == POLYGON_COUNTS[n, k]
    assert {len(t.edges) for t in found} == {expected_edge_count(n, k)}


def searched(enumerate_, *args) -> list:
    """The (universe, size) of every `maximal_sets` call of `enumerate_(*args)`."""
    calls = []

    def spied(self, size=None):
        calls.append((self, size))
        return maximal_sets(self, size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CrossingUniverse, "maximal_sets", spied)
        enumerate_(*args)
    return calls


DIFFERENTIAL_CASES = (
    [(enumerate_polygon, polygon(n, k)) for n, k in POLYGON_CASES]
    + [(enumerate_shift_invariant, polygon(m, k), shift)
       for m, k, shift in sorted(SHIFT_INVARIANT_COUNTS)]
    + [(enumerate_cylinder, cylinder(n, k))
       for k, top in ((1, 6), (2, 4), (3, 3)) for n in range(1, top + 1)])


def case_id(case) -> str:
    surface, *shift = case[1:]
    return "-".join(map(str, [surface.kind, surface.n, surface.k, *shift]))


@pytest.mark.parametrize("case", DIFFERENTIAL_CASES, ids=case_id)
def test_forward_checking_matches_oracle(case):
    """Forward checking drops and repeats no result, with and without the
    size bound."""
    enumerate_, *args = case
    for universe, size in searched(enumerate_, *args):
        assert sorted(universe.maximal_sets(size)) == sorted(oracle_maximal_sets(universe, size))
        if size is not None:
            assert sorted(universe.maximal_sets()) == sorted(oracle_maximal_sets(universe))


def count_has_clique(run) -> Counter:
    """The `surfaces.has_clique` calls made by `run()`, counted by clique size."""
    sizes: Counter = Counter()
    counted = surfaces.has_clique

    def counting(adj, size, within=None):
        sizes[size] += 1
        return counted(adj, size, within)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surfaces, "has_clique", counting)
        run()
    return sizes


# The bound on the search's `has_clique` calls sits above the counts of
# forward checking as the one blocked test (1,324, 2,373 and 802 with the
# lex-leader cut, 768 and 290 of them 0-clique tests at k=1; 4,998, 5,586
# and 3,972 without the cut) and below those of the search that also
# tested each group on inclusion (24,554, 9,163 and 11,780).
@pytest.mark.parametrize("enumerate_,surface,bound",
                         [(enumerate_polygon, polygon(10, 1), 10_000),
                          (enumerate_cylinder, cylinder(4, 2), 6_000),
                          (enumerate_cylinder, cylinder(6, 1), 10_000)],
                         ids=["polygon-10-1", "cylinder-4-2", "cylinder-6-1"])
def test_forward_checking_prunes(enumerate_, surface, bound):
    """Forward checking makes strictly fewer `has_clique` calls than the
    oracle on the same universe and size, so it cannot be switched off
    unnoticed, and no more than `bound`, so a second blocked test cannot
    come back unnoticed."""
    [(universe, size)] = searched(enumerate_, surface)
    fast = count_has_clique(lambda: universe.maximal_sets(size)).total()
    slow = count_has_clique(lambda: oracle_maximal_sets(universe, size)).total()
    assert 0 < fast < slow
    assert fast <= bound


def test_forward_checking_looks_through_the_included_group():
    """After an inclusion, a later group is tested for a (k-1)-clique
    through one member of the included group, not for a k-clique: on the
    9-gon at k=2 those tests outnumber the k-clique tests of the exclude cut
    and the seed (3,809 against 1,184)."""
    sizes = count_has_clique(lambda: enumerate_polygon(polygon(9, 2)))
    assert set(sizes) == {1, 2}
    assert sizes[1] > sizes[2]


def test_leaf_test_skips_groups_found_blocked():
    """With `own_blocks`, the leaf test of the leaf-check search skips the
    groups that forward checking found blocked: C_6 at k=1 makes 512
    calls, where testing every absent group made 7,936."""
    assert count_has_clique(lambda: enumerate_cylinder(cylinder(6, 1))).total() <= 6_000


def test_lex_leader_cut_searches_one_result_per_orbit():
    """The 11-gon at k=3 has 4,719 triangulations in 429 rotation orbits:
    the search keeping one result per orbit makes 18,304 `has_clique`
    calls, where the one visiting every result made 91,684."""
    assert count_has_clique(lambda: enumerate_polygon(polygon(11, 3))).total() <= 45_000


def test_seed_drops_groups_blocked_by_their_own_members():
    """Three of the six long orbits of the 9-gon at k=2 under rotation by 3
    hold a 3-crossing among their own edges, so the search starts without
    them; there is no invariant 2-triangulation."""
    [(universe, size)] = searched(enumerate_shift_invariant, polygon(9, 2), 3)
    own = [universe.blocked(i, 0) for i in range(len(universe.members))]
    assert (own.count(True), len(own)) == (3, 6)
    assert universe.maximal_sets(size) == universe.maximal_sets() == []


def spy_sizes(monkeypatch) -> list:
    """Record the `size` of every `maximal_sets` call from now on."""
    sizes = []

    def spied(self, size=None):
        sizes.append(size)
        return maximal_sets(self, size)

    monkeypatch.setattr(CrossingUniverse, "maximal_sets", spied)
    return sizes


@pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (6, 1), (1, 3), (2, 3), (3, 3)])
def test_cylinder_passes_no_size_off_k2(monkeypatch, n, k):
    """Purity of the cylinder complex is proved at k=2 only."""
    sizes = spy_sizes(monkeypatch)
    enumerate_cylinder(cylinder(n, k))
    assert sizes == [None]


def test_sizes_passed_where_purity_is_proved(monkeypatch):
    sizes = spy_sizes(monkeypatch)
    enumerate_polygon(polygon(9, 2))
    enumerate_shift_invariant(polygon(12, 2), 3)
    for n in (1, 2, 3):
        enumerate_cylinder(cylinder(n, 2))
    # 9-gon: 26 edges, 18 short; 12-gon: 38 edges, 24 short; C_n at k=2:
    # 2n-2 relevant classes, each with its window translates.
    assert sizes == [8, 14] + [(2 * n - 2) * len(window_translations(2)) for n in (1, 2, 3)]


# `surfaces.has_clique` calls of the leaf-check search, before the bound.
LEAF_CHECK_CALLS = {"polygon(9, 2)": 42121, "shift 3 of polygon(12, 2)": 1225,
                    "cylinder(3, 2)": 1456}


def test_every_search_node_still_calls_has_clique():
    """The search makes every `has_clique` call through the module global,
    the one place a caller can count search work.  A node deciding a group
    already found blocked makes none."""
    runs = {"polygon(9, 2)": lambda: enumerate_polygon(polygon(9, 2)),
            "shift 3 of polygon(12, 2)": lambda: enumerate_shift_invariant(polygon(12, 2), 3),
            "cylinder(3, 2)": lambda: enumerate_cylinder(cylinder(3, 2))}
    for name, run in runs.items():
        assert 0 < count_has_clique(run).total() < LEAF_CHECK_CALLS[name], name


def assert_sorted(keys):
    keys = list(keys)
    assert keys == sorted(keys)


@pytest.mark.parametrize("n,k", POLYGON_CASES)
def test_polygon_search_order_is_sorted_order(n, k):
    assert_sorted(t.edges for t in enumerate_polygon(polygon(n, k)))


@pytest.mark.parametrize("m,k,shift", sorted(SHIFT_INVARIANT_COUNTS))
def test_shift_invariant_search_order_is_sorted_order(m, k, shift):
    assert_sorted(t.edges for t in enumerate_shift_invariant(polygon(m, k), shift))


def test_cylinder_k2_search_order_is_sorted_order(cylinder_k2_triangulations):
    for found in cylinder_k2_triangulations.values():
        assert_sorted(t.classes for t in found)


@pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (6, 1), (1, 3), (2, 3), (3, 3)])
def test_cylinder_leaf_check_search_order_is_sorted_order(n, k):
    assert_sorted(t.classes for t in enumerate_cylinder(cylinder(n, k)))
