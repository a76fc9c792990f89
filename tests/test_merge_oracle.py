"""The merge of search results against oracles.

`sorted_unions` reads each result's items off a mask of ranks through
per-byte union tables and sorts the results; its oracle sorts the chained
items of the fixed part and of the picked groups, then the tuples.
`_orbits` expands the rotation orbits of the search's leaders through the
same tables, in no order; its oracle closes each leader under the
universe's rotations one group index at a time, and the two are compared
as sorted lists, so a dropped or repeated mask still shows.  Both are
compared on every enumerator instance of the budget, multi-member groups
included (the shift searches), and on hand-built cases around the byte
boundaries of the tables.  Each instance is enumerated once for both
oracles, by the cached `conftest.spied_enumeration`.
"""

from __future__ import annotations

import random
from itertools import chain
from math import inf

import pytest

from conftest import SHIFT_INVARIANT_COUNTS, spied_enumeration
from multitri import (
    cylinder,
    enumerate_cylinder,
    enumerate_polygon,
    enumerate_shift_invariant,
    polygon,
)
from multitri import surfaces
from multitri.cylinder import ENUMERATION_BUDGET as CYLINDER_BUDGET
from multitri.polygon import ENUMERATION_BUDGET as POLYGON_BUDGET
from multitri.surfaces import bits, sorted_unions


def oracle_sorted_unions(fixed, groups, picks) -> list[tuple]:
    """The tuples sorted, a tuple that is a prefix of another after it
    (read as ending in an item above every other)."""
    return sorted((tuple(sorted(chain(fixed, *(groups[i] for i in bits(picked)))))
                   for picked in picks), key=lambda items: (*items, inf))


def oracle_orbits(leaders, symmetries) -> list[int]:
    """Each leader's images under the group the rotations generate, by
    closure, sorted."""
    found = set()
    for leader in leaders:
        todo = [leader]
        while todo:
            mask = todo.pop()
            if mask not in found:
                found.add(mask)
                todo += [sum(1 << sigma[i] for i in bits(mask)) for sigma in symmetries]
    return sorted(found)


CASES = (
    [(enumerate_polygon, polygon(n, k))
     for k, top in sorted(POLYGON_BUDGET.items()) for n in range(3, top + 1)]
    + [(enumerate_shift_invariant, polygon(m, k), shift)
       for m, k, shift in sorted(SHIFT_INVARIANT_COUNTS)]
    + [(enumerate_cylinder, cylinder(n, k))
       for k, top in sorted(CYLINDER_BUDGET.items()) for n in range(1, top + 1)])


def case_id(case) -> str:
    surface, *shift = case[1:]
    return "-".join(map(str, [surface.kind, surface.n, surface.k, *shift]))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_sorted_unions_matches_oracle(case):
    [(fixed, groups, picks)] = spied_enumeration(*case).merges
    assert sorted_unions(fixed, groups, picks) == oracle_sorted_unions(fixed, groups, picks)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_orbits_match_oracle(case):
    for universe, leaders, expanded in spied_enumeration(*case).expansions:
        assert sorted(expanded) == oracle_orbits(leaders, universe.symmetries)


def test_shift_searches_merge_multi_member_groups():
    """The shift searches are the cases whose groups hold several items."""
    sizes = {len(group) for m, k, shift in SHIFT_INVARIANT_COUNTS
             for _, groups, _ in spied_enumeration(
                 enumerate_shift_invariant, polygon(m, k), shift).merges
             for group in groups}
    assert max(sizes) > 1


def hand_built(count: int, seed: int):
    """`count` groups of one to three distinct integers, a fixed part, and
    masks with the empty pick, every group, the top group alone and the
    top group with random others."""
    rng = random.Random(seed)
    items = rng.sample(range(1000), 5 + 3 * count)
    fixed, rest = items[:5], items[5:]
    groups = []
    for i in range(count):
        size = 1 + i % 3
        groups.append(rest[:size])
        rest = rest[size:]
    top = 1 << count - 1 if count else 0
    picks = [0, (1 << count) - 1, top] + [rng.getrandbits(count) | top for _ in range(20)]
    return fixed, groups, picks


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 16, 17])
def test_sorted_unions_across_byte_boundaries(count):
    fixed, groups, picks = hand_built(count, seed=count)
    assert sorted_unions(fixed, groups, picks) == oracle_sorted_unions(fixed, groups, picks)
    assert sorted_unions([], groups, picks) == oracle_sorted_unions([], groups, picks)
    shuffled = random.Random(count).sample(picks, len(picks))
    assert sorted_unions(fixed, groups, shuffled) == sorted_unions(fixed, groups, picks)


@pytest.mark.parametrize("count", [7, 8, 9, 16, 17])
def test_orbits_across_byte_boundaries(count):
    """The rotations of `count` groups by one step and its powers, packed as
    `maximal_sets` packs them; the step moves the top group onto group 0."""
    symmetries = [[(i + s) % count for i in range(count)] for s in range(1, count)]
    width = count + 1
    copies = sum(1 << s * width for s in range(len(symmetries)))
    image_of = [sum(1 << s * width + sigma[i] for s, sigma in enumerate(symmetries))
                for i in range(count)]
    rng, top = random.Random(count), 1 << count - 1
    leaders = [top, (1 << count) - 1] + [rng.getrandbits(count) | top for _ in range(20)]
    assert sorted(surfaces._orbits(leaders, image_of, copies)) == oracle_orbits(leaders, symmetries)


def test_sorted_unions_edge_cases():
    assert sorted_unions([3, 1], [[2]], []) == []
    assert sorted_unions([3, 1, 2], [], [0, 0]) == [(1, 2, 3), (1, 2, 3)]
    assert sorted_unions([], [], [0]) == [()]
    assert sorted_unions([], [[5]], [0, 1]) == sorted_unions([], [[5]], [1, 0]) == [(5,), ()]
