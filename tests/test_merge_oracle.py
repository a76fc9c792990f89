"""The merge of search results against oracles.

`sorted_unions` reads each result's items off a mask of ranks through
per-byte union tables; its oracle sorts the chained items of the fixed part
and of the picked groups.  `_orbits` expands the rotation orbits of the
search's leaders through the same tables; its oracle closes each leader
under the universe's rotations one group index at a time and sorts the
masks by their bit-reversed value, descending.  Both are compared on every
enumerator instance of the budget, multi-member groups included (the shift
searches), and on hand-built cases around the byte boundaries of the
tables.
"""

from __future__ import annotations

import importlib
import random
from itertools import chain

import pytest

from conftest import SHIFT_INVARIANT_COUNTS
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
from multitri.surfaces import CrossingUniverse, bits, sorted_unions

polygon_module = importlib.import_module("multitri.polygon")
cylinder_module = importlib.import_module("multitri.cylinder")
orbits_in_search = surfaces._orbits
maximal_sets = CrossingUniverse.maximal_sets


def oracle_sorted_unions(fixed, groups, picks) -> list[tuple]:
    return [tuple(sorted(chain(fixed, *(groups[i] for i in bits(picked)))))
            for picked in picks]


def oracle_orbits(leaders, symmetries, count: int) -> list[int]:
    """Each leader's images under the group the rotations generate, by
    closure, in the search order of `maximal_sets`."""
    found = set()
    for leader in leaders:
        todo = [leader]
        while todo:
            mask = todo.pop()
            if mask not in found:
                found.add(mask)
                todo += [sum(1 << sigma[i] for i in bits(mask)) for sigma in symmetries]
    return sorted(found, reverse=True, key=lambda m: int(f"{m:0{count}b}"[::-1], 2))


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


def merges(enumerate_, *args) -> list:
    """The (fixed, groups, picks) of every `sorted_unions` call of
    `enumerate_(*args)`."""
    calls = []

    def spied(fixed, groups, picks):
        calls.append((fixed, groups, picks))
        return sorted_unions(fixed, groups, picks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polygon_module, "sorted_unions", spied)
        mp.setattr(cylinder_module, "sorted_unions", spied)
        enumerate_(*args)
    return calls


def expansions(enumerate_, *args) -> list:
    """The (universe, leaders, expanded) of every `_orbits` call of
    `enumerate_(*args)`."""
    universes, calls = [], []

    def spied_search(self, size=None):
        universes.append(self)
        return maximal_sets(self, size)

    def spied_orbits(leaders, image_of, copies):
        expanded = orbits_in_search(leaders, image_of, copies)
        calls.append((universes[-1], leaders, expanded))
        return expanded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CrossingUniverse, "maximal_sets", spied_search)
        mp.setattr(surfaces, "_orbits", spied_orbits)
        enumerate_(*args)
    return calls


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_sorted_unions_matches_oracle(case):
    enumerate_, *args = case
    [(fixed, groups, picks)] = merges(enumerate_, *args)
    assert sorted_unions(fixed, groups, picks) == oracle_sorted_unions(fixed, groups, picks)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_orbits_match_oracle(case):
    enumerate_, *args = case
    for universe, leaders, expanded in expansions(enumerate_, *args):
        assert expanded == oracle_orbits(leaders, universe.symmetries, len(universe.members))


def test_shift_searches_merge_multi_member_groups():
    """The shift searches are the cases whose groups hold several items."""
    sizes = {len(group) for m, k, shift in SHIFT_INVARIANT_COUNTS
             for _, groups, _ in merges(enumerate_shift_invariant, polygon(m, k), shift)
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
    assert (surfaces._orbits(leaders, image_of, copies)
            == oracle_orbits(leaders, symmetries, count))


def test_sorted_unions_edge_cases():
    assert sorted_unions([3, 1], [[2]], []) == []
    assert sorted_unions([3, 1, 2], [], [0, 0]) == [(1, 2, 3), (1, 2, 3)]
    assert sorted_unions([], [], [0]) == [()]
    assert sorted_unions([], [[5]], [0, 1]) == [(), (5,)]
