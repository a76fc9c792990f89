"""`trace_pipes` against the two-pass tracer it replaced.

`oracle_trace_pipes` walks every pipe, remembering which pipe owns each
strand of each tile, and then makes a second pass over every tile to pair
the owners of the two strands of each cross tile.  `trace_pipes` records a
crossing during its one walk, when the second pipe passes a cross tile.
Both must give the same paths, permutation and crossings, cell order
included, on reduced dreams and on non-reduced staircases.  A pair may
cross more than once only in a non-reduced dream; `trace_pipes` lists those
cells in the order the higher pipe passes them, which on a staircase is
the oracle's tile order and on a chevron may not be.
"""

from __future__ import annotations

import random

import pytest

from multitri import (
    BUMP,
    CHEVRON,
    CROSS,
    STAIRCASE,
    PipeDream,
    PolygonTriangulation,
    TraceResult,
    chevron_from_staircase,
    cylinder,
    enumerate_cylinder,
    enumerate_polygon,
    phi,
    polygon,
    staircase_from_triangulation,
    trace_pipes,
)
from multitri.errors import MalformedShape
from multitri.pipedreams import CONNECTIONS, PipePath, _neighbor, boundary_ports

OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}


def oracle_trace_pipes(p: PipeDream) -> TraceResult:
    """The two-pass tracer: strand owners first, then every cross tile."""
    ports = boundary_ports(p)
    entries = sorted(
        [q for q in ports if q[0] == "W"], key=lambda q: -q[1]
    ) + sorted(
        [q for q in ports if q[0] == "S"], key=lambda q: q[2]
    )
    paths = []
    strand_owner = {}
    for pipe, (side, r, c) in enumerate(entries):
        pos = (r, c)
        in_side = side
        visited = []
        while True:
            kind = p.tiles[pos]
            if in_side not in CONNECTIONS[kind]:
                raise MalformedShape(
                    f"pipe {pipe} enters {pos} from {in_side}, a side the "
                    f"{kind} tile does not connect")
            out_side = CONNECTIONS[kind][in_side]
            visited.append((pos[0], pos[1], out_side))
            strand_owner[pos, frozenset((in_side, out_side))] = pipe
            nxt = _neighbor(*pos, out_side)
            if nxt not in p.tiles:
                paths.append(PipePath((side, r, c), (out_side, *pos), tuple(visited)))
                break
            pos = nxt
            in_side = OPPOSITE[out_side]
    crossings: dict[tuple[int, int], tuple] = {}
    for (r, c), kind in p.tiles.items():
        if kind != CROSS:
            continue
        a = strand_owner.get(((r, c), frozenset(("W", "E"))))
        b = strand_owner.get(((r, c), frozenset(("S", "N"))))
        if a is None or b is None or a == b:
            continue
        pair = (min(a, b), max(a, b))
        crossings[pair] = crossings.get(pair, ()) + ((r, c),)
    permutation = None
    if p.shape == STAIRCASE:
        permutation = [path.exit[2] for path in paths]
    return TraceResult(tuple(paths), crossings, permutation)


def assert_same_trace(p: PipeDream):
    got, want = trace_pipes(p), oracle_trace_pipes(p)
    assert got.paths == want.paths
    assert got.permutation == want.permutation
    assert got.crossings == want.crossings
    return got


def random_filling(p: PipeDream, rng: random.Random) -> PipeDream:
    """The same shape and elbows with every box a bump or a cross at random."""
    tiles = {rc: rng.choice((BUMP, CROSS)) if kind in (BUMP, CROSS) else kind
             for rc, kind in p.tiles.items()}
    return PipeDream(p.shape, tiles, p.m, p.k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_images_of_the_cylinder(n):
    for t in enumerate_cylinder(cylinder(n, 2)):
        staircase = staircase_from_triangulation(phi(t).inner)
        assert_same_trace(staircase)
        chevron = assert_same_trace(chevron_from_staircase(staircase))
        assert all(len(cells) == 1 for cells in chevron.crossings.values())


def test_every_9gon_staircase():
    for t in enumerate_polygon(polygon(9, 2)):
        assert_same_trace(staircase_from_triangulation(t))


@pytest.mark.parametrize("m,k", [(5, 1), (8, 1), (8, 2), (9, 2), (12, 2), (10, 3), (16, 2)])
def test_random_staircase_fillings(m, k):
    rng = random.Random(m * 100 + k)
    shape = staircase_from_triangulation(PolygonTriangulation(polygon(m, k), ()))
    repeated = 0
    for _ in range(60):
        got = assert_same_trace(random_filling(shape, rng))
        repeated += any(len(cells) > 1 for cells in got.crossings.values())
    assert repeated  # pairs crossing twice are covered


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_chevron_fillings(n):
    rng = random.Random(n)
    t = enumerate_cylinder(cylinder(n, 2))[0]
    shape = chevron_from_staircase(staircase_from_triangulation(phi(t).inner))
    assert shape.shape == CHEVRON
    repeated = 0
    for _ in range(60):
        dream = random_filling(shape, rng)
        got, want = trace_pipes(dream), oracle_trace_pipes(dream)
        assert got.paths == want.paths
        assert got.permutation is want.permutation is None
        assert {pair: sorted(cells) for pair, cells in got.crossings.items()} == {
            pair: sorted(cells) for pair, cells in want.crossings.items()}
        for (low, high), cells in got.crossings.items():
            order = [(r, c) for (r, c, _) in got.paths[high].visited if (r, c) in cells]
            assert list(cells) == order
        repeated += any(len(cells) > 1 for cells in got.crossings.values())
    assert repeated
