"""Shared fixtures: the running 12-gon example, its cylinder counterpart,
golden ASCII renderings, and frozen enumeration counts.

Expected values marked "oracle" were produced by independent computations
(Hankel determinants of Catalan numbers for polygon counts, direct
shift-invariant enumeration for cylinder counts, exhaustive filling
enumeration for pipe dream counts) and are frozen here as literals.
"""

from __future__ import annotations

import pytest

from multitri import (
    CylinderTriangulation,
    Edge,
    PolygonTriangulation,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    polygon,
    short_edges,
)

# Catalan-Hankel oracle counts for polygon k-triangulations, keyed (n, k).
POLYGON_COUNTS = {
    (5, 1): 5,
    (6, 1): 14,
    (7, 1): 42,
    (8, 1): 132,
    (9, 1): 429,
    (10, 1): 1430,
    (12, 1): 16796,
    (5, 2): 1,
    (6, 2): 3,
    (7, 2): 14,
    (8, 2): 84,
    (9, 2): 594,
    (10, 2): 4719,
    (12, 2): 379236,
    (7, 3): 1,
    (8, 3): 4,
    (9, 3): 30,
    (10, 3): 330,
    (12, 3): 81796,
}

# (m, k, shift) and the number of k-triangulations of the m-gon invariant
# under rotation by shift, from the frozenset oracle of test_shift_invariant.
SHIFT_INVARIANT_COUNTS = {
    (8, 1, 4): 20, (9, 1, 3): 6, (10, 1, 5): 70, (12, 1, 4): 20, (12, 1, 6): 252,
    (8, 2, 2): 4, (8, 2, 4): 20, (9, 2, 3): 0, (10, 2, 5): 175, (12, 2, 3): 36,
    (12, 2, 4): 0, (12, 3, 2): 8, (12, 3, 4): 40,
}

# Half-cylinder counts for k=2, confirmed against the shift-invariant
# polygon enumeration for n <= 3.
CYLINDER_COUNTS_K2 = {1: 1, 2: 4, 3: 36, 4: 400, 5: 4900}

# The running 12-gon 2-triangulation: 24 short edges plus 14 long ones
# (four fans of the four relevant orbits and the two spanning diagonals).
WORKED_12GON_LONG = [
    (1, 4), (4, 7), (7, 10), (1, 10),
    (0, 4), (3, 7), (6, 10), (1, 9),
    (4, 11), (5, 10), (1, 8), (2, 7),
    (4, 10), (1, 7),
]

GOLDEN_STAIRCASE = """\
shape=staircase n=12 k=2 row0=12 col0=1
BBXXBXXXXJ
BBXXBBBBJ.
XBXXXXXJ..
XBXXXXJ...
XBBBBJ....
XXXXJ.....
XXXJ......
BBJ.......
XJ........
J.........
"""

GOLDEN_CHEVRON = """\
shape=chevron n=12 k=2 row0=12 col0=-3
.....F....
....FB....
...FXB....
..FXXB....
.FBXXBBBBJ
FXBXXXXXJ.
XXBXXXXJ..
XXBBBBJ...
XXXXXJ....
XXXXJ.....
"""

# Intermediate stages of the staircase-to-chevron rewrite, rendered by
# grid_lines (each stage cropped to its own bounding box).
GOLDEN_STAGES = {
    "pruned_remainder": [
        ".FX...",
        "FBXX..",
        "XBXXX.",
        "XBXXXX",
        "XBBBBJ",
        "XXXXJ.",
        "XXXJ..",
        "BBJ...",
        "XJ....",
        "J.....",
    ],
    "pyramid": [
        "XBXXXXJ",
        ".BBBBJ.",
        "..XXJ..",
        "...J...",
    ],
    "reattached": [
        ".....FX...",
        "....FBXX..",
        "...FXBXXX.",
        "..FXXBXXXX",
        ".FBXXBBBBJ",
        "FXBXXXXXJ.",
        ".XBXXXXJ..",
        "..BBBBJ...",
        "...XXJ....",
        "....J.....",
    ],
    "triangle_remainder": [
        ".....F....",
        "....FB....",
        "...FXB....",
        "..FXXB....",
        ".FBXXBBBBJ",
        "FXBXXXXXJ.",
        ".XBXXXXJ..",
        "..BBBBJ...",
        "...XXJ....",
        "....J.....",
    ],
    "triangle": [
        "X...",
        "XX..",
        "XXX.",
        "XXXX",
    ],
}


def make_polygon_triangulation(n, k, long_edges):
    edges = set(short_edges(n, k)) | {Edge(*sorted(e)) for e in long_edges}
    return PolygonTriangulation(polygon(n, k), tuple(sorted(edges)))


def make_cylinder_triangulation(n, k, reps):
    classes = {edge_class_of(Edge(*sorted(r)), n) for r in reps}
    return CylinderTriangulation(cylinder(n, k), tuple(sorted(classes)))


@pytest.fixture(scope="session")
def cylinder_k2_triangulations():
    """`enumerate_cylinder(cylinder(n, 2))` for n = 1..5, keyed by n; C_5
    alone takes seconds, so it is enumerated once per session."""
    return {n: enumerate_cylinder(cylinder(n, 2)) for n in range(1, 6)}


@pytest.fixture(scope="session")
def worked_12gon():
    return make_polygon_triangulation(12, 2, WORKED_12GON_LONG)


@pytest.fixture(scope="session")
def worked_c3():
    """The cylinder C_3 triangulation whose lift is the 12-gon example."""
    reps = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (2, 4),
            (1, 4), (0, 4), (2, 7), (1, 7)]
    return make_cylinder_triangulation(3, 2, reps)


@pytest.fixture(scope="session")
def t_left():
    """The flip example's starting triangulation on C_3."""
    reps = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (2, 4),
            (0, 3), (1, 4), (1, 6), (0, 6)]
    return make_cylinder_triangulation(3, 2, reps)


@pytest.fixture(scope="session")
def fan_5gon():
    """Fan at vertex 0 of the pentagon, the worked k=1 staircase example."""
    return make_polygon_triangulation(5, 1, [(0, 2), (0, 3)])


@pytest.fixture(scope="session")
def shift3_invariant():
    from multitri import enumerate_shift_invariant
    return enumerate_shift_invariant(polygon(12, 2), 3)


@pytest.fixture(scope="session")
def shift6_invariant():
    from multitri import enumerate_shift_invariant
    return enumerate_shift_invariant(polygon(12, 2), 6)
