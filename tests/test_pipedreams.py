"""Pipe dreams: staircase construction, tracing, the chevron rewrite,
periodicity and reflection.  Golden strings are frozen renderings of the
running 12-gon example, checked bit for bit.
"""

from __future__ import annotations

import itertools

import pytest

from multitri import (
    BUMP,
    CROSS,
    Edge,
    FELBOW,
    JELBOW,
    MalformedShape,
    PipeDream,
    STAIRCASE,
    StructureViolation,
    boundary_ports,
    cell_edge,
    chevron_from_staircase,
    chevron_stages,
    edges_from_pipedream,
    enumerate_polygon,
    is_n_periodic,
    is_reflection_symmetric,
    permutation_target,
    polygon,
    polygon_flip,
    render_ascii,
    staircase_from_triangulation,
    trace_pipes,
)
from multitri.errors import ShapeMismatch
from multitri.io import grid_lines

from conftest import GOLDEN_CHEVRON, GOLDEN_STAGES, GOLDEN_STAIRCASE


@pytest.fixture(scope="module")
def worked_staircase(worked_12gon):
    return staircase_from_triangulation(worked_12gon)


@pytest.fixture(scope="module")
def worked_chevron(worked_staircase):
    return chevron_from_staircase(worked_staircase)


def test_golden_staircase(worked_staircase):
    assert render_ascii(worked_staircase) == GOLDEN_STAIRCASE


def test_golden_chevron(worked_chevron):
    assert render_ascii(worked_chevron) == GOLDEN_CHEVRON


def test_golden_stages(worked_staircase):
    stages = chevron_stages(worked_staircase)
    for name, want in GOLDEN_STAGES.items():
        assert grid_lines(stages[name]) == want, name
    assert grid_lines(stages["chevron"]) == GOLDEN_CHEVRON.splitlines()[1:]


def test_staircase_shape(worked_staircase):
    m, k = 12, 2
    assert worked_staircase.m == m and worked_staircase.k == k
    for r in range(m, k, -1):
        assert worked_staircase.tiles[(r, r - k)] == JELBOW
        for c in range(1, r - k):
            assert worked_staircase.tiles[(r, c)] in (BUMP, CROSS)


def test_staircase_bumps_are_long_edges(worked_12gon, worked_staircase):
    bumps = {rc for rc, kind in worked_staircase.tiles.items() if kind == BUMP}
    long_edges = {e for e in worked_12gon.edges if e.b - e.a > 2}
    assert len(bumps) == len(long_edges) == 17
    assert {cell_edge(r, c, 12) for r, c in bumps} == long_edges


def test_fan_pentagon_staircase(fan_5gon):
    p = staircase_from_triangulation(fan_5gon)
    bumps = sorted(rc for rc, kind in p.tiles.items() if kind == BUMP)
    assert bumps == [(3, 1), (4, 1), (5, 1)]
    assert trace_pipes(p).permutation == [1, 4, 3, 2]


def test_permutation_target_values():
    assert permutation_target(12, 2) == [1, 2, 10, 9, 8, 7, 6, 5, 4, 3]
    assert permutation_target(8, 2) == [1, 2, 6, 5, 4, 3]
    assert permutation_target(5, 1) == [1, 4, 3, 2]


def test_staircase_trace(worked_staircase):
    tr = trace_pipes(worked_staircase)
    assert tr.permutation == permutation_target(12, 2)
    assert len(tr.paths) == 10
    assert len(tr.crossings) == 28
    # reduced: no pair of pipes crosses twice
    assert all(len(cells) == 1 for cells in tr.crossings.values())


def test_boundary_ports(worked_staircase):
    ports = boundary_ports(worked_staircase)
    sides = {side for side, _, _ in ports}
    assert sides <= {"W", "S", "N", "E"}
    assert len([p for p in ports if p[0] in ("W", "S")]) == 10


def test_chevron_trace(worked_chevron):
    tr = trace_pipes(worked_chevron)
    assert len(tr.paths) == 8
    assert len(tr.crossings) == len(list(itertools.combinations(range(8), 2)))
    assert all(len(cells) == 1 for cells in tr.crossings.values())


def test_chevron_pyramid_width(worked_staircase):
    stages = chevron_stages(worked_staircase)
    pyramid = stages["pyramid"]
    top = [c for (r, c) in pyramid if r == max(rr for rr, _ in pyramid)]
    assert len(top) == 12 - 2 * 2 - 1


def test_chevron_rejects_wrong_shapes(worked_chevron, fan_5gon):
    with pytest.raises(ShapeMismatch):
        chevron_stages(worked_chevron)  # already a chevron
    odd = staircase_from_triangulation(fan_5gon)
    with pytest.raises(ShapeMismatch):
        chevron_stages(odd)  # odd m has no half-turn


@pytest.mark.parametrize("piece", ["pyramid", "triangle"])
def test_chevron_carry_refuses_an_occupied_target(worked_staircase, piece):
    """A tile already on the SW boundary where the first cell of the
    pyramid or of the triangle lands stops the rebuild, naming both."""
    (r, c), *_ = chevron_stages(worked_staircase)[piece]
    target = (c, r - 12)
    blocked = PipeDream(STAIRCASE, dict(worked_staircase.tiles) | {target: CROSS}, 12, 2)
    with pytest.raises(StructureViolation) as info:
        chevron_stages(blocked)
    assert str(info.value) == f"{piece} cell {(r, c)} lands on occupied {target}"


def test_roundtrip_staircase(worked_12gon, worked_staircase):
    back = edges_from_pipedream(worked_staircase)
    assert back.edge_set() == worked_12gon.edge_set()


def test_roundtrip_chevron(worked_12gon, worked_chevron):
    back = edges_from_pipedream(worked_chevron)
    assert back.edge_set() == worked_12gon.edge_set()


def test_roundtrip_all_8gon():
    for t in enumerate_polygon(polygon(8, 2)):
        p = staircase_from_triangulation(t)
        assert edges_from_pipedream(p).edge_set() == t.edge_set()
        ch = chevron_from_staircase(p)
        assert edges_from_pipedream(ch).edge_set() == t.edge_set()


def test_all_8gon_staircases_reduced():
    target = permutation_target(8, 2)
    for t in enumerate_polygon(polygon(8, 2)):
        tr = trace_pipes(staircase_from_triangulation(t))
        assert tr.permutation == target
        assert all(len(cells) == 1 for cells in tr.crossings.values())


def test_periodicity_of_worked_example(worked_staircase, worked_chevron):
    assert is_n_periodic(worked_staircase, 3)
    assert is_n_periodic(worked_chevron, 3)


def test_periodicity_breaks_after_flip(worked_12gon):
    t2, _ = polygon_flip(worked_12gon, Edge(0, 4))
    st = staircase_from_triangulation(t2)
    assert not is_n_periodic(st, 3)
    assert not is_n_periodic(chevron_from_staircase(st), 3)


def test_periodicity_needs_full_square():
    p = staircase_from_triangulation(enumerate_polygon(polygon(8, 2))[0])
    with pytest.raises(ShapeMismatch):
        is_n_periodic(p, 3)  # 8 != 2*2*3


def test_reflection_symmetry(worked_chevron):
    assert is_reflection_symmetric(worked_chevron)


def test_reflection_only_for_chevrons(worked_staircase):
    with pytest.raises(ShapeMismatch):
        is_reflection_symmetric(worked_staircase)


def test_reflection_matches_half_shift(shift6_invariant):
    # chevron reflection symmetry is exactly shift-(m/2) invariance
    sample = shift6_invariant[::97]
    for t in sample:
        ch = chevron_from_staircase(staircase_from_triangulation(t))
        assert is_reflection_symmetric(ch)


def test_reflection_fails_off_axis(shift6_invariant):
    from multitri import is_shift_invariant, relevant_candidates

    t = shift6_invariant[0]
    for e in sorted(t.edge_set() & set(relevant_candidates(12, 2))):
        t2, _ = polygon_flip(t, e)
        if not is_shift_invariant(t2, 6):
            ch = chevron_from_staircase(staircase_from_triangulation(t2))
            assert not is_reflection_symmetric(ch)
            return
    raise AssertionError("no symmetry-breaking flip found")


def test_trace_detects_malformed_tiles(worked_staircase):
    tiles = dict(worked_staircase.tiles)
    # a J-elbow mid-row leaves its east neighbour's west port dangling
    tiles[(12, 5)] = JELBOW
    broken = PipeDream(STAIRCASE, tiles, 12, 2)
    with pytest.raises(MalformedShape):
        trace_pipes(broken)


def test_cell_edge_wraps_mod_m():
    assert cell_edge(5, 1, 12) == Edge(0, 4)
    assert cell_edge(12, 11, 12) == Edge(10, 11)
    assert cell_edge(12, 1, 12) == Edge(0, 11)
