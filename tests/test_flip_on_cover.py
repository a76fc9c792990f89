"""`orbit_flip` on the cover: its two backends catch each other out.

`_flip_via_stars` reads the two holder stars from the star search bounded
to e's representative and must name, on every relevant-class flip, the
same class as the polygon route it replaced (`oracle_flip_via_polygon`,
in `test_flip_backend_oracle`).  The flipped family is no longer rebuilt
through `phi`; the tests below show that the two backends still catch each
other out, and that `orbit_flip` follows two pipes, builds no pipe dream
and runs no unbounded star search.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import re

import pytest

from multitri import (
    build_flip_graph,
    cylinder,
    enumerate_cylinder,
    flip_graph_json,
    orbit_flip,
    orbit_of_class,
    phi,
    relevant_class_candidates,
    trace_pipes,
)
from multitri import flips
from multitri.errors import MalformedShape, StructureViolation
from multitri.pipedreams import BUMP, CROSS, JELBOW, PipeDream, _geometry

from test_flip_backend_oracle import oracle_flip_via_polygon

# sha256 of json.dumps(flip_graph_json(build_flip_graph(4)), sort_keys=True),
# frozen from the polygon route.
FLIP_GRAPH_4_SHA256 = "adad7f8401fa9daede109056b4df25418d48c40530aec0f606720c281d894c06"

# The package names `polygon` and `cylinder` are the surface constructors,
# not the modules.
polygon_module = importlib.import_module("multitri.polygon")
cylinder_module = importlib.import_module("multitri.cylinder")
pipedreams_module = importlib.import_module("multitri.pipedreams")


@pytest.mark.parametrize("n,step", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 7)])
def test_stars_backend_matches_polygon_route(n, step, cylinder_k2_triangulations):
    flipped = 0
    for t in cylinder_k2_triangulations[n][::step]:
        for e in t.relevant_classes():
            want = oracle_flip_via_polygon(t, e)
            assert flips._flip_via_stars(t, e, t.class_set()) == want, (t, e)
            flipped += 1
    assert flipped == {1: 0, 2: 8, 3: 144, 4: 2400, 5: 5600}[n]


def test_flip_graph_4_unchanged():
    data = json.dumps(flip_graph_json(build_flip_graph(4)), sort_keys=True)
    assert hashlib.sha256(data.encode()).hexdigest() == FLIP_GRAPH_4_SHA256


def test_orbit_flip_stays_on_the_cover(monkeypatch):
    """One `phi` per flip, for the chevron; no polygon star search."""
    calls = {"phi": 0}

    def counted_phi(t):
        calls["phi"] += 1
        return phi(t)

    def forbidden(*args):
        raise AssertionError("orbit_flip reached the polygon star search")

    monkeypatch.setattr(flips, "phi", counted_phi)
    monkeypatch.setattr(polygon_module, "star_decomposition", forbidden)
    monkeypatch.setattr(polygon_module, "polygon_flip", forbidden)
    count = 0
    for t in enumerate_cylinder(cylinder(3, 2)):
        for e in t.relevant_classes():
            orbit_flip(t, e)
            count += 1
    assert calls["phi"] == count == 144


def test_orbit_flip_traces_two_pipes_and_searches_through_e(monkeypatch):
    """No full pipe trace and no unbounded cover star search per flip."""

    def forbidden(*args):
        raise AssertionError("orbit_flip reached a full search")

    search = cylinder_module._cover_stars

    def bounded_only(t, through=None):
        if through is None:
            forbidden()
        return search(t, through)

    monkeypatch.setattr(pipedreams_module, "trace_pipes", forbidden)
    monkeypatch.setattr(cylinder_module, "_cover_stars", bounded_only)
    monkeypatch.setattr(flips, "_cover_stars", bounded_only)
    count = 0
    for t in enumerate_cylinder(cylinder(3, 2)):
        for e in t.relevant_classes():
            assert orbit_flip(t, e)[1] == oracle_flip_via_polygon(t, e)
            count += 1
    assert count == 144


def test_orbit_flip_builds_no_pipe_dream(monkeypatch):
    """The chevron backend reads its tiles off the image's edges."""
    ts = enumerate_cylinder(cylinder(3, 2))[:20]
    orbit_flip(ts[0], ts[0].relevant_classes()[0])  # builds the cached geometry

    def forbidden(*args):
        raise AssertionError("orbit_flip built a pipe dream")

    monkeypatch.setattr(pipedreams_module, "PipeDream", forbidden)
    count = 0
    for t in ts:
        for e in t.relevant_classes():
            assert orbit_flip(t, e)[1] == oracle_flip_via_polygon(t, e)
            count += 1
    assert count == 80


def _with_tile(dream, cell, kind):
    return PipeDream(dream.shape, {**dream.tiles, cell: kind}, dream.m, dream.k)


def _fill_as(dream):
    """A stand-in for `flips._fill` that answers the kinds of `dream`."""
    return lambda *_: list(dream.tiles.values())


def _representative_tile(p, e):
    dream = pipedreams_module.chevron_from_staircase(
        pipedreams_module.staircase_from_triangulation(p.inner))
    orbit = set(orbit_of_class(e, 2))
    geometry = _geometry(dream)
    return dream, min(cell for cell, end in zip(geometry.cells, geometry.ends) if end in orbit)


def test_chevron_backend_rejects_a_crossed_representative_tile(monkeypatch, t_left):
    p = phi(t_left)
    for e in t_left.relevant_classes():
        dream, cell = _representative_tile(p, e)
        assert dream.tiles[cell] == BUMP
        monkeypatch.setattr(flips, "_fill", _fill_as(_with_tile(dream, cell, CROSS)))
        with pytest.raises(StructureViolation, match="not a bump"):
            flips._flip_via_chevron(p, e)
        monkeypatch.undo()


def test_chevron_backend_rejects_pipes_crossing_twice(monkeypatch, t_left):
    """Turning a bump into a cross tile elsewhere in the chevron makes the
    two pipes of a representative tile cross twice in 5 cases, counted by
    `trace_pipes` on the altered chevron."""
    p = phi(t_left)
    twice = 0
    for e in t_left.relevant_classes():
        dream, cell = _representative_tile(p, e)
        for other, kind in dream.tiles.items():
            if other == cell or kind != BUMP:
                continue
            bad = _with_tile(dream, other, CROSS)
            trace = trace_pipes(bad)
            pair = tuple(sorted(i for i, path in enumerate(trace.paths)
                                if any((r, c) == cell for r, c, _ in path.visited)))
            if len(trace.crossings.get(pair, ())) != 2:
                continue
            monkeypatch.setattr(flips, "_fill", _fill_as(bad))
            with pytest.raises(StructureViolation, match="cross 2 times, expected once"):
                flips._flip_via_chevron(p, e)
            monkeypatch.undo()
            twice += 1
    assert twice == 5


def test_chevron_backend_rejects_a_pipe_entering_an_elbow_from_the_south(monkeypatch, t_left):
    """Turning the north neighbour of the representative bump into a J
    elbow leaves the bump's north-going strand nowhere to go."""
    p = phi(t_left)
    rejected = 0
    for e in t_left.relevant_classes():
        dream, (r, c) = _representative_tile(p, e)
        if (r + 1, c) not in dream.tiles:
            continue
        monkeypatch.setattr(flips, "_fill", _fill_as(_with_tile(dream, (r + 1, c), JELBOW)))
        message = f"a pipe enters {(r + 1, c)} from S, a side the jelbow tile does not connect"
        with pytest.raises(MalformedShape, match=re.escape(message)):
            flips._flip_via_chevron(p, e)
        monkeypatch.undo()
        rejected += 1
    assert rejected == 4


@pytest.mark.parametrize("backend", ["_flip_via_stars", "_flip_via_chevron"])
def test_a_wrong_backend_is_caught(monkeypatch, backend, t_left):
    true_flips = {e: orbit_flip(t_left, e)[1] for e in t_left.relevant_classes()}
    for e, f in true_flips.items():
        for wrong in relevant_class_candidates(3, 2):
            if wrong == f:
                continue
            monkeypatch.setattr(flips, backend, lambda *args, wrong=wrong: wrong)
            with pytest.raises(StructureViolation, match="flip backends disagree"):
                orbit_flip(t_left, e)
            monkeypatch.undo()


def test_a_wrong_image_is_caught_or_harmless(monkeypatch):
    """With `phi(t)` answering the image of another triangulation holding e,
    each call raises StructureViolation or still returns the true flip."""
    ts = enumerate_cylinder(cylinder(3, 2))
    raised = returned = 0
    for t in ts[:12]:
        for e in t.relevant_classes():
            want = orbit_flip(t, e)
            other = next(u for u in ts if u != t and e in u.class_set())
            monkeypatch.setattr(
                flips, "phi", lambda u, t=t, other=other: phi(other if u == t else u))
            try:
                got = orbit_flip(t, e)
            except StructureViolation:
                raised += 1
            else:
                assert got == want
                returned += 1
            monkeypatch.undo()
    assert (raised, returned) == (35, 13)



def test_agreeing_wrong_backends_are_caught(monkeypatch, t_left):
    """Both backends naming one wrong absent class leave a family of
    k(2n-1) classes that is not a triangulation, so its lift has a
    3-crossing, which the final check finds without `phi(flipped)`."""
    for e in t_left.relevant_classes():
        f = orbit_flip(t_left, e)[1]
        for wrong in relevant_class_candidates(3, 2):
            if wrong == f or wrong in t_left.class_set():
                continue
            for backend in ("_flip_via_stars", "_flip_via_chevron"):
                monkeypatch.setattr(flips, backend, lambda *args, wrong=wrong: wrong)
            with pytest.raises(StructureViolation, match="created a crossing"):
                orbit_flip(t_left, e)
            monkeypatch.undo()
