"""Edge, class and crossing primitives."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multitri import (
    Edge,
    EdgeClass,
    SurfaceDesc,
    crosses,
    cyclic_length,
    cylinder,
    edge_class_of,
    polygon,
)
from multitri.surfaces import (
    cover_crosses,
    cyclically_ordered,
    has_clique,
    has_k_plus_1_crossing,
    is_periodic_crossing_free,
    window_translations,
)

edges = st.builds(
    lambda a, d: Edge(a, a + d),
    st.integers(-50, 50),
    st.integers(1, 20),
)


def test_edge_basics():
    e = Edge(2, 7)
    assert e.length == 5
    assert e.shifted(3) == Edge(5, 10)
    assert e.shifted(-2) == Edge(0, 5)
    assert Edge(7, 2) == e == (2, 7)
    assert (Edge(7, 2).a, Edge(7, 2).b) == (2, 7)
    assert repr(e) == str(e) == f"{e}" == "[2,7]"
    with pytest.raises(ValueError, match=r"^degenerate edge \[3,3\]$"):
        Edge(3, 3)
    # Set iteration order depends on the hash staying that of the pair.
    for a, b in [(2, 7), (-4, 0), (0, 1)]:
        assert hash(Edge(b, a)) == hash((a, b))
    for copied in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert copied == e and type(copied) is Edge
    with pytest.raises(AttributeError):
        e.a = 3
    assert sorted([Edge(1, 5), Edge(0, 9), Edge(1, 2)]) == [(0, 9), (1, 2), (1, 5)]


def test_edge_class_canonical_rep():
    c = edge_class_of(Edge(7, 12), 3)
    assert c.rep == (1, 6) and c.n == 3
    assert c.length == 5
    # every translate canonicalizes to the same class
    assert edge_class_of(Edge(-2, 3), 3) == c
    assert c.translate(2).a == 7
    assert repr(c) == str(c) == "~[1,6]"
    with pytest.raises(ValueError, match=r"^representative \[3,5\] not canonical for period 3$"):
        EdgeClass(Edge(3, 5), 3)
    with pytest.raises(ValueError, match="not canonical"):
        EdgeClass(Edge(-1, 2), 3)
    assert hash(c) == hash((c.rep, c.n)) == hash(((1, 6), 3))
    for copied in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert copied == c and type(copied) is EdgeClass and type(copied.rep) is Edge
    with pytest.raises(AttributeError):
        c.rep = Edge(0, 1)
    # Classes sort by (rep, n), across periods too.
    classes = [EdgeClass(Edge(1, 3), 2), EdgeClass(Edge(0, 4), 3), EdgeClass(Edge(1, 3), 3),
               EdgeClass(Edge(0, 2), 2)]
    assert sorted(classes) == [EdgeClass(Edge(0, 2), 2), EdgeClass(Edge(0, 4), 3),
                               EdgeClass(Edge(1, 3), 2), EdgeClass(Edge(1, 3), 3)]


def test_cyclic_length_wraps():
    assert cyclic_length(Edge(0, 1), 12) == 1
    assert cyclic_length(Edge(0, 11), 12) == 1
    assert cyclic_length(Edge(1, 7), 12) == 6


def test_cyclically_ordered():
    assert cyclically_ordered(1, 5, 9)
    assert cyclically_ordered(5, 9, 1)
    assert cyclically_ordered(9, 1, 5)
    assert not cyclically_ordered(1, 9, 5)
    assert not cyclically_ordered(1, 1, 5)


def test_polygon_crossing_is_interleaving():
    surf = polygon(8, 2)
    assert crosses(Edge(0, 4), Edge(2, 6), surf)
    assert not crosses(Edge(0, 4), Edge(4, 6), surf)  # shared endpoint
    assert not crosses(Edge(0, 2), Edge(4, 6), surf)  # disjoint arcs


def test_cylinder_crossing_uses_cover():
    surf = cylinder(3, 2)
    assert crosses(Edge(0, 4), Edge(2, 6), surf)
    assert not crosses(Edge(0, 4), Edge(4, 8), surf)


@given(edges, edges)
def test_cover_crossing_symmetric(e, f):
    assert cover_crosses(e, f) == cover_crosses(f, e)


@given(edges, edges, st.integers(-10, 10))
def test_cover_crossing_translation_invariant(e, f, t):
    assert cover_crosses(e, f) == cover_crosses(e.shifted(t), f.shifted(t))


@given(edges, edges)
def test_shared_endpoint_never_crosses(e, f):
    if {e.a, e.b} & {f.a, f.b}:
        assert not cover_crosses(e, f)


def test_has_clique_triangle():
    # path 0-1-2 has no triangle; adding 0-2 makes one
    path = [0b010, 0b101, 0b010]
    assert has_clique(path, 2)
    assert not has_clique(path, 3)
    tri = [0b110, 0b101, 0b011]
    assert has_clique(tri, 3)


def test_k_plus_1_crossing_detection():
    surf = polygon(10, 2)
    fan3 = [Edge(0, 5), Edge(1, 6), Edge(2, 7)]
    assert has_k_plus_1_crossing(fan3, 2, surf)
    assert not has_k_plus_1_crossing(fan3[:2], 2, surf)
    # edges of length <= k never participate
    assert not has_k_plus_1_crossing(fan3[:2] + [Edge(3, 5)], 2, surf)


def test_periodic_crossing_freeness():
    shorts = [edge_class_of(Edge(a, a + d), 3) for a in range(3) for d in (1, 2)]
    good = shorts + [edge_class_of(Edge(0, 3), 3), edge_class_of(Edge(1, 4), 3),
                     edge_class_of(Edge(1, 6), 3), edge_class_of(Edge(0, 6), 3)]
    assert is_periodic_crossing_free(good, 2, 3)
    # one class of length 5 on C_3 is crossing-free: its translates
    # [0,5] and [6,11] do not cross, so no three of them pairwise cross
    fan = [edge_class_of(Edge(0, 5), 3)]
    assert is_periodic_crossing_free(fan, 2, 3)
    bad = good + [edge_class_of(Edge(2, 7), 3)]
    assert not is_periodic_crossing_free(bad, 2, 3)


def test_window_translations_symmetric():
    for k in range(1, 5):
        assert window_translations(k) == range(-k, k + 1)


def test_surface_kind_is_polygon_or_cylinder():
    with pytest.raises(ValueError, match="^unknown surface kind 'torus'$"):
        SurfaceDesc("torus", 3, 1)


def test_has_clique_of_size_0_always_holds():
    assert has_clique([], 0)
    assert has_clique([0b10, 0b01], 0, within=0)
