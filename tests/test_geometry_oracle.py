"""`phi` and the pipe dreams on cached (m, k) geometry, against direct code.

The oracles below are the direct implementations the geometry replaced:
`oracle_phi` builds the image as a set of `Edge`s, from its own copy of
the class orbit, and runs `oracle_has_k_plus_1_crossing`;
`oracle_periodic_check` is the periodicity check of
`PeriodicPolygonTriangulation` and `is_shift_invariant` on `Edge`s;
`oracle_staircase`, `oracle_render_svg` and `oracle_is_n_periodic` read
every tile of the dream by its (row, column) labels.  `oracle_trace_pipes` and
`chevron_stages(...)["chevron"]` are the oracles for tracing and for the
chevron, both as `chevron_from_staircase` builds it and as the label rule
`_fill` reads it straight off the edges.  Every public result must be
equal, dict order included, or raise the same exception type with the
same message.
"""

from __future__ import annotations

import hashlib

import pytest

from multitri import (
    BUMP,
    CHEVRON,
    CROSS,
    JELBOW,
    STAIRCASE,
    CylinderTriangulation,
    Edge,
    EdgeClass,
    EdgeTooLong,
    NotPeriodic,
    PeriodicPolygonTriangulation,
    PipeDream,
    PolygonTriangulation,
    ShapeMismatch,
    StructureViolation,
    cell_edge,
    chevron_from_staircase,
    chevron_stages,
    cylinder,
    enumerate_cylinder,
    enumerate_polygon,
    expected_edge_count,
    is_n_periodic,
    is_shift_invariant,
    phi,
    polygon,
    polygon_flip,
    relevant_candidates,
    render_svg,
    staircase_from_triangulation,
    trace_pipes,
)
from multitri import bijection, pipedreams
from multitri.cli import main

from conftest import WORKED_12GON_LONG, make_polygon_triangulation
from test_crossing_oracle import oracle_has_k_plus_1_crossing
from test_trace_pipes_oracle import oracle_trace_pipes

TILE = 24


def oracle_periodic_check(inner: PolygonTriangulation, period: int) -> None:
    m = inner.surface.n
    edges = inner.edge_set()
    for e in inner.edges:
        shifted = Edge((e.a + period) % m, (e.b + period) % m)
        if shifted not in edges:
            raise NotPeriodic(f"edge {e} present but its shift by {period} is not")


def oracle_orbit(c: EdgeClass, k: int) -> list[Edge]:
    m = 2 * k * c.n
    return sorted({Edge((c.rep.a + t * c.n) % m, (c.rep.b + t * c.n) % m) for t in range(2 * k)})


def oracle_phi(t: CylinderTriangulation) -> tuple[PolygonTriangulation, int]:
    n, k = t.surface.n, t.surface.k
    m = 2 * k * n
    edges: set[Edge] = set()
    for c in t.classes:
        edges.update(oracle_orbit(c, k))
    surface = polygon(m, k)
    if len(edges) != expected_edge_count(m, k):
        raise StructureViolation(
            f"image has {len(edges)} edges, a k-triangulation of the {m}-gon "
            f"has {expected_edge_count(m, k)}")
    if oracle_has_k_plus_1_crossing(edges, k, surface):
        raise StructureViolation(f"image contains a {k + 1}-crossing")
    inner = PolygonTriangulation(surface, tuple(sorted(edges)))
    oracle_periodic_check(inner, n)
    return inner, n


def oracle_staircase(t: PolygonTriangulation) -> PipeDream:
    m, k = t.surface.n, t.surface.k
    edges = t.edge_set()
    tiles = {}
    for r in range(k + 1, m + 1):
        for c in range(1, r - k):
            tiles[r, c] = BUMP if Edge(c - 1, r - 1) in edges else CROSS
        tiles[r, r - k] = JELBOW
    return PipeDream(STAIRCASE, tiles, m, k)


def _oracle_orbit_key(e: Edge, n: int, m: int):
    x, y = e.a, e.b
    return frozenset({(x % n, (y - x) % m), (y % n, (x - y) % m)})


def oracle_is_n_periodic(p: PipeDream, n: int) -> bool:
    m, k = p.m, p.k
    if m != 2 * k * n:
        raise ShapeMismatch(f"period {n} with k={k} needs a {2 * k * n}-gon, got m={m}")
    groups: dict = {}
    for (r, c), kind in p.tiles.items():
        if kind not in (BUMP, CROSS):
            continue
        key = _oracle_orbit_key(cell_edge(r, c, m), n, m)
        groups.setdefault(key, set()).add(kind)
    return all(len(kinds) == 1 for kinds in groups.values())


def _oracle_tile_paths(kind: str, x: int, y: int) -> list[str]:
    half = TILE // 2
    wn = f"M {x} {y + half} A {half} {half} 0 0 1 {x + half} {y}"
    se = f"M {x + half} {y + TILE} A {half} {half} 0 0 1 {x + TILE} {y + half}"
    we = f"M {x} {y + half} L {x + TILE} {y + half}"
    sn = f"M {x + half} {y + TILE} L {x + half} {y}"
    return {"bump": [wn, se], "cross": [we, sn], "jelbow": [wn], "felbow": [se]}[kind]


def oracle_render_svg(p: PipeDream) -> str:
    rows = [r for r, _ in p.tiles]
    cols = [c for _, c in p.tiles]
    rmax, cmin = max(rows, default=0), min(cols, default=0)
    # A dream with no cells is drawn in a box of no width and no height.
    width = (max(cols) - cmin + 1) * TILE if cols else 0
    height = (rmax - min(rows) + 1) * TILE if rows else 0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<!-- shape={p.shape} n={p.m} k={p.k} -->",
    ]
    for (r, c) in sorted(p.tiles, key=lambda rc: (-rc[0], rc[1])):
        x = (c - cmin) * TILE
        y = (rmax - r) * TILE
        parts.append(
            f'<rect x="{x}" y="{y}" width="{TILE}" height="{TILE}" '
            'fill="none" stroke="#ccc" stroke-width="1"/>')
        for d in _oracle_tile_paths(p.tiles[r, c], x, y):
            parts.append(f'<path d="{d}" fill="none" stroke="#000" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def outcome(f, *args):
    """The result of f(*args), or the type and message of what it raised."""
    try:
        return "ok", f(*args)
    except Exception as error:  # noqa: BLE001 - the comparison is the point
        return "raised", type(error), str(error)


def chevron_oracle(p: PipeDream) -> PipeDream:
    return PipeDream(CHEVRON, chevron_stages(p)["chevron"], p.m, p.k)


def _traced(result):
    """A trace result with each pair's crossing cells sorted: where a pair
    crosses twice (a non-reduced chevron), `trace_pipes` lists the cells
    in the order the higher pipe passes them, and the oracle in tile
    order; `assert_same_trace` checks the former."""
    return result if result[0] == "raised" else (
        "ok", result[1].paths, result[1].permutation,
        {pair: sorted(cells) for pair, cells in result[1].crossings.items()})


def assert_same_trace(p: PipeDream):
    got = outcome(trace_pipes, p)
    assert _traced(got) == _traced(outcome(oracle_trace_pipes, p))
    if got[0] == "ok":
        paths = got[1].paths
        for (low, high), cells in got[1].crossings.items():
            assert list(cells) == [(r, c) for (r, c, _) in paths[high].visited if (r, c) in cells]


def _dream(result):
    return result if result[0] == "raised" else (
        "ok", result[1].shape, list(result[1].tiles.items()), result[1].m, result[1].k)


def assert_same_dream_results(p: PipeDream, n: int | None = None):
    """Trace, SVG, periodicity and (for a staircase) the chevron of p agree
    with the oracles; returns the chevron when there is one."""
    assert_same_trace(p)
    assert outcome(render_svg, p) == outcome(oracle_render_svg, p)
    if n is not None:
        assert outcome(is_n_periodic, p, n) == outcome(oracle_is_n_periodic, p, n)
    if p.shape == STAIRCASE:
        got = outcome(chevron_from_staircase, p)
        assert _dream(got) == _dream(outcome(chevron_oracle, p))
        return got[1] if got[0] == "ok" else None
    return None


def assert_same_polygon_dreams(t: PolygonTriangulation, n: int | None = None):
    staircase = staircase_from_triangulation(t)
    assert _dream(("ok", staircase)) == _dream(("ok", oracle_staircase(t)))
    chevron = assert_same_dream_results(staircase, n)
    if chevron is not None:
        assert_same_dream_results(chevron, n)
        geometry = pipedreams._canonical_geometry(CHEVRON, t.surface.n, t.surface.k)
        kinds = list(chevron_stages(staircase)["chevron"].values())
        assert pipedreams._fill(geometry, t.edge_set()) == kinds
    return staircase, chevron


IMAGE_CASES = [(1, n) for n in range(2, 7)] + [(2, n) for n in range(2, 5)] + [(3, 2), (3, 3)]


@pytest.mark.parametrize("k,n", IMAGE_CASES)
def test_images_match_the_oracles(k, n):
    for t in enumerate_cylinder(cylinder(n, k)):
        image = phi(t)
        assert (image.inner, image.period) == oracle_phi(t)
        assert_same_polygon_dreams(image.inner, n)


EVEN_POLYGONS = [(m, 1) for m in (4, 6, 8, 10)] + [(m, 2) for m in (6, 8, 10)] + [
    (m, 3) for m in (8, 10)]


@pytest.mark.parametrize("m,k", EVEN_POLYGONS)
def test_even_polygons_match_the_oracles(m, k):
    n = m // (2 * k) if m % (2 * k) == 0 else None
    for t in enumerate_polygon(polygon(m, k)):
        assert_same_polygon_dreams(t, n)


def _flips(t: PolygonTriangulation):
    for e in sorted(t.edge_set() & set(relevant_candidates(t.surface.n, t.surface.k))):
        yield polygon_flip(t, e)[0]


@pytest.mark.parametrize("n", [3, 4])
def test_flipped_images_match_the_oracles(n):
    broken = 0
    for t in enumerate_cylinder(cylinder(n, 2))[::25]:
        for flipped in _flips(phi(t).inner):
            staircase, _ = assert_same_polygon_dreams(flipped, n)
            broken += not is_n_periodic(staircase, n)
    assert broken  # non-periodic dreams are covered


def test_worked_flip_matches_the_oracles(worked_12gon):
    flipped, _ = polygon_flip(worked_12gon, Edge(0, 4))
    staircase, chevron = assert_same_polygon_dreams(flipped, 3)
    assert not is_n_periodic(staircase, 3) and not is_n_periodic(chevron, 3)


def _variants(p: PipeDream):
    """Hand-built dreams near p: a cell missing, a box turned into an elbow
    (at the first and the last box, and at the top row's first box, which
    a staircase's rebuild moves with its pyramid or its triangle), a stray
    cell above the top row (its labels agree modulo m), a stray cell off
    the shape, the same cells in reverse order, an unknown kind, and a gap
    m-k box turned into a cross."""
    cells = list(p.tiles)
    boxes = [cell for cell, kind in p.tiles.items() if kind in (BUMP, CROSS)]
    top = max(r for r, _ in cells)
    yield {cell: kind for cell, kind in p.tiles.items() if cell != boxes[len(boxes) // 2]}
    for elbow in {boxes[0], boxes[-1], min(boxes, key=lambda rc: (-rc[0], rc[1]))}:
        yield {cell: JELBOW if cell == elbow else kind for cell, kind in p.tiles.items()}
    yield dict(p.tiles) | {(top + 1, 1): BUMP}
    yield dict(p.tiles) | {(top + 1, 2): CROSS}
    yield dict(reversed(p.tiles.items()))
    yield {cell: "nub" if cell == boxes[-1] else kind for cell, kind in p.tiles.items()}
    forced = [(r, c) for (r, c) in cells if r - c == p.m - p.k]
    if forced:
        yield {cell: CROSS if cell == forced[-1] else kind for cell, kind in p.tiles.items()}


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (3, 1)])
def test_hand_built_dreams_match_the_oracles(n, k):
    t = enumerate_cylinder(cylinder(n, k))[1]
    staircase = staircase_from_triangulation(phi(t).inner)
    chevron = chevron_from_staircase(staircase)
    for shape in (staircase, chevron):
        for tiles in _variants(shape):
            assert_same_dream_results(PipeDream(shape.shape, tiles, shape.m, shape.k), n)


def test_other_shapes_match_the_oracles(worked_12gon):
    staircase = staircase_from_triangulation(worked_12gon)
    for shape, m, k in [("ribbon", 12, 2), (CHEVRON, 12, 2), (CHEVRON, 11, 2),
                        (CHEVRON, 12, 6), (STAIRCASE, 12, 3)]:
        assert_same_dream_results(PipeDream(shape, dict(staircase.tiles), m, k), 3)
    assert outcome(render_svg, PipeDream(STAIRCASE, {}, 12, 2)) == outcome(
        oracle_render_svg, PipeDream(STAIRCASE, {}, 12, 2))


def test_phi_error_paths_match_the_oracle():
    t = enumerate_cylinder(cylinder(3, 2))[5]
    n, k = 3, 2
    relevant = [c for c in t.classes if c.is_relevant(k) and not c.is_spanning(k)]
    cases = [t.classes[1:]]  # a class missing
    absent = [EdgeClass(Edge(a, b), n) for a in range(n) for b in range(a + k + 1, a + k * n)
              if EdgeClass(Edge(a, b), n) not in t.class_set()]
    cases += [tuple(c for c in t.classes if c != relevant[0]) + (f,) for f in absent]
    messages = set()
    for classes in cases:
        u = CylinderTriangulation(t.surface, tuple(classes))
        got, want = outcome(phi, u), outcome(oracle_phi, u)
        if got[0] == "ok":
            got = ("ok", (got[1].inner, got[1].period))
        assert got == want
        messages.add(got[2] if got[0] == "raised" else "ok")
    assert "image contains a 3-crossing" in messages
    assert "image has 34 edges, a k-triangulation of the 12-gon has 38" in messages
    # A repeated class and a class longer than kn fail the class-list check
    # before anything is wrapped.
    with pytest.raises(StructureViolation, match="duplicate classes"):
        phi(CylinderTriangulation(t.surface, t.classes + t.classes[:1]))
    for length in (k * n + 1, k * n + 2, 2 * k * n, 2 * k * n + 1):
        u = CylinderTriangulation(t.surface, t.classes[:-1] + (EdgeClass(Edge(0, length), n),))
        with pytest.raises(EdgeTooLong, match=rf"has length {length} > k\*n = {k * n}"):
            phi(u)


def test_phi_rejects_a_class_of_another_period():
    t = enumerate_cylinder(cylinder(2, 2))[0]
    u = CylinderTriangulation(t.surface, t.classes[:-1] + (EdgeClass(Edge(0, 2), 3),))
    with pytest.raises(StructureViolation, match="has period 3, surface has 2"):
        phi(u)


def test_phi_counts_a_wrong_class_list_without_the_tables(tmp_path, capsys, monkeypatch):
    """Each class wraps onto k or 2k edges, so a class list of the wrong
    edge count is refused before the O((kn)^2) tables are built, with the
    message the tables would give."""
    t = enumerate_cylinder(cylinder(3, 2))[5]
    for j in range(len(t.classes) + 1):
        u = CylinderTriangulation(t.surface, t.classes[:j])
        got, want = outcome(phi, u), outcome(oracle_phi, u)
        assert got == want if want[0] == "raised" else got[0] == "ok"

    def refuse(*args):
        raise AssertionError("tables built for a class list of the wrong count")

    monkeypatch.setattr(bijection, "_wrap_table", refuse)
    monkeypatch.setattr(bijection, "_polygon_edges", refuse)
    huge = CylinderTriangulation(cylinder(10**6, 2), (EdgeClass(Edge(0, 1), 10**6),))
    with pytest.raises(StructureViolation) as info:
        phi(huge)
    assert str(info.value) == (
        f"image has 4 edges, a k-triangulation of the 4000000-gon has "
        f"{expected_edge_count(4 * 10**6, 2)}")
    long = tuple(EdgeClass(Edge(a, a + d), 100) for d in range(1, 5) for a in range(100))
    with pytest.raises(StructureViolation,
                       match="^image has 1592 edges, a k-triangulation of the 400-gon has 1590$"):
        phi(CylinderTriangulation(cylinder(100, 2), long[:398]))
    path = tmp_path / "c200.json"
    path.write_text('{"surface":"cylinder","n":200,"k":2,"edges":[[0,1]]}')
    assert main(["pipedream", "--input", str(path)]) == 1
    assert "image has 4 edges, a k-triangulation of the 800-gon has 3190" in (
        capsys.readouterr().err)


def test_periodic_check_matches_the_oracle(worked_12gon):
    cases = [(t, 2) for t in enumerate_polygon(polygon(8, 2))]
    cases += [(t, 3) for t in [worked_12gon, *_flips(worked_12gon)]]
    raised = 0
    for t, period in cases:
        got = outcome(PeriodicPolygonTriangulation, t, period)
        want = outcome(oracle_periodic_check, t, period)
        assert got == want if want[0] == "raised" else got[0] == "ok"
        assert is_shift_invariant(t, period) == (want[0] == "ok")
        raised += want[0] == "raised"
    assert 0 < raised < len(cases)


# sha256 of render_svg, frozen from the direct renderer.
SVG_DIGESTS = {
    "worked staircase": "7de36c61e2664f1f77a4faf6c26a26e6af6b1225d009963022a3eb5391c9d9f2",
    "worked chevron": "207872bbb925742b7710d4e2debb0bc8c38694eb347a9b87dcf44b0452483e64",
    "C_3 chevron": "f846aad6ac73116b2bc927a5d79a3511bd5d22806eef3a8a348acbec86fa0a1c",
    "C_4 chevron": "6d5244b5c5e860efb85cee2551e9f0d6a2662fae898414fd49d4fdf0200e0bec",
}


def test_svg_bytes_are_frozen():
    worked = staircase_from_triangulation(make_polygon_triangulation(12, 2, WORKED_12GON_LONG))
    dreams = {"worked staircase": worked, "worked chevron": chevron_from_staircase(worked)}
    for n in (3, 4):
        t = enumerate_cylinder(cylinder(n, 2))[0]
        dreams[f"C_{n} chevron"] = chevron_from_staircase(
            staircase_from_triangulation(phi(t).inner))
    for name, dream in dreams.items():
        assert hashlib.sha256(render_svg(dream).encode()).hexdigest() == SVG_DIGESTS[name], name


def fan(n: int) -> CylinderTriangulation:
    """The fan triangulation of C_n at k=1: every boundary class and the
    classes from vertex 0 of lengths 2..n."""
    reps = [(a, a + 1) for a in range(n)] + [(0, b) for b in range(2, n + 1)]
    return CylinderTriangulation(cylinder(n, 1), tuple(sorted(EdgeClass(Edge(*r), n) for r in reps)))


def test_caches_stay_bounded():
    caches = [(pipedreams._canonical_geometry, pipedreams._CACHE_SIZE),
              (bijection._wrap_table, bijection._CACHE_SIZE),
              (bijection._polygon_edges, bijection._CACHE_SIZE)]
    sizes = max(bound for _, bound in caches) + 3
    for n in range(2, 2 + sizes):
        image = phi(fan(n))
        staircase = staircase_from_triangulation(image.inner)
        chevron = chevron_from_staircase(staircase)
        assert is_n_periodic(chevron, n)
        assert render_svg(chevron) == oracle_render_svg(chevron)
        for cache, bound in caches:
            assert cache.cache_info().maxsize == bound
            assert cache.cache_info().currsize <= bound
    for cache, bound in caches:
        assert cache.cache_info().currsize == bound


def test_hand_built_dream_leaves_the_cache_alone():
    t = enumerate_cylinder(cylinder(3, 2))[7]
    chevron = chevron_from_staircase(staircase_from_triangulation(phi(t).inner))
    cached = pipedreams._geometry(chevron)
    assert cached is pipedreams._canonical_geometry(CHEVRON, 12, 2)
    before = pipedreams._canonical_geometry.cache_info().currsize
    stray = PipeDream(CHEVRON, dict(chevron.tiles) | {(13, 1): BUMP}, 12, 2)
    for dream in (stray, chevron):
        assert_same_trace(dream)
        assert outcome(is_n_periodic, dream, 3) == outcome(oracle_is_n_periodic, dream, 3)
        assert render_svg(dream) == oracle_render_svg(dream)
    assert pipedreams._geometry(stray) is not cached
    assert pipedreams._canonical_geometry(CHEVRON, 12, 2) is cached
    assert pipedreams._canonical_geometry.cache_info().currsize == before
    assert cached.cells == list(chevron.tiles)


def test_canonical_size_counts_the_canonical_cells():
    """`_canonical_size` restates the canonical cell lists as formulas; a
    drift would send every dream down the uncached path."""
    for m in range(3, 25):
        for k in range(1, 5):
            assert pipedreams._canonical_size(STAIRCASE, m, k) == len(
                pipedreams._canonical_geometry(STAIRCASE, m, k).cells)
            size = pipedreams._canonical_size(CHEVRON, m, k)
            try:
                pipedreams._check_chevron_input(PipeDream(STAIRCASE, {}, m, k))
            except ShapeMismatch:
                assert size is None
            else:
                assert size == len(pipedreams._canonical_geometry(CHEVRON, m, k).cells)
    pipedreams._canonical_geometry.cache_clear()


def test_hand_built_dream_naming_a_large_gon_builds_nothing_of_its_size():
    before = pipedreams._canonical_geometry.cache_info()
    for shape in (STAIRCASE, CHEVRON):
        assert_same_dream_results(
            PipeDream(shape, {(3, 1): JELBOW, (3, 2): BUMP}, 4 * 10**6, 2), 10**6)
    assert pipedreams._canonical_geometry.cache_info() == before


@pytest.mark.parametrize("m,k", [(4, 2), (6, 3)])
def test_no_chevron_of_the_2k_gon(m, k):
    (t,) = enumerate_polygon(polygon(m, k))
    staircase = staircase_from_triangulation(t)
    for build in (chevron_stages, chevron_from_staircase):
        with pytest.raises(ShapeMismatch, match="more than 2k vertices"):
            build(staircase)


def test_cli_pipedreams_suite_refuses_c1(capsys):
    assert main(["verify", "--suite", "pipedreams", "--n", "1", "--k", "2"]) == 2
    assert "n >= 2" in capsys.readouterr().err
