"""Pipe dreams for k-triangulations: staircases and chevrons.

A triangulation of the m-gon fills a staircase polyomino with bump and
cross tiles: box (r, c), labels 1-indexed, is a bump exactly when {c, r}
is an edge.  Boxes at gap r-c below k are elided, the gap-k diagonal
carries fixed J elbows, and the forced short edges near gap m show up as
bumps.  A five-step cut-and-move rebuilds the staircase into a chevron
whose cells carry the same edge labels modulo m.

Row labels increase upward, so the neighbor to the north of (r, c) is
(r+1, c).  Pipes run monotonically from west/south entries to north/east
exits.

What depends on the cells of a dream alone, and not on its tiles, is a
`_Geometry`: the neighbour of each cell on each side, the cells where a
pipe may enter in entry order, the polygon edge of each cell, its orbit
under rotation by n = m/2k, and its SVG fragment for each tile kind, all
indexed by the cell's position in insertion order.  The staircase of the
m-gon at order k, and its chevron, have one cell list each, fixed by
(m, k): the support on which Stump and Pilaud-Pocchiola read a
k-triangulation as pseudolines.  `_canonical_geometry` builds each once,
on first use, and keeps at most `_CACHE_SIZE` of them, each O(m^2).
A call then reads its tiles in cell order and does integer work.  Both
shapes are filled by one label rule, `_fill`: each cell holds its fixed
elbow, else a bump where its edge is in the triangulation and a cross
elsewhere.  It holds for the chevron since the five steps carry each box
onto labels congruent to its own modulo m, and no two boxes share an
edge; `chevron_from_staircase` hands any staircase that
`staircase_from_triangulation` could not have made to `chevron_stages`.
A dream whose cell list is not the canonical one, in the canonical order,
gets a geometry of its own for that call, so it never enters the cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import itemgetter

from .errors import MalformedShape, ShapeMismatch, StructureViolation
from .polygon import PolygonTriangulation, _rotation_orbit, short_edges
from .surfaces import _CACHE_SIZE, Edge, polygon

BUMP = "bump"
CROSS = "cross"
JELBOW = "jelbow"
FELBOW = "felbow"

STAIRCASE = "staircase"
CHEVRON = "chevron"

CONNECTIONS = {
    BUMP: {"W": "N", "N": "W", "S": "E", "E": "S"},
    CROSS: {"W": "E", "E": "W", "S": "N", "N": "S"},
    JELBOW: {"W": "N", "N": "W"},
    FELBOW: {"S": "E", "E": "S"},
}

_STEP = {"N": (1, 0), "S": (-1, 0), "E": (0, 1), "W": (0, -1)}

GLYPHS = {BUMP: "B", CROSS: "X", JELBOW: "J", FELBOW: "F"}

# A cell's anti-diagonal transpose and the chevron's reflection swap J and F elbows.
_MIRRORED = {JELBOW: FELBOW, FELBOW: JELBOW}

# Sides as integers: side s faces side (s + 2) % 4.  _TURNS[kind][s] is the
# side a pipe entering a tile of that kind from side s leaves by, or None.
_SIDES = ("N", "E", "S", "W")
_SOUTH, _WEST = 2, 3
_TURNS = {kind: tuple(_SIDES.index(turn[s]) if s in turn else None for s in _SIDES)
          for kind, turn in CONNECTIONS.items()}

TILE = 24


@dataclass(frozen=True)
class PipeDream:
    shape: str
    tiles: dict
    m: int
    k: int


@dataclass(frozen=True)
class PipePath:
    entry: tuple[str, int, int]
    exit: tuple[str, int, int]
    visited: tuple[tuple[int, int, str], ...]


def _neighbor(r: int, c: int, side: str) -> tuple[int, int]:
    dr, dc = _STEP[side]
    return r + dr, c + dc


def _box(cells) -> tuple[int, int, int, int]:
    """The top row, the leftmost column, and the row and column counts of
    the smallest box holding the cells: the one drawing box of a dream,
    (0, 0, 0, 0) when there are no cells."""
    if not cells:
        return 0, 0, 0, 0
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    top, left = max(rows), min(cols)
    return top, left, top - min(rows) + 1, max(cols) - left + 1


def _tile_paths(x: int, y: int) -> dict[str, list[str]]:
    """The SVG path data of each tile kind drawn with its corner at (x, y)."""
    half = TILE // 2
    wn = f"M {x} {y + half} A {half} {half} 0 0 1 {x + half} {y}"
    se = f"M {x + half} {y + TILE} A {half} {half} 0 0 1 {x + TILE} {y + half}"
    we = f"M {x} {y + half} L {x + TILE} {y + half}"
    sn = f"M {x + half} {y + TILE} L {x + half} {y}"
    return {BUMP: [wn, se], CROSS: [we, sn], JELBOW: [wn], FELBOW: [se]}


class _Geometry:
    """What the cells of an m-gon pipe dream at order k decide, indexed by
    each cell's position in `cells` (the dream's insertion order).  Each
    table is computed on first use."""

    def __init__(self, cells: list, m: int, k: int):
        self.cells, self.m, self.k = cells, m, k

    @functools.cached_property
    def neighbors(self) -> list[list[int]]:
        """neighbors[s][i]: the index of the neighbour of cell i on side s, or -1."""
        index = {cell: i for i, cell in enumerate(self.cells)}
        return [[index.get(_neighbor(r, c, side), -1) for r, c in self.cells]
                for side in _SIDES]

    @functools.cached_property
    def entries(self) -> list[tuple[int, int]]:
        """(cell, side) for the cells without a west neighbour, top to bottom,
        then those without a south neighbour, left to right: the places a
        pipe may enter, in pipe order."""
        cells, no = self.cells, range(len(self.cells))
        west = sorted((i for i in no if self.neighbors[_WEST][i] < 0), key=lambda i: -cells[i][0])
        south = sorted((i for i in no if self.neighbors[_SOUTH][i] < 0), key=lambda i: cells[i][1])
        return [(i, _WEST) for i in west] + [(i, _SOUTH) for i in south]

    @functools.cached_property
    def ports(self) -> list[tuple[tuple[str, int, int], ...]]:
        """ports[i][s]: the boundary port (side, r, c) of cell i on side s."""
        return [tuple((side, r, c) for side in _SIDES) for r, c in self.cells]

    @functools.cached_property
    def visits(self) -> list[tuple[tuple[int, int, str], ...]]:
        """visits[i][s]: the step (r, c, side) of a pipe leaving cell i by side s."""
        return [tuple((r, c, side) for side in _SIDES) for r, c in self.cells]

    @functools.cached_property
    def ends(self) -> list[tuple[int, int]]:
        """The endpoints (a, b) of each cell's `cell_edge`, a < b, or
        (a, a) where the labels agree modulo m."""
        m = self.m
        return [tuple(sorted(((r - 1) % m, (c - 1) % m))) for r, c in self.cells]

    @functools.cached_property
    def degenerate(self) -> list[int]:
        """The cells whose labels agree modulo m, so carry no edge."""
        return [i for i, (a, b) in enumerate(self.ends) if a == b]

    @functools.cached_property
    def orbits(self) -> list[int]:
        """1 << j for each cell whose edge lies in the j-th orbit under
        rotation by n = m/2k, numbered as first met; 0 for a cell with no
        edge."""
        n, m = self.m // (2 * self.k), self.m
        ids: dict = {}
        return [0 if a == b else 1 << ids.setdefault(_rotation_orbit(a, b, n, m)[0], len(ids))
                for a, b in self.ends]

    @functools.cached_property
    def svg(self) -> tuple[str, list[int], list[dict[str, str]]]:
        """The opening SVG tag, then the cells in drawing order (top row
        first, left to right), with each one's fragment per tile kind."""
        cells = self.cells
        top, left, rows, cols = _box(cells)
        width, height = cols * TILE, rows * TILE
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                f'height="{height}" viewBox="0 0 {width} {height}">')
        order = sorted(range(len(cells)), key=lambda i: (-cells[i][0], cells[i][1]))
        fragments = []
        for i in order:
            x, y = (cells[i][1] - left) * TILE, (top - cells[i][0]) * TILE
            rect = (f'<rect x="{x}" y="{y}" width="{TILE}" height="{TILE}" '
                    'fill="none" stroke="#ccc" stroke-width="1"/>')
            fragments.append({
                kind: "\n".join([rect] + [
                    f'<path d="{d}" fill="none" stroke="#000" stroke-width="2"/>'
                    for d in paths])
                for kind, paths in _tile_paths(x, y).items()})
        return head, order, fragments


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _canonical_geometry(shape: str, m: int, k: int) -> _Geometry:
    """The geometry of the staircases `staircase_from_triangulation` fills
    for the m-gon at order k, or of the chevrons made from them.

    Each lists its fixed elbows for `_fill` as (index, kind) pairs
    (`elbows`): the staircase's J elbows on the gap-k diagonal, and the
    chevron's from `chevron_stages` on the all-bump staircase.  The
    staircase's also lists its cells of gap m-k (`forced`), and the
    chevron's reads, from the staircase's kinds in cell order, the kind of
    the staircase cell carrying each chevron cell's edge (`source`).
    """
    if shape == STAIRCASE:
        geometry = _Geometry(
            [(r, c) for r in range(k + 1, m + 1) for c in range(1, r - k + 1)], m, k)
        geometry.elbows = [(i, JELBOW) for i, (r, c) in enumerate(geometry.cells) if r - c == k]
        geometry.forced = [i for i, (r, c) in enumerate(geometry.cells) if r - c == m - k]
        return geometry
    staircase = _canonical_geometry(STAIRCASE, m, k)
    filled = dict(zip(staircase.cells, _fill(staircase, set(staircase.ends))))
    chevron = chevron_stages(PipeDream(STAIRCASE, filled, m, k))["chevron"]
    geometry = _Geometry(list(chevron), m, k)
    geometry.elbows = [(i, kind) for i, kind in enumerate(chevron.values()) if kind != BUMP]
    position = {end: j for j, end in enumerate(staircase.ends)}
    geometry.source = itemgetter(*(position[end] for end in geometry.ends))
    return geometry


def _fill(geometry: _Geometry, edges: frozenset | set) -> list[str]:
    """The kinds of a canonical dream's cells, in cell order: each cell's
    fixed elbow, else a bump where its edge is in `edges` and a cross
    elsewhere."""
    kinds = [BUMP if end in edges else CROSS for end in geometry.ends]
    for i, kind in geometry.elbows:
        kinds[i] = kind
    return kinds


def _canonical_size(shape: str, m: int, k: int) -> int | None:
    """The cell count of the canonical dream of this shape and size, or
    None where there is none; checked before a geometry is built, so a
    hand-built dream naming a large m builds nothing of that size."""
    if shape == STAIRCASE:
        return (m - k) * (m - k + 1) // 2 if m > k else 0
    if shape == CHEVRON and k >= 1 and m % 2 == 0 and m > 2 * k:
        return (m - k) * (m - k + 1) // 2 - k * (k - 1) // 2  # step 1 drops k(k-1)/2 cells
    return None


def _canonical_for(p: PipeDream) -> _Geometry | None:
    """The cached geometry of p's shape at (p.m, p.k) if p has its cells,
    in its order."""
    cells = list(p.tiles)
    if len(cells) == _canonical_size(p.shape, p.m, p.k):
        geometry = _canonical_geometry(p.shape, p.m, p.k)
        if geometry.cells == cells:
            return geometry
    return None


def _geometry(p: PipeDream) -> _Geometry:
    """The cached geometry of p if it has one, else one of p's own cells."""
    return _canonical_for(p) or _Geometry(list(p.tiles), p.m, p.k)


def staircase_from_triangulation(t: PolygonTriangulation) -> PipeDream:
    """Fill the staircase for the m-gon from the edges of t."""
    m, k = t.surface.n, t.surface.k
    geometry = _canonical_geometry(STAIRCASE, m, k)
    return PipeDream(STAIRCASE, dict(zip(geometry.cells, _fill(geometry, t.edge_set()))), m, k)


def boundary_ports(p: PipeDream) -> list[tuple[str, int, int]]:
    ports = []
    for (r, c), kind in p.tiles.items():
        for side in CONNECTIONS[kind]:
            if _neighbor(r, c, side) not in p.tiles:
                ports.append((side, r, c))
    return ports


def permutation_target(m: int, k: int) -> list[int]:
    """The boundary permutation every staircase from an m-gon triangulation induces."""
    return list(range(1, k + 1)) + list(range(m - k, k, -1))


@dataclass(frozen=True)
class TraceResult:
    paths: tuple[PipePath, ...]
    crossings: dict
    permutation: list[int] | None


def trace_pipes(p: PipeDream) -> TraceResult:
    """Follow every pipe from its entry to its exit.

    Pipes are numbered in entry order.  Crossings are recorded per pipe
    pair (low, high) as the tuple of cross cells where both strands meet,
    in the order the higher pipe passes them; pairs never meeting at a
    cross tile are absent from the map.  The permutation (west entry rows,
    top to bottom, to north exit columns) is reported for staircases only.
    """
    geometry = _geometry(p)
    cells, neighbors, ports, visits = geometry.cells, geometry.neighbors, geometry.ports, geometry.visits
    kinds = list(p.tiles.values())
    turns = [_TURNS[kind] for kind in kinds]
    paths = []
    first_through: dict[int, int] = {}
    crossings: dict[tuple[int, int], tuple] = {}
    entries = [(i, side) for i, side in geometry.entries if turns[i][side] is not None]
    for pipe, (start, side) in enumerate(entries):
        i, in_side = start, side
        visited = []
        while True:
            out_side = turns[i][in_side]
            if out_side is None:
                raise MalformedShape(
                    f"pipe {pipe} enters {cells[i]} from {_SIDES[in_side]}, a side the "
                    f"{kinds[i]} tile does not connect")
            visited.append(visits[i][out_side])
            if kinds[i] == CROSS and (first := first_through.setdefault(i, pipe)) != pipe:
                crossings[first, pipe] = crossings.get((first, pipe), ()) + (cells[i],)
            nxt = neighbors[out_side][i]
            if nxt < 0:
                paths.append(PipePath(ports[start][side], ports[i][out_side], tuple(visited)))
                break
            i, in_side = nxt, (out_side + 2) % 4
    permutation = None
    if p.shape == STAIRCASE:
        permutation = [path.exit[2] for path in paths]
    return TraceResult(tuple(paths), crossings, permutation)


def _bump_crossings(geometry: _Geometry, kinds: list[str], tile: int) -> set[int]:
    """The cross tiles where the two pipes that bump at the bump `tile`
    cross, each pipe followed out of both sides of its strand to the
    boundary.  A strand entering a tile from a side that its kind does not
    connect raises MalformedShape.  Only these two pipes are walked, so a
    flip reads its crossing without `trace_pipes`; a walk shared with that
    loop measured slower on one path or the other."""
    neighbors, crossed = geometry.neighbors, []
    # A bump joins its west side to its north and its south side to its east.
    for side in (_WEST, _SOUTH):
        crossed.append(set())
        for out in (side, _TURNS[BUMP][side]):
            i = tile
            while (i := neighbors[out][i]) >= 0:
                entry = (out + 2) % 4
                out = _TURNS[kinds[i]][entry]
                if out is None:
                    raise MalformedShape(
                        f"a pipe enters {geometry.cells[i]} from {_SIDES[entry]}, a side the "
                        f"{kinds[i]} tile does not connect")
                if kinds[i] == CROSS:
                    crossed[-1].add(i)
    return crossed[0] & crossed[1]


def _pyramid_cells(m: int, k: int, width: int) -> list[tuple[int, int]]:
    # Inverted pyramid hanging from the top row with its NE corner at (m, m-k).
    cells = []
    for d in range((width + 1) // 2):
        cells.extend((m - d, c) for c in range(m - k - width + 1 + d, m - k - d + 1))
    return cells


def _check_chevron_input(p: PipeDream) -> None:
    if p.shape != STAIRCASE:
        raise ShapeMismatch(f"chevron construction starts from a staircase, got {p.shape}")
    if p.m % 2:
        raise ShapeMismatch(f"chevron construction needs an even gon, got m={p.m}")
    if p.m <= 2 * p.k:
        # The 2k-gon has every edge short: no gap m-k cell holds a box.
        raise ShapeMismatch(
            f"chevron construction needs more than 2k vertices, got m={p.m} with k={p.k}")


def _carry(tiles: dict, piece: dict, name: str, m: int) -> None:
    """Move `piece` into `tiles`, each cell onto the anti-diagonal transpose of its labels."""
    for (r, c), kind in piece.items():
        target = (c, r - m)
        if target in tiles:
            raise StructureViolation(f"{name} cell {(r, c)} lands on occupied {target}")
        tiles[target] = _MIRRORED.get(kind, kind)


def chevron_stages(p: PipeDream) -> dict:
    """Run the staircase-to-chevron rebuild, keeping every intermediate piece.

    Returns tile maps for: the pruned staircase minus its pyramid, the
    pyramid itself, the dream after the pyramid is reattached at the SW,
    that dream minus the NE triangle, the triangle, and the final chevron.
    """
    _check_chevron_input(p)
    m, k = p.m, p.k
    tiles = dict(p.tiles)

    # Step 1: drop the k north-west pipes.  Their strands fill the cells of
    # gap m-k and beyond; at gap exactly m-k the south-east strand of the
    # bump survives as an F elbow.
    for (r, c) in list(tiles):
        if r - c >= m + 1 - k:
            del tiles[r, c]
    for (r, c) in list(tiles):
        if r - c == m - k:
            if tiles[r, c] != BUMP:
                raise StructureViolation(
                    f"cell {(r, c)} should hold a forced short edge, found {tiles[r, c]}")
            tiles[r, c] = FELBOW

    # The largest inverted pyramid clear of the F diagonal.
    width = 1
    while all(
        cell in tiles and tiles[cell] != FELBOW
        for cell in _pyramid_cells(m, k, width + 2)
    ):
        width += 2
    if width != m - 2 * k - 1:
        raise StructureViolation(
            f"largest pyramid is {width} wide, expected {m - 2 * k - 1}")
    pyramid = {cell: tiles.pop(cell) for cell in _pyramid_cells(m, k, width)}
    remainder1 = dict(tiles)

    # Steps 2-3: carry the pyramid to the SW boundary.
    _carry(tiles, pyramid, "pyramid", m)
    reattached = dict(tiles)

    # Step 4: split off the NE triangle of boxes.
    r0 = m - (width - 1) // 2
    triangle = {}
    for r in range(r0, m + 1):
        for c in range(k + 1, m + k + 2 - r):
            if tiles.get((r, c)) not in (BUMP, CROSS):
                raise StructureViolation(f"triangle cell {(r, c)} missing or not a box")
            triangle[r, c] = tiles.pop((r, c))
    remainder4 = dict(tiles)

    # Step 5: the same carry for the triangle.
    _carry(tiles, triangle, "triangle", m)

    return {
        "pruned_remainder": remainder1,
        "pyramid": pyramid,
        "reattached": reattached,
        "triangle_remainder": remainder4,
        "triangle": triangle,
        "chevron": tiles,
    }


def chevron_from_staircase(p: PipeDream) -> PipeDream:
    """The last stage of `chevron_stages`.  When p is a staircase
    `staircase_from_triangulation` could have made (the canonical cells in
    order, J elbows on the gap-k diagonal, bumps on the gap m-k one and
    boxes elsewhere), each chevron cell takes its fixed elbow, else the kind
    of the staircase box carrying its edge, through the cached cell map.
    Any other staircase goes through `chevron_stages`, whose forced-edge
    check then meets the first offending cell in the same order."""
    _check_chevron_input(p)
    staircase = _canonical_for(p)
    if staircase is not None:
        kinds = list(p.tiles.values())
        elbows = staircase.elbows
        if (all(kinds[i] == kind for i, kind in elbows)
                and all(kinds[i] == BUMP for i in staircase.forced)
                and kinds.count(BUMP) + kinds.count(CROSS) == len(kinds) - len(elbows)):
            # `_fill`'s rule: a chevron box is a bump iff the staircase box
            # carrying its edge is one.
            chevron = _canonical_geometry(CHEVRON, p.m, p.k)
            filled = list(chevron.source(kinds))
            for i, kind in chevron.elbows:
                filled[i] = kind
            return PipeDream(CHEVRON, dict(zip(chevron.cells, filled)), p.m, p.k)
    return PipeDream(CHEVRON, chevron_stages(p)["chevron"], p.m, p.k)


def cell_edge(r: int, c: int, m: int) -> Edge:
    """The polygon edge a tile carries, 0-indexed, labels taken modulo m."""
    return Edge((r - 1) % m, (c - 1) % m)


def is_n_periodic(p: PipeDream, n: int) -> bool:
    """Do label-congruent boxes agree in kind?  Elbows carry no filling."""
    m, k = p.m, p.k
    if m != 2 * k * n:
        raise ShapeMismatch(f"period {n} with k={k} needs a {2 * k * n}-gon, got m={m}")
    geometry = _geometry(p)
    kinds = list(p.tiles.values())
    for i in geometry.degenerate:
        if kinds[i] in (BUMP, CROSS):
            cell_edge(*geometry.cells[i], m)  # raises: a box here carries no edge
    bumps = crosses = 0
    for orbit, kind in zip(geometry.orbits, kinds):
        if kind == BUMP:
            bumps |= orbit
        elif kind == CROSS:
            crosses |= orbit
    return not bumps & crosses


def is_reflection_symmetric(p: PipeDream) -> bool:
    """Is the chevron fixed by the reflection through its central axis?"""
    if p.shape != CHEVRON:
        raise ShapeMismatch(f"the reflection axis is a chevron feature, got {p.shape}")
    half = p.m // 2
    return all(p.tiles.get((c + half, r - half)) == _MIRRORED.get(kind, kind)
               for (r, c), kind in p.tiles.items())


def edges_from_pipedream(p: PipeDream) -> PolygonTriangulation:
    """Read the triangulation back off the bumps (plus the forced short edges)."""
    m, k = p.m, p.k
    edges = set(short_edges(m, k))
    for (r, c), kind in p.tiles.items():
        if kind == BUMP:
            edges.add(cell_edge(r, c, m))
    return PolygonTriangulation(polygon(m, k), tuple(sorted(edges)))
