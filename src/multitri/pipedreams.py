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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedShape, ShapeMismatch, StructureViolation
from .polygon import PolygonTriangulation, short_edges
from .surfaces import Edge, polygon

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

OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}
_STEP = {"N": (1, 0), "S": (-1, 0), "E": (0, 1), "W": (0, -1)}

GLYPHS = {BUMP: "B", CROSS: "X", JELBOW: "J", FELBOW: "F"}


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


def staircase_from_triangulation(t: PolygonTriangulation) -> PipeDream:
    """Fill the staircase for the m-gon from the edges of t."""
    m, k = t.surface.n, t.surface.k
    edges = t.edge_set()
    tiles = {}
    for r in range(k + 1, m + 1):
        for c in range(1, r - k):
            tiles[r, c] = BUMP if Edge(c - 1, r - 1) in edges else CROSS
        tiles[r, r - k] = JELBOW
    return PipeDream(STAIRCASE, tiles, m, k)


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
    ports = boundary_ports(p)
    entries = sorted(
        [q for q in ports if q[0] == "W"], key=lambda q: -q[1]
    ) + sorted(
        [q for q in ports if q[0] == "S"], key=lambda q: q[2]
    )
    paths = []
    first_through: dict[tuple[int, int], int] = {}
    crossings: dict[tuple[int, int], tuple] = {}
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
            if kind == CROSS and (first := first_through.setdefault(pos, pipe)) != pipe:
                crossings[first, pipe] = crossings.get((first, pipe), ()) + (pos,)
            nxt = _neighbor(*pos, out_side)
            if nxt not in p.tiles:
                paths.append(PipePath((side, r, c), (out_side, *pos), tuple(visited)))
                break
            pos = nxt
            in_side = OPPOSITE[out_side]
    permutation = None
    if p.shape == STAIRCASE:
        permutation = [path.exit[2] for path in paths]
    return TraceResult(tuple(paths), crossings, permutation)


def _pyramid_cells(m: int, k: int, width: int) -> list[tuple[int, int]]:
    # Inverted pyramid hanging from the top row with its NE corner at (m, m-k).
    cells = []
    for d in range((width + 1) // 2):
        cells.extend((m - d, c) for c in range(m - k - width + 1 + d, m - k - d + 1))
    return cells


def chevron_stages(p: PipeDream) -> dict:
    """Run the staircase-to-chevron rebuild, keeping every intermediate piece.

    Returns tile maps for: the pruned staircase minus its pyramid, the
    pyramid itself, the dream after the pyramid is reattached at the SW,
    that dream minus the NE triangle, the triangle, and the final chevron.
    """
    if p.shape != STAIRCASE:
        raise ShapeMismatch(f"chevron construction starts from a staircase, got {p.shape}")
    m, k = p.m, p.k
    if m % 2:
        raise ShapeMismatch(f"chevron construction needs an even gon, got m={m}")
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

    # Steps 2-3: carry the pyramid to the SW boundary.  A cell lands on the
    # anti-diagonal transpose of its label pair, which swaps the two elbow
    # kinds and keeps boxes.
    for (r, c), kind in pyramid.items():
        target = (c, r - m)
        if target in tiles:
            raise StructureViolation(f"pyramid cell {(r, c)} lands on occupied {target}")
        tiles[target] = {JELBOW: FELBOW, FELBOW: JELBOW}.get(kind, kind)
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
    for (r, c), kind in triangle.items():
        target = (c, r - m)
        if target in tiles:
            raise StructureViolation(f"triangle cell {(r, c)} lands on occupied {target}")
        tiles[target] = kind

    return {
        "pruned_remainder": remainder1,
        "pyramid": pyramid,
        "reattached": reattached,
        "triangle_remainder": remainder4,
        "triangle": triangle,
        "chevron": tiles,
    }


def chevron_from_staircase(p: PipeDream) -> PipeDream:
    return PipeDream(CHEVRON, chevron_stages(p)["chevron"], p.m, p.k)


def cell_edge(r: int, c: int, m: int) -> Edge:
    """The polygon edge a tile carries, 0-indexed, labels taken modulo m."""
    return Edge((r - 1) % m, (c - 1) % m)


def _orbit_key(e: Edge, n: int, m: int):
    # Two cells carry shifts of the same edge orbit iff these unordered
    # endpoint signatures match; comparing raw (row, col) labels would miss
    # orbit members wrapping past vertex m, where the labels swap roles.
    x, y = e.a, e.b
    return frozenset({(x % n, (y - x) % m), (y % n, (x - y) % m)})


def is_n_periodic(p: PipeDream, n: int) -> bool:
    """Do label-congruent boxes agree in kind?  Elbows carry no filling."""
    m, k = p.m, p.k
    if m != 2 * k * n:
        raise ShapeMismatch(f"period {n} with k={k} needs a {2 * k * n}-gon, got m={m}")
    groups: dict = {}
    for (r, c), kind in p.tiles.items():
        if kind not in (BUMP, CROSS):
            continue
        key = _orbit_key(cell_edge(r, c, m), n, m)
        groups.setdefault(key, set()).add(kind)
    return all(len(kinds) == 1 for kinds in groups.values())


def is_reflection_symmetric(p: PipeDream) -> bool:
    """Is the chevron fixed by the reflection through its central axis?"""
    if p.shape != CHEVRON:
        raise ShapeMismatch(f"the reflection axis is a chevron feature, got {p.shape}")
    half = p.m // 2
    swap = {JELBOW: FELBOW, FELBOW: JELBOW}
    for (r, c), kind in p.tiles.items():
        mirrored = p.tiles.get((c + half, r - half))
        if mirrored != swap.get(kind, kind):
            return False
    return True


def edges_from_pipedream(p: PipeDream) -> PolygonTriangulation:
    """Read the triangulation back off the bumps (plus the forced short edges)."""
    m, k = p.m, p.k
    edges = set(short_edges(m, k))
    for (r, c), kind in p.tiles.items():
        if kind == BUMP:
            edges.add(cell_edge(r, c, m))
    return PolygonTriangulation(polygon(m, k), tuple(sorted(edges)))
