"""Triangulation JSON, ASCII grids, and SVG for pipe dreams.

The JSON schema is strict: exactly the fields surface/n/k/edges, with
cylinder edges given as canonical class representatives.  Schema
problems raise ValueError (a usage error at the CLI boundary), while
structural problems inside the library keep their own error types.
"""

from __future__ import annotations

from .cylinder import CylinderTriangulation
from .pipedreams import GLYPHS, PipeDream, _box, _geometry
from .polygon import PolygonTriangulation
from .surfaces import CYLINDER, POLYGON, Edge, EdgeClass, cylinder, polygon

_SCHEMA_FIELDS = {"surface", "n", "k", "edges"}


def _require_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def parse_triangulation(obj) -> PolygonTriangulation | CylinderTriangulation:
    """Strict parse of the triangulation JSON object."""
    if not isinstance(obj, dict):
        raise ValueError("triangulation JSON must be an object")
    unknown = set(obj) - _SCHEMA_FIELDS
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")
    missing = _SCHEMA_FIELDS - set(obj)
    if missing:
        raise ValueError(f"missing fields {sorted(missing)}")
    kind = obj["surface"]
    if kind not in (POLYGON, CYLINDER):
        raise ValueError(f"surface must be 'polygon' or 'cylinder', got {kind!r}")
    n = _require_int(obj["n"], "n")
    k = _require_int(obj["k"], "k")
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be positive, got n={n} k={k}")
    raw = obj["edges"]
    if not isinstance(raw, list):
        raise ValueError("edges must be a list of [a, b] pairs")
    edges = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) for x in item)
        ):
            raise ValueError(f"edge {item!r} is not an [a, b] integer pair")
        a, b = item
        if a >= b:
            raise ValueError(f"edge [{a}, {b}] must have a < b")
        edges.append(Edge(a, b))
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edges")
    if kind == POLYGON:
        for a, b in edges:
            if not (0 <= a and b < n):
                raise ValueError(f"edge [{a}, {b}] outside vertex range 0..{n - 1}")
        return PolygonTriangulation(polygon(n, k), tuple(sorted(edges)))
    for a, b in edges:
        if not (0 <= a < n and b <= a + k * n):
            raise ValueError(
                f"[{a}, {b}] is not a canonical class representative "
                f"(need 0 <= a < {n}, a < b <= a + {k * n})")
    classes = tuple(sorted(EdgeClass(e, n) for e in edges))
    return CylinderTriangulation(cylinder(n, k), classes)


def serialize_triangulation(t: PolygonTriangulation | CylinderTriangulation) -> dict:
    if isinstance(t, PolygonTriangulation):
        edges = [list(e) for e in sorted(t.edges)]
    else:
        edges = [list(c.rep) for c in sorted(t.classes)]
    return {
        "surface": t.surface.kind,
        "n": t.surface.n,
        "k": t.surface.k,
        "edges": edges,
    }


def grid_lines(tiles: dict) -> list[str]:
    """Bounding-box rows of glyphs, top row first, absent cells dotted."""
    return _grid_lines(tiles, _box(tiles))


def _grid_lines(tiles: dict, box: tuple[int, int, int, int]) -> list[str]:
    top, left, rows, cols = box
    return ["".join(GLYPHS[tiles[r, c]] if (r, c) in tiles else "."
                    for c in range(left, left + cols))
            for r in range(top, top - rows, -1)]


def render_ascii(p: PipeDream) -> str:
    box = _box(p.tiles)
    header = f"shape={p.shape} n={p.m} k={p.k} row0={box[0]} col0={box[1]}"
    return "\n".join([header] + _grid_lines(p.tiles, box)) + "\n"


def render_svg(p: PipeDream) -> str:
    """Fixed 24-unit tiles; bumps as quarter-circle arcs, crosses as segments.
    Each tile's fragment comes from the dream's cell geometry."""
    head, order, fragments = _geometry(p).svg
    kinds = list(p.tiles.values())
    return "\n".join([
        head,
        f"<!-- shape={p.shape} n={p.m} k={p.k} -->",
        *[fragment[kinds[i]] for i, fragment in zip(order, fragments)],
        "</svg>",
    ]) + "\n"


def pipedream_json(p: PipeDream) -> dict:
    return {
        "shape": p.shape,
        "n": p.m,
        "k": p.k,
        "tiles": [
            [r, c, p.tiles[r, c]]
            for (r, c) in sorted(p.tiles, key=lambda rc: (-rc[0], rc[1]))
        ],
    }
