"""Vertices, edges, cyclic order and crossing predicates.

Two pictures coexist.  On the convex polygon the vertices are the residues
0..n-1 in counterclockwise order and crossing means cyclic interleaving of
endpoints.  On the half-cylinder everything is drawn on the universal cover,
an infinite strip with one integer vertex per unit; an edge class is the set
of translates of a cover edge by multiples of n.  Crossing questions about
classes are answered by `lift_universe`.

The cyclic order used on the cover treats the strip as a circle closed by a
single point at infinity: a tuple of distinct integers is cyclically ordered
iff some rotation of it is strictly increasing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import EdgeTooLong

POLYGON = "polygon"
CYLINDER = "cylinder"


@dataclass(frozen=True, order=True)
class Edge:
    """An edge as an ordered vertex pair, normalized so that a < b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"degenerate edge [{self.a},{self.b}]")
        if self.a > self.b:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    @property
    def length(self) -> int:
        return self.b - self.a

    def shifted(self, d: int) -> "Edge":
        return Edge(self.a + d, self.b + d)

    def __repr__(self):
        return f"[{self.a},{self.b}]"


@dataclass(frozen=True)
class SurfaceDesc:
    """Which surface we are on: polygon or cylinder, with n vertices, order k."""

    kind: str
    n: int
    k: int

    def __post_init__(self):
        if self.kind not in (POLYGON, CYLINDER):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={self.n} k={self.k}")
        if self.kind == POLYGON and self.n < 3:
            raise ValueError("polygon needs at least 3 vertices")


def polygon(n: int, k: int) -> SurfaceDesc:
    return SurfaceDesc(POLYGON, n, k)


def cylinder(n: int, k: int) -> SurfaceDesc:
    return SurfaceDesc(CYLINDER, n, k)


@dataclass(frozen=True, order=True)
class EdgeClass:
    """A translation orbit of cover edges, named by its canonical representative.

    The representative has left endpoint in [0, n); every member of the class
    is rep shifted by a multiple of n.
    """

    rep: Edge
    n: int

    def __post_init__(self):
        if not 0 <= self.rep.a < self.n:
            raise ValueError(f"representative {self.rep} not canonical for period {self.n}")

    @property
    def length(self) -> int:
        return self.rep.length

    def translate(self, t: int) -> Edge:
        return self.rep.shifted(t * self.n)

    def is_relevant(self, k: int) -> bool:
        return k < self.length <= k * self.n

    def is_spanning(self, k: int) -> bool:
        return self.length == k * self.n

    def __repr__(self):
        return f"~{self.rep!r}"


def edge_class_of(edge: Edge, n: int) -> EdgeClass:
    """The class containing a cover edge, with the representative canonicalized."""
    shift = edge.a % n - edge.a
    return EdgeClass(edge.shifted(shift), n)


def cyclic_length(edge: Edge, n: int) -> int:
    """Length of a polygon edge in the cyclic metric."""
    d = (edge.b - edge.a) % n
    return min(d, n - d)


def cyclically_ordered(*xs: int) -> bool:
    """True iff the distinct integers xs are met in this order going around the circle."""
    if len(set(xs)) != len(xs):
        return False
    descents = sum(xs[i] > xs[(i + 1) % len(xs)] for i in range(len(xs)))
    return descents <= 1


def crosses(e: Edge, f: Edge, surface: SurfaceDesc) -> bool:
    """Do the two edges cross in the interior of the surface?

    Edges sharing an endpoint never cross.  On the cylinder the test is run
    on cover edges, where cyclic interleaving degenerates to plain
    interleaving of integers.
    """
    if surface.kind == CYLINDER:
        return cover_crosses(e, f)
    if len({e.a, e.b, f.a, f.b}) != 4:
        return False
    return (e.a < f.a < e.b) != (e.a < f.b < e.b)


def cover_crosses(e: Edge, f: Edge) -> bool:
    return e.a < f.a < e.b < f.b or f.a < e.a < f.b < e.b


def has_clique(adj: list[int], size: int, within: int | None = None) -> bool:
    """Is there a clique of the given size in the graph given by bitmask rows?

    `within` restricts the search to a vertex subset (as a bitmask).  Vertices
    are picked in increasing index order, so every clique is visited once.
    """
    if size <= 0:
        return True
    full = within if within is not None else (1 << len(adj)) - 1

    def grow(cand: int, need: int) -> bool:
        if need == 0:
            return True
        while cand:
            if cand.bit_count() < need:
                return False
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if grow(cand & adj[v], need - 1):
                return True
        return False

    return grow(full, size)


def _crossing_capable(e: Edge, k: int, surface: SurfaceDesc) -> bool:
    # An edge of length l can sit in a pairwise-crossing family of at most l
    # edges, so length <= k never contributes to a (k+1)-crossing.
    if surface.kind == POLYGON:
        return cyclic_length(e, surface.n) > k
    return e.length > k


def has_k_plus_1_crossing(edges, k: int, surface: SurfaceDesc) -> bool:
    """Does the edge set contain k+1 pairwise-crossing edges?"""
    longs = sorted(e for e in set(edges) if _crossing_capable(e, k, surface))
    if len(longs) <= k:
        return False
    adj = [0] * len(longs)
    for i, e in enumerate(longs):
        for j in range(i + 1, len(longs)):
            if crosses(e, longs[j], surface):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return has_clique(adj, k + 1)


def window_translations(k: int) -> range:
    """Translation indices of the lift window of `lift_universe`."""
    return range(-(2 * k + 1), 2 * k + 2)


class LiftUniverse:
    """Window translates of the k-relevant classes of C_n, as bits in edge order.

    Bit p is `edges[p]` (sorted) and `adj[p]` marks the edges crossing it.
    Class `classes[i]` (sorted, `index` inverts it) owns the bits
    `translates[i]`, and `through_rep[i]` marks the edges crossing its
    representative.
    """

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.classes = [EdgeClass(Edge(a, b), n)
                        for a in range(n) for b in range(a + k + 1, a + k * n + 1)]
        self.index = {c: i for i, c in enumerate(self.classes)}
        self.edges = sorted(c.translate(t) for c in self.classes for t in window_translations(k))
        self.adj = [0] * len(self.edges)
        self.translates = [0] * len(self.classes)
        for p, e in enumerate(self.edges):
            self.translates[self.index[edge_class_of(e, n)]] |= 1 << p
            for q in range(p + 1, len(self.edges)):
                if self.edges[q].a >= e.b:
                    break
                if cover_crosses(e, self.edges[q]):
                    self.adj[p] |= 1 << q
                    self.adj[q] |= 1 << p
        # The representatives are the edges starting in [0, n), in class order.
        self.through_rep = [self.adj[p] for p, e in enumerate(self.edges) if 0 <= e.a < n]

    def indices(self, classes) -> list[int]:
        """Indices of the classes longer than k; shorter ones never cross."""
        found = []
        for c in classes:
            if c.length > self.k * self.n:
                raise EdgeTooLong(f"class {c} has length {c.length} > k*n = {self.k * self.n}")
            if c.n != self.n:
                raise ValueError(f"class {c} has period {c.n}, expected {self.n}")
            if c.length > self.k:
                found.append(self.index[c])
        return found

    def lift(self, indices) -> int:
        """The mask of every window translate of the given classes."""
        mask = 0
        for i in indices:
            mask |= self.translates[i]
        return mask

    def blocked(self, i: int, mask: int) -> bool:
        """Does class i with the lift `mask` make a (k+1)-crossing through its rep?"""
        return has_clique(self.adj, self.k,
                          within=self.through_rep[i] & (mask | self.translates[i]))

    def crossing_free(self, indices) -> bool:
        """Is the lift of the given classes free of (k+1)-crossings?"""
        mask = self.lift(indices)
        return not any(self.blocked(i, mask) for i in indices)


@functools.cache
def lift_universe(n: int, k: int) -> LiftUniverse:
    """The crossing universe of C_n at order k, built once per (n, k) and
    shared by every caller, so read-only.

    Why a finite window decides crossings on the infinite lift: an edge
    crossing a cover edge [a, b] of length at most kn starts in (a - kn, b).
    Translate a (k+1)-crossing of a periodic edge set so that one member is
    a class representative, starting in [0, n); every member then starts in
    (-kn, (k+1)n), so it is a translate t in [-k, k] of its representative,
    inside `window_translations`.  So a set of classes lifts crossing-free
    iff no representative is `blocked`.  If the set is crossing-free, a crossing
    made by adding one class uses a translate of it, which may be taken to
    be its representative, so `blocked` alone decides addability.
    """
    return LiftUniverse(n, k)


def is_periodic_crossing_free(classes, k: int, n: int) -> bool:
    """Is the lift of the edge classes free of (k+1)-crossings?"""
    universe = lift_universe(n, k)
    return universe.crossing_free(universe.indices(classes))
