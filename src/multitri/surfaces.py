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
import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import EdgeTooLong, StructureViolation

POLYGON = "polygon"
CYLINDER = "cylinder"

# Entries kept by each per-size cache: lift universes, m-gon tables, dream geometries.
_CACHE_SIZE = 16


class Edge(tuple):
    """An edge as the vertex pair (a, b), normalized so that a < b: a tuple,
    so it hashes, compares and sorts as that pair."""

    __slots__ = ()
    a = property(itemgetter(0))
    b = property(itemgetter(1))

    def __new__(cls, a: int, b: int):
        if a == b:
            raise ValueError(f"degenerate edge [{a},{b}]")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def length(self) -> int:
        return self[1] - self[0]

    def shifted(self, d: int) -> "Edge":
        return Edge(self[0] + d, self[1] + d)

    def __repr__(self):
        return f"[{self[0]},{self[1]}]"


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


class EdgeClass(tuple):
    """A translation orbit of cover edges, named by its canonical representative.

    The representative has left endpoint in [0, n); every member of the class
    is rep shifted by a multiple of n.  A tuple (rep, n), so it hashes,
    compares and sorts as that pair.
    """

    __slots__ = ()
    rep = property(itemgetter(0))
    n = property(itemgetter(1))

    def __new__(cls, rep: Edge, n: int):
        if not 0 <= rep[0] < n:
            raise ValueError(f"representative {rep} not canonical for period {n}")
        return tuple.__new__(cls, (rep, n))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def length(self) -> int:
        (a, b), _ = self
        return b - a

    def translate(self, t: int) -> Edge:
        return self[0].shifted(t * self[1])

    def is_relevant(self, k: int) -> bool:
        return k < self.length <= k * self[1]

    def is_spanning(self, k: int) -> bool:
        return self.length == k * self[1]

    def __repr__(self):
        return f"~{self[0]!r}"


def edge_class_of(edge: Edge, n: int) -> EdgeClass:
    """The class containing a cover edge, with the representative canonicalized."""
    shift = edge[0] % n - edge[0]
    return EdgeClass(edge.shifted(shift), n)


def cyclic_length(edge: Edge, n: int) -> int:
    """Length of a polygon edge in the cyclic metric."""
    d = (edge[1] - edge[0]) % n
    return min(d, n - d)


def cyclically_ordered(*xs: int) -> bool:
    """True iff the distinct integers xs are met in this order going around the circle."""
    if len(set(xs)) != len(xs):
        return False
    descents = sum(xs[i] > xs[(i + 1) % len(xs)] for i in range(len(xs)))
    return descents <= 1


def crosses(e: Edge, f: Edge, surface: SurfaceDesc) -> bool:
    """Do the two edges cross in the interior of the surface?

    Edges are normalized (a < b), so on both surfaces this is plain
    interleaving of integers, `cover_crosses`: on the polygon, exactly one
    endpoint of f strictly inside e.  Edges sharing an endpoint never cross.
    """
    return cover_crosses(e, f)


def cover_crosses(e: Edge, f: Edge) -> bool:
    (a, b), (c, d) = e, f
    return a < c < b < d or c < a < d < b


def bits(mask: int):
    """The set bits of a mask, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


# Binary digits as `itertools.compress` selectors: b"0" -> 0, b"1" -> 1.
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def sorted_unions(fixed, groups, picks) -> list[tuple]:
    """For each mask of group indices in `picks`, the sorted tuple of the
    items of `fixed` and of the picked groups (all distinct), the tuples in
    sorted order: the one place that orders enumeration output.

    Every item is ranked once, the lowest on the highest bit; a group is
    then the mask of its items' ranks, and the binary digits of a result's
    union of masks select its items in rank order, with no comparison of
    items per result.  The unions are sorted descending.  Two results first
    differ at the lowest item that one of them holds; unless the other is a
    prefix of it, the other holds a higher item in that place and so sorts
    after it.  Maximal sets form an antichain, so no result is a prefix of
    another; where one is, it comes after the longer tuple.
    """
    ranked = sorted(itertools.chain(fixed, *groups))
    top = len(ranked) - 1
    rank = {x: top - r for r, x in enumerate(ranked)}
    base = sum(1 << rank[x] for x in fixed)
    union = _union_of([sum(1 << rank[x] for x in group) for group in groups])
    unions = sorted((base | union(picked) for picked in picks), reverse=True)
    digits = f"0{len(ranked)}b"
    # A list first: a tuple grown from the iterator resizes as it goes.
    return [tuple([*itertools.compress(
                ranked, format(mask, digits).encode().translate(_SELECTORS))])
            for mask in unions]


def _union_of(values: list[int]):
    """The map from a mask over the indices of `values` to the OR of the
    values it picks, read off per-byte tables, one entry per byte."""
    tables = []
    for c in range(0, len(values), 8):
        table = [0] * (1 << min(8, len(values) - c))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] | values[c + low.bit_length() - 1]
        tables.append(table)

    def union(mask: int) -> int:
        found = 0
        for table in tables:
            found |= table[mask & 255]
            mask >>= 8
        return found
    return union


def has_clique(adj: list[int], size: int, within: int | None = None) -> bool:
    """Is there a clique of the given size in the graph given by bitmask rows?

    `within` restricts the search to a vertex subset (as a bitmask).  Vertices
    are picked in increasing index order, so every clique is visited once.
    """
    if size <= 0:
        return True
    return _grow(adj, within if within is not None else (1 << len(adj)) - 1, size)


def _grow(adj: list[int], cand: int, need: int) -> bool:
    """Can `need` more pairwise-adjacent vertices be picked from `cand`?"""
    if need == 1:
        return cand != 0
    while cand:
        if cand.bit_count() < need:
            return False
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        if _grow(adj, cand & adj[v], need - 1):
            return True
    return False


def _crossing_capable(e: Edge, k: int, surface: SurfaceDesc) -> bool:
    # An edge of length l can sit in a pairwise-crossing family of at most l
    # edges, so length <= k never contributes to a (k+1)-crossing.
    if surface.kind == POLYGON:
        return cyclic_length(e, surface.n) > k
    return e.length > k


def has_k_plus_1_crossing(edges, k: int, surface: SurfaceDesc) -> bool:
    """Does the edge set contain k+1 pairwise-crossing edges?  One clique
    search on the `crossing_rows` of the long enough edges."""
    longs = sorted({e for e in edges if _crossing_capable(e, k, surface)})
    return len(longs) > k and has_clique(crossing_rows(longs), k + 1)


def crossing_rows(edges) -> list[int]:
    """The crossing graph of sorted `Edge`s as bitmask rows: bit q of row p
    is set iff edges p and q interleave."""
    edges = list(map(tuple, edges))  # plain tuples unpack on CPython's fast path
    adj = [0] * len(edges)
    for p, (a, b) in enumerate(edges):
        for q in range(p + 1, len(edges)):
            c, d = edges[q]
            if c >= b:
                break
            if a < c and b < d:
                adj[p] |= 1 << q
                adj[q] |= 1 << p
    return adj


def window_translations(k: int) -> range:
    """Translation indices of the lift window of `lift_universe`."""
    return range(-k, k + 1)


class CrossingUniverse:
    """Edges as bits in edge order, in groups that are chosen together.

    Bit p is `edges[p]` (sorted) and `adj[p]` marks the edges crossing it.
    Group i owns the bits `members[i]`, and `through_rep[i]` marks the edges
    crossing its representative, the first edge listed for it.  Each of
    `symmetries` (rotations of the surface) maps group i to group
    `sigma[i]` with as many members, and a result of `maximal_sets` to a
    result; with the identity they form a group.
    """

    own_blocks = False  # do a group's own members block it? (`maximal_sets`)

    def __init__(self, k: int, groups, symmetries):
        self.k, self.symmetries = k, list(symmetries)
        self.edges = sorted(e for group in groups for e in group)
        position = {e: p for p, e in enumerate(self.edges)}
        self.adj = crossing_rows(self.edges)
        self.members = [sum(1 << position[e] for e in group) for group in groups]
        self.through_rep = [self.adj[position[group[0]]] for group in groups]

    def lift(self, indices) -> int:
        """The mask of every member of the given groups."""
        mask = 0
        for i in indices:
            mask |= self.members[i]
        return mask

    def blocked(self, i: int, mask: int) -> bool:
        """Does group i with the edges `mask` make a (k+1)-crossing through its rep?"""
        return has_clique(self.adj, self.k,
                          within=self.through_rep[i] & (mask | self.members[i]))

    def crossing_free(self, indices) -> bool:
        """Is the union of the given groups free of (k+1)-crossings?"""
        mask = self.lift(indices)
        return not any(self.blocked(i, mask) for i in indices)

    def maximal_sets(self, size: int | None = None) -> list[int]:
        """Every maximal (k+1)-crossing-free union of groups, as a mask of
        group indices, in no promised order (`sorted_unions` orders them).

        A depth-first search decides the groups in index order, including
        and then excluding each, and keeps the chosen members and
        `possible`: those plus every undecided group they do not block.
        - Forward checking (Haralick-Elliott, "Increasing tree search
          efficiency for constraint satisfaction problems", AIJ 1980) is the
          one blocked test: `possible` starts from the groups their own members
          do not block, and including group g tests each later group j whose
          representative a member of g crosses.  The test looks only for new
          cliques: j was in `possible`, so the chosen and j's own members held
          no k-clique crossing j's representative, and groups are disjoint, so
          a k-clique there now holds a member m of g crossing it, and its
          other k-1 edges cross m as well.  So j is blocked iff for some such
          m, lowest first, the chosen and own members crossing both hold a
          (k-1)-clique: at k=1 the empty one, so any such m blocks j.  The
          chosen union is crossing-free and, like each group, invariant under
          the symmetry forming the groups (rotation on the polygon,
          translation on the cover), so a new crossing can be moved onto a
          representative: a group in `possible` is included with no test.
          Chosen members only grow down a branch, so a group outside
          `possible` stays blocked and is only excluded, and every cut
          reading `possible` is sound, with or without `size`.
        - Excluding a group is cut when the still possible members cannot
          block it in the leaf test, since no leaf below is then maximal.
        - At a leaf every absent group must be blocked by a k-clique of
          chosen edges crossing its representative.  With `own_blocks` (the
          cylinder) the group's own members count too, so a class is addable
          iff the lift stays crossing-free with all its translates.  That is
          forward checking's test, so a group excluded outside `possible` is
          known blocked, and only the groups excluded while still in
          `possible` (`unblocked`) are tested.  Without (the polygon)
          maximality stays edge by edge: a rotation-invariant set is kept
          only when no single absent edge can be added, which keeps the lab's
          k=3 bijection check meaningful against the class-maximal cylinder
          side.  Forward checking counts an orbit's own edges, so an orbit it
          found blocked may still take one edge, and every absent group is
          tested.
        - `size`, where given, is the number of member bits of every maximal
          set, so it may only be passed where the complex is pure: for the
          polygon at every k (Nakamigawa; Dress-Koolen-Moulton), and for
          the cylinder at k=2 (this paper).  Including and excluding are
          then also cut once fewer than `size` members stay possible (the
          seed included, so a seed too small searches nothing), and a
          leaf is kept without the test above: it is crossing-free with
          `size` members, and every crossing-free set extends to a maximal
          one of that size.
        - The lex-leader cut (Crawford-Ginsberg-Luks-Roy, "Symmetry-breaking
          predicates for search problems", KR 1996) keeps one result per
          orbit of the `symmetries`: an inclusion is cut when, for some
          symmetry, the lowest group where picked and its image differ is
          the image's.  That group is decided: had they agreed on the
          decided groups, the image, as large as picked, would equal it.
          Every result below keeps picked on the decided groups and only
          adds to the image, so it has an image earlier in search order.  A
          rotation permutes the groups and preserves crossings (on the
          cover, those of the whole lift), member counts and both leaf
          tests, so the image of a result is a result, and the first of
          each orbit in search order has no earlier image and is never cut.
          The cut uses no purity theorem.
          Each kept result is then expanded into its orbit (`_orbits`), so
          the masks are those the search without the cut finds.
        Every `has_clique` call goes through this module's global.
        """
        k, adj, rows, members = self.k, self.adj, self.through_rep, self.members
        own_blocks = self.own_blocks
        own = members if own_blocks else [0] * len(members)
        count, floor = len(members), size or 0
        # hits[i]: for each later group j whose representative a member of i
        # crosses, j's members, the edges crossing its representative, and
        # the `adj` rows of the members of i that cross it.
        hits = [[(members[j], rows[j], [adj[m] for m in bits(members[i] & rows[j])])
                 for j in range(i + 1, count) if rows[j] & members[i]]
                for i in range(count)]
        # The lex-leader cut: field s of a packed int, `width` bits with a
        # guard bit on top, holds the image of picked under symmetry s.
        width = count + 1
        copies = sum(1 << s * width for s in range(len(self.symmetries)))
        image_of = [sum(1 << s * width + sigma[i] for s, sigma in enumerate(self.symmetries))
                    for i in range(count)]
        guard = copies << count
        found: list[int] = []

        # `unblocked`: the groups excluded while still in `possible`.
        def rec(i: int, picked: int, image: int, lift: int, possible: int, unblocked: int):
            if i == count:
                if size is None:
                    for j in (bits(unblocked) if own_blocks else range(count)):
                        if not lift & members[j] and not has_clique(
                                adj, k, within=rows[j] & (lift | own[j])):
                            return
                found.append(picked)
                return
            group = members[i]
            if possible & group:
                chosen, grown_image = picked | 1 << i, image | image_of[i]
                # In each field, the lowest bit where chosen and its image
                # differ, or the guard where they agree.
                differ = chosen * copies ^ grown_image | guard
                if not differ & ~(differ - copies) & grown_image:
                    grown, alive = lift | group, possible
                    for later, row, crossing in hits[i]:
                        if alive & later:
                            within = row & (grown | later)
                            for through in crossing:
                                if has_clique(adj, k - 1, within=within & through):
                                    alive &= ~later
                                    break
                    if alive.bit_count() >= floor:
                        rec(i + 1, chosen, grown_image, grown, alive, unblocked)
                possible &= ~group
                if possible.bit_count() < floor or not has_clique(
                        adj, k, within=rows[i] & (possible | own[i])):
                    return
                unblocked |= 1 << i
            rec(i + 1, picked, image, lift, possible, unblocked)

        seed = self.lift(i for i in range(count) if not self.blocked(i, 0))
        if seed.bit_count() >= floor:
            rec(0, 0, 0, 0, seed, 0)
        return _orbits(found, image_of, copies)


def _orbits(leaders: list[int], image_of: list[int], copies: int) -> list[int]:
    """Every image of the leaders under the symmetries, each once, in no
    order; the packed images (`maximal_sets`) are read by `_union_of`."""
    count, union = len(image_of), _union_of(image_of)
    field, shifts = (1 << count) - 1, range(0, copies.bit_length(), count + 1)
    found = set(leaders)
    for picked in leaders:
        packed = union(picked)
        found.update(packed >> s & field for s in shifts)
    return list(found)


class LiftUniverse(CrossingUniverse):
    """The window translates of the k-relevant classes of C_n: class
    `classes[i]` (sorted, `index` inverts it) owns the bits `translates[i]`."""

    own_blocks = True

    def __init__(self, n: int, k: int):
        self.n = n
        self.classes = [EdgeClass(Edge(a, b), n)
                        for a in range(n) for b in range(a + k + 1, a + k * n + 1)]
        self.index = {c: i for i, c in enumerate(self.classes)}
        window = sorted(window_translations(k), key=abs)  # the rep first
        # Rotation of C_n by d: ~[a, b] -> ~[a+d, b+d].
        rotations = [[self.index[edge_class_of(c.rep.shifted(d), n)] for c in self.classes]
                     for d in range(1, n)]
        super().__init__(k, [[c.translate(t) for t in window] for c in self.classes], rotations)
        self.translates = self.members

    def indices(self, classes) -> list[int]:
        """Indices of the classes longer than k; shorter ones never cross."""
        _check_classes(classes, self.n, self.k)
        return [self.index[c] for c in classes if c.length > self.k]


def _check_classes(classes, n: int, k: int) -> None:
    """The one check that a class list is well formed on C_n at order k:
    StructureViolation on a repeated class or a class of another period,
    EdgeTooLong on a class longer than kn."""
    if len(set(classes)) != len(classes):
        raise StructureViolation("duplicate classes")
    for c in classes:
        if c.length > k * n:
            raise EdgeTooLong(f"class {c} has length {c.length} > k*n = {k * n}")
        if c.n != n:
            raise StructureViolation(f"class {c} has period {c.n}, surface has {n}")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def lift_universe(n: int, k: int) -> LiftUniverse:
    """The crossing universe of C_n at order k, built once per (n, k) and
    shared by every caller, so read-only; the last `_CACHE_SIZE` are kept.

    Why a finite window decides crossings on the infinite lift: an edge
    crossing a cover edge [a, b] of length at most kn starts in (a - kn, b).
    Translate a (k+1)-crossing of a periodic edge set so that one member is
    a class representative, starting in [0, n); every member then starts in
    (-kn, (k+1)n), so it is a translate t in [-k, k] of its representative:
    exactly `window_translations`.  So a set of classes lifts crossing-free
    iff no representative is `blocked`.  If the set is crossing-free, a crossing
    made by adding one class uses a translate of it, which may be taken to
    be its representative, so `blocked` alone decides addability.
    """
    return LiftUniverse(n, k)


def is_periodic_crossing_free(classes, k: int, n: int) -> bool:
    """Is the lift of the edge classes free of (k+1)-crossings?"""
    universe = lift_universe(n, k)
    return universe.crossing_free(universe.indices(classes))
