"""Flagness as an edge test, missing-face listing, and belt (empty square) enumeration."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAnEdge, NotFlag
from .sphere import SimplicialSphere


@dataclass(frozen=True)
class Belt:
    """Four vertices whose induced subcomplex is the boundary of a square.

    ``cycle`` lists the vertices in induced 4-cycle order, normalized to
    start at the smallest vertex and continue toward its smaller
    cycle-neighbor.  Consecutive cycle entries are edges of the sphere;
    the two diagonals are non-edges.
    """

    cycle: tuple[int, int, int, int]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.cycle)

    @property
    def sides(self) -> tuple[tuple[int, int], ...]:
        a, b, c, d = self.cycle
        return tuple(
            (u, v) if u < v else (v, u) for u, v in ((a, b), (b, c), (c, d), (d, a))
        )


def missing_triangles(K: SimplicialSphere) -> tuple[tuple[int, int, int], ...]:
    """All 3-cliques of the edge graph that are not faces, sorted.

    A listing only: :func:`is_flag` reads flagness off the edges directly.
    """
    adj = K.adjacency
    out = []
    for a, b in K.edges:
        for c in adj[a] & adj[b]:
            if c > b and not K.has_face((a, b, c)):
                out.append((a, b, c))
    return tuple(sorted(out))


def is_flag(K: SimplicialSphere) -> bool:
    """True iff every clique of the 1-skeleton spans a simplex of ``K``.

    On a triangulated 2-sphere: iff every degree is at least 4 and the ends
    of every edge have exactly two common neighbours, its apexes.  A
    non-face 3-clique uvw makes w a third common neighbour of uv, and
    conversely.  A 4-clique would then have its four triangles as faces,
    which close up into the whole sphere: a tetrahedron, of degree 3.  The
    degree clause comes first, as the cheap exit for most non-flag spheres.
    """
    adj = K.adjacency
    return min(map(len, adj)) > 3 and all(
        len(nu & adj[v]) == 2 for u, nu in enumerate(adj) for v in nu if u < v)


def _require_flag(K: SimplicialSphere) -> None:
    """Raise NotFlag unless ``K`` is flag."""
    if not is_flag(K):
        raise NotFlag(f"sphere on {K.n} vertices is not flag")


def belts(K: SimplicialSphere) -> tuple[Belt, ...]:
    """All belts of ``K``, each reported once, sorted by cycle.

    Each belt is listed from its least vertex a: its cycle neighbors are
    non-adjacent neighbors b < d of a, both above a, and its fourth
    vertex is a common neighbor c of b and d, above a and not adjacent to
    it.  a-b-c-d is then the normalized cycle.
    """
    adj = K.adjacency
    found = []
    for a in range(K.n):
        na = adj[a]
        up = sorted(b for b in na if b > a)
        for i, b in enumerate(up):
            nb = adj[b]
            for d in up[i + 1 :]:
                if d not in nb:
                    found += [(a, b, c, d) for c in nb & adj[d] if c > a and c not in na]
    return tuple(map(Belt, sorted(found)))


def _belt_side(adj, u: int, v: int) -> tuple[int, int] | None:
    """A far pair (p, q) closing a belt u-v-q-p, p adjacent to u, or None.

    With a the end of lower degree and b the other, a neighbor x of a not
    adjacent to b and a neighbor y of b not adjacent to a close a belt
    a-b-y-x iff x and y are adjacent.  Only a's side is listed; b's
    neighbors, a hub in the greedy reduction, are only probed.
    """
    a, b = (u, v) if len(adj[u]) <= len(adj[v]) else (v, u)
    na, nb = adj[a], adj[b]
    for x in na:
        if x != b and x not in nb:
            for y in adj[x]:
                if y in nb and y != a and y not in na:
                    return (x, y) if a == u else (y, x)
    return None


def _norm_edge(K: SimplicialSphere, e) -> tuple[int, int]:
    """``e`` as a sorted vertex pair; raises NotAnEdge unless it is an edge."""
    try:
        u, v = e
    except (TypeError, ValueError):
        raise NotAnEdge(f"{e!r} is not a vertex pair") from None
    if type(u) is not int or type(v) is not int or not K.has_edge(u, v):
        raise NotAnEdge(f"{{{u!r}, {v!r}}} is not an edge")
    return (u, v) if u < v else (v, u)


def belt_covered_edges(K: SimplicialSphere) -> frozenset[tuple[int, int]]:
    """Edges of ``K`` that are a side of at least one belt."""
    adj = K.adjacency
    return frozenset(e for e in K.edges if _belt_side(adj, *e) is not None)


def edge_in_belt(K: SimplicialSphere, e) -> bool:
    """True iff some belt contains both endpoints of edge ``e``.

    Both endpoints of an edge can only sit on a belt as one of its sides
    (diagonals are non-edges), so this equals side membership, which is
    tested locally from the two endpoints' neighborhoods without
    enumerating belts.
    """
    return _belt_side(K.adjacency, *_norm_edge(K, e)) is not None
