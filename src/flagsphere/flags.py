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

    Enumeration is over diagonals.  A diagonal {a,c} is a pair at
    distance two, so for each a only the neighbors of a's neighbors that
    exceed a and are not adjacent to it are visited as c; every
    non-adjacent pair {b,d} of common neighbors of a and c then spans the
    belt {a,b,c,d}.  Each belt has two diagonals and is reported from the
    one holding its smallest vertex, so only b, d > a are paired, and
    a-b-c-d with b < d is already its normalized cycle.
    """
    adj = K.adjacency
    found = []
    for a in range(K.n):
        near = adj[a]
        far = {c for b in near for c in adj[b] if c > a} - near
        for c in far:
            common = sorted(x for x in near & adj[c] if x > a)
            for i, b in enumerate(common):
                for d in common[i + 1 :]:
                    if d not in adj[b]:
                        found.append(Belt((a, b, c, d)))
    return tuple(sorted(found, key=lambda belt: belt.cycle))


def _belt_side(adj, u: int, v: int) -> bool:
    """True iff the edge {u,v} is a side of a belt a-b-y-x.

    With a the end of lower degree and b the other, x is a neighbor of a
    not adjacent to b (so {b,x} is a diagonal) and y a neighbor of b not
    adjacent to a (so {a,y} is the other); the belt exists iff some such
    x and y are adjacent.  The condition is symmetric in u and v.  The
    cost is one membership test per neighbor y of each such x, so it is
    bounded by the degrees of a and of a's neighbors; no set is built and
    b's neighborhood, which the greedy reduction grows into a hub, is
    only probed.
    """
    a, b = (u, v) if len(adj[u]) <= len(adj[v]) else (v, u)
    na, nb = adj[a], adj[b]
    for x in na:
        if x != b and x not in nb:
            for y in adj[x]:
                if y in nb and y != a and y not in na:
                    return True
    return False


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
    return frozenset(e for e in K.edges if _belt_side(adj, *e))


def edge_in_belt(K: SimplicialSphere, e) -> bool:
    """True iff some belt contains both endpoints of edge ``e``.

    Both endpoints of an edge can only sit on a belt as one of its sides
    (diagonals are non-edges), so this equals side membership, which is
    tested locally from the two endpoints' neighborhoods without
    enumerating belts.
    """
    return _belt_side(K.adjacency, *_norm_edge(K, e))
