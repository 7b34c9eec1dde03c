"""Brute-force reference implementations.

Everything here favors the most literal possible reading of each
definition over speed, so the fast paths elsewhere in the package can be
validated against it.  The only shared machinery is the core sphere type
with its fully validating constructor, that constructor's link walk
``_link_walk``, and the Belt value container.
Vertex splits are written out here as face lists and every split made
is revalidated from scratch; belt search, flagness, and isomorphism are
reimplemented from their definitions.

``brute_belts`` and ``brute_is_flag`` scan every vertex 4-set.  The
certificate verifier uses local readings of the same definitions
instead: ``clique_is_flag`` lists the cliques of the start's edge graph,
``clique_is_flag_at`` only those through the merged vertex of a step,
both by one lister, and ``edge_belts`` applies the 4-set belt test only
to the 4-sets through one edge.  None uses the degree or two-apex
theorems of the fast path, and the brute scans stay as their test
oracle.  The verifier's other
shared machinery is ``ReplayState``, a sphere contracted in place in its
start's labels, which checks the sphere conditions at the vertices that
each contraction touches, each link by ``_link_walk`` on its int edge keys.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, permutations

from .errors import BudgetTooLarge, BudgetTooSmall, NotAnEdge, TooLarge
from .flags import Belt
from .sphere import Face, SimplicialSphere, _link_walk, from_faces, tetrahedron

_ISO_LIMIT = 9
_ENUMERATION_LIMIT = 11


def _belt_on(adj, quad) -> Belt | None:
    """The belt on the sorted 4-set ``quad``, or None: the literal 4-set test.

    Each vertex has exactly two neighbors in ``quad``, so it induces
    exactly four edges, a 4-cycle.  No face lies among its four triples
    then, and none is looked for: a 2-regular graph on 4 vertices is a
    chordless 4-cycle, so no three of them are pairwise adjacent.
    """
    nbr = {}
    for p in quad:
        ns = nbr[p] = [q for q in quad if q in adj[p]]
        if len(ns) != 2:
            return None
    # quad[0] is the smallest vertex; walk toward its smaller neighbor
    a = quad[0]
    b, d = nbr[a]
    c = nbr[b][1] if nbr[b][0] == a else nbr[b][0]
    return Belt((a, b, c, d))


def brute_belts(K: SimplicialSphere) -> set[Belt]:
    """Every 4-subset inducing exactly a chord-free, face-free 4-cycle."""
    adj = K.adjacency
    found = (_belt_on(adj, quad) for quad in combinations(range(K.n), 4))
    return {belt for belt in found if belt is not None}


def brute_is_flag(K: SimplicialSphere) -> bool:
    """Literal clique test: every clique of the 1-skeleton spans a simplex.

    A 4-clique can never span (there are no 3-simplices), and a 3-clique
    spans iff it is a face; smaller cliques always span.
    """
    for quad in combinations(range(K.n), 4):
        if all(K.has_edge(*p) for p in combinations(quad, 2)):
            return False
    for tri in combinations(range(K.n), 3):
        if (
            K.has_edge(tri[0], tri[1])
            and K.has_edge(tri[0], tri[2])
            and K.has_edge(tri[1], tri[2])
            and not K.has_face(tri)
        ):
            return False
    return True


def edge_belts(K: SimplicialSphere, u: int, v: int) -> set[Belt]:
    """The belts containing both ends of the edge {u, v}, found locally.

    Applies the literal 4-set test of :func:`brute_belts` to the 4-sets
    {u, v, x, y} with x and y drawn from N(u) | N(v) only.  That is every
    candidate: {u, v} is an edge, so in an induced 4-cycle it is a side,
    and the other two cycle vertices are each adjacent to u or to v.
    They form the opposite side, so a pair x, y that is not an edge is
    skipped before the test.
    """
    if not K.has_edge(u, v):
        raise NotAnEdge(f"{{{u!r}, {v!r}}} is not an edge")
    adj = K.adjacency
    pairs = combinations(sorted((adj[u] | adj[v]) - {u, v}), 2)
    found = (_belt_on(adj, sorted((u, v, x, y))) for x, y in pairs if y in adj[x])
    return {belt for belt in found if belt is not None}


def _cliques_ok(K, adj, u: int, above: int) -> bool:
    """Whether every 3-clique {u, b, c} with ``above`` < b < c is a face of
    ``K`` and lies in no 4-clique, which cannot span a simplex.

    Lists each such clique once from a neighbor b of u and a common
    neighbor c; any vertex adjacent to all three closes a 4-clique.
    """
    nu = adj[u]
    for b in nu:
        if b > above:
            common = nu & adj[b]
            for c in common:
                if c > b and (not K.has_face((u, b, c)) or common & adj[c]):
                    return False
    return True


def clique_is_flag(K: SimplicialSphere) -> bool:
    """Clique-listing flag test: every clique of the 1-skeleton spans a simplex.

    Lists each 3-clique once as a < b < c, from its smallest vertex a, and
    fails if it is not a face or if some d is adjacent to all three (a
    4-clique).  Every 4-clique is met this way at its three smallest
    vertices.
    """
    adj = K.adjacency
    return all(_cliques_ok(K, adj, a, a) for a in range(K.n))


def clique_is_flag_at(K, u: int) -> bool:
    """:func:`clique_is_flag` for the cliques through ``u`` only.

    After a contraction onto ``u`` of a flag sphere, every other clique
    was a clique before, so this decides flagness.
    """
    return _cliques_ok(K, K.adjacency, u, -1)


def _edge(n: int, a: int, b: int) -> int:
    return a * n + b if a < b else b * n + a


class ReplayState:
    """A sphere contracted in place, edge by edge, in its start's labels.

    Holds each vertex's neighbor set (``adjacency``, empty once merged
    away), the far vertices of the faces at each edge a < b (``apex``,
    keyed ``a * n + b`` with the start's ``n``, as :func:`_link_walk`
    reads it), the face count and ``alive``, the surviving start labels in
    order: current label i is ``alive[i]``.  ``n``, ``adjacency``,
    ``has_edge`` and ``has_face`` read like a sphere's, in start labels.
    """

    def __init__(self, K: SimplicialSphere):
        n = self.n = K.n
        self.adjacency = [set(nbrs) for nbrs in K.adjacency]
        self.apex: dict[int, list[int]] = {}
        for a, b, c in K.faces:
            for e, x in ((a * n + b, c), (a * n + c, b), (b * n + c, a)):
                self.apex.setdefault(e, []).append(x)
        self.n_faces = len(K.faces)
        self.alive = list(range(n))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def has_face(self, face) -> bool:
        a, b, c = sorted(face)
        return c in self.apex.get(a * self.n + b, ())

    def contract(self, u: int, v: int) -> bool:
        """Contract the edge {u, v} onto ``u``; whether the result is a sphere.

        v's faces are dropped, and those without ``u`` are added back with
        ``v`` renamed ``u``.  Only v's old neighbors get new faces, so only
        their edges and links are checked: no face made twice, every edge in
        exactly two faces (a common neighbor of u and v other than the edge's
        apexes leaves an edge in four), every link one cycle through all
        neighbors; then Euler's formula from the counts.
        """
        n, adj, apex = self.n, self.adjacency, self.apex
        touched = adj[v]
        at_v = [(x, y) for x in touched for y in apex[_edge(n, v, x)] if x < y]
        for x in touched:
            del apex[_edge(n, v, x)]
            adj[x].discard(v)
        adj[v] = set()
        self.n_faces -= len(at_v)
        made_twice = False
        for x, y in at_v:
            xy = apex[x * n + y]
            xy.remove(v)
            if u != x and u != y:
                made_twice |= u in xy
                self.n_faces += 1
                for a, b, c in ((u, x, y), (u, y, x), (x, y, u)):
                    e = _edge(n, a, b)
                    if e not in apex:
                        apex[e] = []
                        adj[a].add(b)
                        adj[b].add(a)
                    apex[e].append(c)
        alive = self.alive
        del alive[bisect_left(alive, v)]
        return (
            not made_twice
            and all(len(apex[_edge(n, x, y)]) == 2 for x in touched for y in adj[x])
            and all(self._one_link(x) for x in touched)
            and len(alive) - len(apex) + self.n_faces == 2
        )

    def _one_link(self, x: int) -> bool:
        """Whether the faces at ``x`` close up, face to face, into one cycle
        through all of x's neighbors; every edge at ``x`` lies in two faces.

        A guard that never decides :meth:`contract` on any sphere: the tests
        before it do.  A common neighbour w of u and v other than uv's
        apexes leaves uw in four faces, which the edge test finds.
        Otherwise, on the tetrahedron, the face test finds the face left
        twice; on any other sphere the link condition holds, so the result
        is a sphere (Dey et al. 1999), and its links are cycles.
        """
        n, apex, nbrs = self.n, self.apex, self.adjacency[x]
        y = min(nbrs)
        return len(_link_walk(apex, n, x, apex[_edge(n, x, y)][0], y)) == len(nbrs)

    def faces(self) -> tuple[Face, ...]:
        """The faces in current labels, sorted, as :attr:`SimplicialSphere.faces`."""
        n = self.n
        rank = {x: i for i, x in enumerate(self.alive)}
        return tuple(sorted(
            (rank[a], rank[b], rank[c])
            for e, far in self.apex.items()
            for a, b in (divmod(e, n),)
            for c in far
            if c > b
        ))


def _bijections(A: SimplicialSphere, B: SimplicialSphere):
    """Every degree-respecting vertex bijection A -> B mapping faces onto faces.

    Each is yielded as a list, ``mapping[x]`` the image of ``x``, that is
    reused for the next one.  Vertices are grouped by degree and every
    permutation within each group is tried, so A and B must have the same
    vertex and face counts.
    """
    if A.n > _ISO_LIMIT:
        raise TooLarge(f"bijection search capped at {_ISO_LIMIT} vertices, got {A.n}")
    deg_a = {}
    deg_b = {}
    for v in range(A.n):
        deg_a.setdefault(A.degree(v), []).append(v)
    for v in range(B.n):
        deg_b.setdefault(B.degree(v), []).append(v)
    if sorted(deg_a) != sorted(deg_b):
        return
    if any(len(deg_a[k]) != len(deg_b[k]) for k in deg_a):
        return
    classes = sorted(deg_a)
    target = set(B.faces)
    mapping = [-1] * A.n

    def assign(idx: int):
        if idx == len(classes):
            if all(
                tuple(sorted((mapping[x], mapping[y], mapping[z]))) in target
                for x, y, z in A.faces
            ):
                yield mapping
            return
        k = classes[idx]
        for perm in permutations(deg_b[k]):
            for src, dst in zip(deg_a[k], perm):
                mapping[src] = dst
            yield from assign(idx + 1)

    yield from assign(0)


def brute_isomorphic(A: SimplicialSphere, B: SimplicialSphere) -> bool:
    """Search all degree-respecting vertex bijections for a face match."""
    if A.n != B.n or A.n_faces != B.n_faces:
        return False
    return next(_bijections(A, B), None) is not None


def brute_automorphism_count(K: SimplicialSphere) -> int:
    """Count the degree-respecting vertex permutations that fix the face set.

    Every vertex bijection that keeps each vertex's degree is tried, as in
    :func:`brute_isomorphic`, and counted when it maps every face of ``K``
    onto a face.  Mirror symmetries count too.
    """
    return sum(1 for _ in _bijections(K, K))


def _all_splits(K: SimplicialSphere) -> list[SimplicialSphere]:
    """Every vertex split of K, adjacent link pairs included, but the sure repeats.

    Splitting ``w`` at link positions i < j keeps the link arc from i to j
    on ``w``, gives the arc from j round to i to the new vertex ``K.n``,
    and adds the two faces of the new edge; the face list is validated
    from scratch.  A split is skipped when an arc names a partner p < w:
    an arc (x, y) stacks a face, also a split at x or y; an arc (x, y, z)
    leaves a degree-4 vertex, also a split at y with arc (x, w, z).
    Partners descend, so each skip has an earlier isomorphic split made.
    """
    out = []
    for w in range(K.n):
        cyc = K.link_cycle(w)
        rest = [f for f in K.faces if w not in f]
        for i in range(len(cyc)):
            for j in range(i + 1, len(cyc)):
                kept = cyc[i : j + 1]
                moved = cyc[j:] + cyc[: i + 1]
                if any(p < w for arc in (kept, moved) if len(arc) <= 3
                       for p in (arc if len(arc) == 2 else arc[1:2])):
                    continue
                faces = rest + [(w, cyc[i], K.n), (w, cyc[j], K.n)]
                faces += [(w, x, y) for x, y in zip(kept, kept[1:])]
                faces += [(K.n, x, y) for x, y in zip(moved, moved[1:])]
                out.append(from_faces(K.n + 1, faces))
    return out


def _extends(rot_a, rot_b, u: int, v: int, x: int, y: int) -> bool:
    """Whether u -> x, v -> y extends, walking round each mapped vertex once,
    to an injective map carrying every rotation of ``rot_a`` onto ``rot_b``."""
    image = {u: x, v: y}
    todo = [(u, v), (v, u)]
    while todo:
        a, p = todo.pop()
        ra, rb = rot_a[a], rot_b[image[a]]
        if len(ra) != len(rb):
            return False
        q = image[p]
        for _ in range(len(ra) - 1):
            p, q = ra[p], rb[q]
            if p in image:
                if image[p] != q:
                    return False
            else:
                image[p] = q
                todo.append((p, a))
    return len(set(image.values())) == len(image)


def _rotation_isomorphic(ways_a, rot_b) -> bool:
    """Whether A, rotations ``ways_a`` (forward, reversed), is isomorphic to
    B, forward rotations ``rot_b``, of the same vertex count.

    An isomorphism of connected oriented spheres carries A's rotations onto
    B's or their reverse, so it extends some edge x -> y of B with the
    degrees of A's edge u -> v.
    """
    rot_a = ways_a[0]
    u = min(range(len(rot_a)), key=lambda w: len(rot_a[w]))
    v = next(iter(rot_a[u]))
    du, dv = len(rot_a[u]), len(rot_a[v])
    return any(
        _extends(rot, rot_b, u, v, x, y)
        for x in range(len(rot_b))
        if len(rot_b[x]) == du
        for y in rot_b[x]
        if len(rot_b[y]) == dv
        for rot in ways_a
    )


def enumerate_all_spheres(max_n: int, jobs: int = 1) -> list[SimplicialSphere]:
    """One representative per isomorphism class of spheres with 4 <= n <= max_n.

    Grown level by level from the tetrahedron by unrestricted vertex
    splits; every triangulated 2-sphere on n >= 5 vertices has an edge
    whose contraction is again a sphere, so the reversed splits reach
    every class.  Candidates are bucketed by the sorted multiset of their
    vertices' sorted neighbour degrees and compared within a bucket by
    :func:`_rotation_isomorphic`: each representative keeps its forward
    and reversed rotations, a candidate only its forward ones.  A split
    that :func:`_all_splits` skips repeats an earlier one of its parent, so
    the first candidate of each class is made and the representatives are
    those of all splits.  ``jobs`` is accepted for compatibility and has
    no effect.
    """
    if type(max_n) is not int or max_n < 4:
        raise BudgetTooSmall(f"need max_n >= 4, got {max_n!r}")
    if max_n > _ENUMERATION_LIMIT:
        raise BudgetTooLarge(f"enumeration capped at {_ENUMERATION_LIMIT}, got {max_n}")
    levels: list[list[SimplicialSphere]] = [[tetrahedron()]]
    for _ in range(5, max_n + 1):
        fresh: list[SimplicialSphere] = []
        buckets: dict[tuple, list] = {}
        for K in levels[-1]:
            for cand in _all_splits(K):
                rot = [cand.rotation(v) for v in range(cand.n)]
                deg = [len(r) for r in rot]
                key = tuple(sorted(tuple(sorted(deg[w] for w in r)) for r in rot))
                reps = buckets.setdefault(key, [])
                if any(_rotation_isomorphic(ways, rot) for ways in reps):
                    continue
                reps.append((rot, [cand.rotation(v, True) for v in range(cand.n)]))
                fresh.append(cand)
        levels.append(fresh)
    return [K for level in levels for K in level]
