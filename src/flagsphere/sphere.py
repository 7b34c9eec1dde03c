"""Validated triangulations of the 2-sphere and their .tri text format.

A sphere is stored purely combinatorially: a vertex count ``n``, its
triangles as sorted vertex triples and one rotation system, which maps
each neighbor of a vertex to the next one around it in a single
orientation shared by all vertices.  Edges, neighbor sets, link cycles
and edge and face membership are read off the rotation.  Validation
accepts exactly the complexes that triangulate S2: every edge in two
triangles, every vertex link a single cycle, Euler characteristic 2,
face-connected.  One walk round each vertex both checks its link and
writes its rotation.  A sphere built from a rotation (a split or a
contraction) reads its faces off it on first access.  Instances never
change once built and are safe to share between threads; every
operation in this package treats them as values.
"""

from __future__ import annotations

from collections.abc import KeysView, Mapping
from types import MappingProxyType

from .errors import BadVertex, FormatError, NotASphere

Face = tuple[int, int, int]


class SimplicialSphere:
    """A triangulation of the 2-sphere on vertices ``0..n-1``.

    Do not call the constructor directly; build instances with
    :func:`from_faces` (or the fixed models :func:`tetrahedron` and
    :func:`octahedron`), which run the full validation.  Edge contraction
    and vertex splitting build their results from the input's rotation
    by construction, with no validation: they are spheres whenever the
    input is (given the link condition, for contraction).

    An instance stores its faces and one rotation (see :meth:`rotation`),
    nothing else; those built from a rotation compute their faces once,
    on first access.  Edges, neighbor sets, link cycles, reversed
    rotations and edge and face membership are read off the rotation on
    access.

    Equality and hashing compare the exact labeled face set; use
    :func:`flagsphere.canonical.isomorphic` for equality up to relabeling.
    """

    __slots__ = ("n", "faces", "_succ")

    def __init__(self, n: int, faces: tuple[Face, ...] | None, succ, _token: object = None):
        if _token is not _INTERNAL:
            raise TypeError("use from_faces() to construct a SimplicialSphere")
        self.n = n
        if faces is not None:  # None: a _RotationSphere reads them off succ
            self.faces = faces
        self._succ: tuple[dict[int, int], ...] = tuple(succ)

    # -- basic accessors ---------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted pairs, in lexicographic order."""
        return tuple(
            (x, y) for x, rot in enumerate(self._succ) for y in sorted(rot) if y > x
        )

    @property
    def n_edges(self) -> int:
        return sum(map(len, self._succ)) // 2

    @property
    def n_faces(self) -> int:
        """``2n - 4``, by Euler's formula and 3F = 2E."""
        return 2 * self.n - 4

    def has_edge(self, u: int, v: int) -> bool:
        """True iff {u, v} is an edge; False for any int out of range.

        Raises BadVertex for a vertex that is not an ``int`` (``True`` and
        ``1.0`` would otherwise match the edges of vertex 1).
        """
        if type(u) is not int or type(v) is not int:
            raise BadVertex(f"vertex {(v if type(u) is int else u)!r} is not an int")
        return 0 <= u < self.n and v in self._succ[u]

    def has_face(self, face) -> bool:
        """True iff ``face`` lists the vertices of a face, in any order.

        Read off the rotation: a, b, c span a face iff c follows b, or b
        follows c, around a.  Raises BadVertex for a vertex that is not an
        ``int``, as :meth:`has_edge` does.
        """
        face = tuple(face)
        for v in face:
            if type(v) is not int:
                raise BadVertex(f"vertex {v!r} is not an int")
        if len(face) != 3 or not 0 <= face[0] < self.n:
            return False
        a, b, c = face
        rot = self._succ[a]
        return rot.get(b) == c or rot.get(c) == b

    @property
    def adjacency(self) -> tuple[KeysView[int], ...]:
        """Neighbor sets of all vertices, indexed by vertex: ``adjacency[v]``.

        The unchecked bulk form of :meth:`neighbors`, for loops that visit
        many vertices.  Each entry is the read-only key view of a rotation
        map, set-like: ``in``, ``len``, ``&``, ``|`` and ``-`` work.
        """
        return tuple(rot.keys() for rot in self._succ)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self._succ[v])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._succ[v])

    def link_cycle(self, v: int) -> tuple[int, ...]:
        """Neighbors of ``v`` in cyclic order around ``v``.

        The representative is normalized: it starts at the smallest
        neighbor and proceeds toward the smaller of that neighbor's two
        cycle-neighbors.  Callers must treat the result as a cycle defined
        up to rotation and reflection.
        """
        self._check_vertex(v)
        succ = self._succ[v]
        start = min(succ)
        cycle = [start]
        cur = succ[start]
        while cur != start:
            cycle.append(cur)
            cur = succ[cur]
        if cycle[1] > cycle[-1]:
            cycle[1:] = cycle[:0:-1]
        return tuple(cycle)

    def rotation(self, v: int, reverse: bool = False) -> Mapping[int, int]:
        """Successor map of the (arbitrarily oriented) rotation around ``v``.

        All vertices share one orientation.  The forward map is a read-only
        view of the stored one.  With ``reverse=True`` the map runs the
        other way round; it is built fresh on each call by inverting the
        stored successor map.
        """
        self._check_vertex(v)
        succ = self._succ[v]
        return {w: u for u, w in succ.items()} if reverse else MappingProxyType(succ)

    def r_vector(self) -> dict[int, int]:
        """Count vertices by degree: ``{k: number of degree-k vertices}``.

        Equivalently the number of k-gon facets of the dual simple polytope.
        """
        counts: dict[int, int] = {}
        for rot in self._succ:
            counts[len(rot)] = counts.get(len(rot), 0) + 1
        return dict(sorted(counts.items()))

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int or not 0 <= v < self.n:
            raise BadVertex(f"vertex {v!r} not in 0..{self.n - 1}")

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialSphere):
            return NotImplemented
        return self.n == other.n and self.faces == other.faces

    def __hash__(self) -> int:
        return hash((self.n, self.faces))

    def __repr__(self) -> str:
        return f"SimplicialSphere(n={self.n}, faces={self.n_faces})"


_INTERNAL = object()


def from_faces(n: int, faces) -> SimplicialSphere:
    """Validate ``faces`` over vertices ``0..n-1`` and build the sphere.

    A face is any iterable of three ``int`` vertices (``bool`` is not an
    ``int`` here), read once as a tuple; tuples, lists and iterators all
    take the one accepting test.  Faces may be given in any order and any
    within-face order; they are stored as sorted triples in sorted order.
    A face that fails is diagnosed in a fixed order: not iterable, a
    non-integer vertex, not 3 distinct vertices, out of range.  Raises
    :class:`NotASphere` with the reason code of the first check that
    fails, in this order: ``bad-index`` (including a vertex count that is
    not a non-negative ``int``), ``duplicate-face``, ``edge-degree``,
    ``link-not-cycle`` (the least such vertex), ``euler-fail``,
    ``disconnected``.  Face 0 is oriented as sorted.  Edges a < b are
    keyed by the int ``a * n + b``.
    """
    if type(n) is not int or n < 0:
        raise NotASphere("bad-index", f"vertex count {n!r} is not a non-negative int")
    norm: list[Face] = []
    for f in faces:
        if type(f) is not tuple:
            try:
                f = tuple(f)
            except TypeError:
                raise NotASphere("bad-index", f"face {f!r} is not a vertex triple") from None
        if len(f) == 3:
            a, b, c = f
            if type(a) is type(b) is type(c) is int:
                if a > b:
                    a, b = b, a
                if b > c:
                    b, c = c, b
                    if a > b:
                        a, b = b, a
                if 0 <= a < b < c < n:
                    norm.append((a, b, c))
                    continue
        # the face is bad: name the first check it fails
        if not all(type(v) is int for v in f):
            raise NotASphere("bad-index", f"face {f!r} has a non-integer vertex")
        t = tuple(sorted(f))
        if len(t) != 3 or t[0] == t[1] or t[1] == t[2]:
            raise NotASphere("bad-index", f"face {f!r} is not 3 distinct vertices")
        raise NotASphere("bad-index", f"face {t!r} out of range 0..{n - 1}")
    norm.sort()
    for prev, cur in zip(norm, norm[1:]):
        if prev == cur:
            raise NotASphere("duplicate-face", f"face {cur!r} given more than once")
    covered = {v for f in norm for v in f}
    if len(covered) != n:
        # Faces are in range, so the first few missing vertices lie below
        # len(covered) + 5; never materialise range(n), which may be huge.
        limit = min(n, len(covered) + 5)
        missing = [v for v in range(limit) if v not in covered][:5]
        more = n - len(covered) - len(missing)
        tail = f" and {more} more" if more > 0 else ""
        raise NotASphere("bad-index", f"vertices {missing}{tail} occur in no face")

    # Incidence: the far vertices of the faces at each edge, and the number
    # of faces at each vertex.
    apex: dict[int, list[int]] = {}
    count = [0] * n
    for a, b, c in norm:
        an = a * n
        apex.setdefault(an + b, []).append(c)
        apex.setdefault(an + c, []).append(b)
        apex.setdefault(b * n + c, []).append(a)
        count[a] += 1
        count[b] += 1
        count[c] += 1
    for e, far in apex.items():
        if len(far) != 2:
            raise NotASphere(
                "edge-degree",
                f"edge {set(divmod(e, n))} lies in {len(far)} faces (expected 2)",
            )

    # Orient face 0 = (a, b, c) as sorted, b -> c round a, and walk round
    # every vertex reached from it: if v -> x -> y is a face, then y -> v
    # round x.  A walk yields the whole rotation iff the link is one cycle.
    succ: list = [None] * n
    stack = []
    if norm:
        a, b, c = norm[0]
        succ[a] = _link_walk(apex, n, a, b, c)
        stack.append(a)
    while stack:
        v = stack.pop()
        for x, y in succ[v].items():
            if succ[x] is None:
                succ[x] = _link_walk(apex, n, x, y, v)
                stack.append(x)
    for v in range(n):
        rot = succ[v]
        if rot is None:  # not reached: walked again, unoriented, for the check
            face = next(f for f in norm if v in f)
            rot = _link_walk(apex, n, v, *(w for w in face if w != v))
        if len(rot) != count[v]:
            raise NotASphere(
                "link-not-cycle", f"link of vertex {v} is not a single cycle"
            )

    V, E, F = n, len(apex), len(norm)
    if V - E + F != 2:
        raise NotASphere("euler-fail", f"V-E+F = {V}-{E}+{F} = {V - E + F} != 2")
    # Every link is one cycle, so a face at a reached vertex is reached; a
    # connected surface with V-E+F = 2 is an orientable sphere.
    unreached = sum(count[v] for v in range(n) if succ[v] is None) // 3
    if unreached:
        raise NotASphere("disconnected", f"face graph has {unreached} unreachable faces")

    return SimplicialSphere(n, tuple(norm), succ, _token=_INTERNAL)


def _link_walk(apex, n: int, v: int, x: int, y: int) -> dict[int, int]:
    """The rotation round ``v`` that maps ``x`` to ``y``, walked along v's link.

    ``apex`` maps each edge a < b, keyed ``a * n + b``, to the far vertices
    of its two faces.  The walk stops where it closes, so it covers only
    the link cycle through ``x``.
    """
    rot = {}
    vn = v * n
    while x not in rot:
        rot[x] = y
        p, q = apex[vn + y if v < y else y * n + v]
        x, y = y, (q if p == x else p)
    return rot


class _RotationSphere(SimplicialSphere):
    """A sphere made by :func:`_from_rotation`: its faces are read off the
    rotation the first time they are asked for, then kept in the slot.
    Two threads that both read first store equal tuples."""

    __slots__ = ()

    @property
    def faces(self) -> tuple[Face, ...]:
        try:
            return _FACES_SLOT.__get__(self)
        except AttributeError:
            faces = tuple(sorted(
                (x, y, z) if y < z else (x, z, y)
                for x, rot in enumerate(self._succ)
                for y, z in rot.items()
                if y > x and z > x
            ))
            _FACES_SLOT.__set__(self, faces)
            return faces

    @faces.setter
    def faces(self, faces: tuple[Face, ...]) -> None:
        # pickle and copy restore the slot through this
        _FACES_SLOT.__set__(self, faces)


_FACES_SLOT = SimplicialSphere.__dict__["faces"]


def _from_rotation(n: int, succ: list[dict[int, int]]) -> SimplicialSphere:
    """Build the sphere whose rotation system is ``succ``, unchecked.

    ``succ`` must be the rotation of a triangulated sphere on ``0..n-1``,
    consistently oriented: ``succ[x][y] == z`` implies ``succ[y][z] == x``.
    Its faces are sorted only when first read, each at its smallest
    vertex.  The maps are stored, not copied, so they may be shared with
    the sphere they came from.
    """
    return _RotationSphere(n, None, succ, _token=_INTERNAL)


def _rotations(K: SimplicialSphere) -> tuple[dict[int, int], ...]:
    """The stored successor maps of ``K``, indexed by vertex; shared, not copied.

    For the package's hot loops only: callers must not change the maps.
    """
    return K._succ


def _contract_rotations(succ: list[dict[int, int]], u: int, v: int) -> None:
    """Contract the edge {u, v} onto ``u`` in the rotation system ``succ``, unchecked.

    ``succ`` is a list of successor maps indexed by vertex, as stored by a
    sphere; the caller has checked the link condition.  With the faces
    u-p-v and u-v-q at the edge, u's map trades its entries at ``v`` and
    ``p`` for v's without ``u`` and ``q``, each apex drops ``v`` from its
    map, and every other neighbor of ``v`` gets a new map with ``v``
    renamed ``u``.  The maps of ``u`` and of the apexes change in place;
    v's map is only read, so it still lists v's old neighbors.  No label
    is renumbered: the other vertices keep theirs and ``v`` is simply no
    longer reachable.  Each map keeps the entry order that a rebuild of
    the contracted sphere would give it.
    """
    rot_u, rot_v = succ[u], succ[v]
    p, q = rot_v[u], rot_u[v]
    del rot_u[v], rot_u[p]
    rot_u.update((y, z) for y, z in rot_v.items() if y != u and y != q)
    at_p, at_q = succ[p], succ[q]
    at_p[rot_v[p]] = at_p.pop(v)
    at_q[u] = at_q.pop(v)
    for x in rot_v:
        if x != u and x != p and x != q:
            succ[x] = {
                (u if y == v else y): (u if z == v else z) for y, z in succ[x].items()
            }


def _compacted(succ: list[dict[int, int]], alive: list[int]) -> SimplicialSphere:
    """The sphere on the maps of the ``alive`` labels, each renamed to its rank.

    ``alive`` lists, in increasing order, the labels whose maps in ``succ``
    form a rotation system (as after :func:`_contract_rotations`); the
    ranks number them ``0..len(alive)-1`` in the same order.
    """
    rank = {x: i for i, x in enumerate(alive)}
    return _from_rotation(
        len(alive), [{rank[y]: rank[z] for y, z in succ[x].items()} for x in alive]
    )


def _split(K: SimplicialSphere, w: int, a: int, b: int) -> SimplicialSphere:
    """``K`` with ``w`` split into the edge {w, K.n} at ``a`` and ``b``, unchecked.

    ``a`` and ``b`` are distinct neighbors of ``w``.  The arc of w's
    rotation from ``a`` to ``b`` stays with ``w``; the arc from ``b`` back
    to ``a`` moves to the new vertex, whose interior vertices rename ``w``
    to it, and the new vertex enters the rotations of ``a`` and ``b`` next
    to ``w``.  Like :func:`_contract_rotations`, it reads the rotation
    system alone.
    """
    n = K.n
    old = K._succ
    rot = old[w]
    kept = {b: n, n: a}
    x = a
    while x != b:
        kept[x] = rot[x]
        x = rot[x]
    moved = {a: w, w: b}
    succ = list(old)
    x = rot[b]
    while x != a:
        inner = dict(old[x])
        inner[n] = inner.pop(w)
        inner[rot[x]] = n
        succ[x] = inner
        moved[x] = rot[x]
        x = rot[x]
    moved[b] = rot[b]
    at_a, at_b = dict(old[a]), dict(old[b])
    at_a[n], at_a[w] = at_a[w], n
    at_b[rot[b]], at_b[n] = n, w
    succ[w], succ[a], succ[b] = kept, at_a, at_b
    succ.append(moved)
    return _from_rotation(n + 1, succ)


def tetrahedron() -> SimplicialSphere:
    """The boundary of the 3-simplex: the smallest triangulated S2."""
    return from_faces(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def octahedron() -> SimplicialSphere:
    """The octahedron boundary in its fixed labeling.

    Opposite (non-adjacent) vertex pairs are {0,5}, {1,4}, {2,3}; this
    labeling is relied on by tests and by the certificate verifier's end
    check.
    """
    return from_faces(
        6,
        [
            (0, 1, 2),
            (0, 2, 4),
            (0, 4, 3),
            (0, 3, 1),
            (5, 1, 2),
            (5, 2, 4),
            (5, 4, 3),
            (5, 3, 1),
        ],
    )


# -- .tri text format ------------------------------------------------------


def dump_tri(sphere: SimplicialSphere) -> str:
    """Render a sphere in .tri format (canonical: parse(dump(K)) == K)."""
    lines = [str(sphere.n)]
    lines.extend(f"{a} {b} {c}" for a, b, c in sphere.faces)
    return "\n".join(lines) + "\n"


def parse_tri(text: str) -> SimplicialSphere:
    """Parse .tri text: vertex count line, then one face per line.

    Blank lines and lines starting with 'c' are ignored.
    """
    n = None
    faces = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise FormatError(f"line {lineno}: expected integers, got {line!r}")
        if n is None:
            if len(values) != 1:
                raise FormatError(f"line {lineno}: expected a single vertex count")
            n = values[0]
        else:
            if len(values) != 3:
                raise FormatError(f"line {lineno}: expected 3 vertex indices")
            faces.append(tuple(values))
    if n is None:
        raise FormatError("empty .tri input")
    return from_faces(n, faces)


def dump_corpus(spheres) -> str:
    """Render spheres as .tri blocks separated by blank lines."""
    return "\n".join(dump_tri(s) for s in spheres)


def parse_corpus(text: str) -> list[SimplicialSphere]:
    """Parse .tri blocks separated by lines that are blank after stripping."""
    text = "\n".join(line.strip() for line in text.splitlines())
    return [parse_tri(b) for b in text.split("\n\n") if b.strip()]
