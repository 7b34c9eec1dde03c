"""Canonical forms and isomorphism for triangulated 2-spheres.

A start (directed edge u->v, one of the two rotational directions)
relabels the sphere breadth-first: u gets 0, v gets 1, and each dequeued
vertex labels its unlabeled neighbors in rotation order, after the one
that discovered it.  The form is the least sorted relabeled face list
over all starts.  Both directions make mirror images share a form, and
the least code is a relabeled copy of the sphere, so the form is a
complete isomorphism invariant.  The mirror walk steps to t's
predecessor round x, succ[t][x], as the orientation is consistent.

Four rules skip work without changing that minimum.  Every code begins
(0,1,2), (0,1,d) for d = deg u, so only roots u of minimum degree can
win.  Call an edge clean when its only common neighbours are its two
apexes, as the link condition asks; on a flag sphere every edge is
clean.  If every root edge uv is clean, the first entry that begins with
1 is (1,2,d+e-3), e = deg v, so only the starts of least e can win.  Let
a be labeled 2; ua is a root edge.  If each kept start's va is clean
too, a's rotation from u runs v, the other apex of va (labeled d+e-3),
deg a - 4 unlabeled vertices (a labeled one would be a third common
neighbour of ua or va) and the other apex of ua (labeled 3), so the
first entry that begins with 2 is (2,3,d+e+deg a-7): only the starts of
least deg a can win.  Each rule applies to every start it compares or,
if one of their edges is not clean (only on a non-flag sphere), to none,
and drops only starts that lose to a kept one, so the code and its tying
starts, in order, are unchanged.  And once the vertex labeled i is
dequeued, its faces whose other labels both exceed i are known: they are
the code entries that begin with i, after all those that begin with a
smaller label.  So the code is emitted sorted, chunk by chunk, and
compared with the best so far as it grows: the first larger entry drops
the start, and after the first smaller one the start runs on as the new
best.  It stops at its last face, the (2n-4)th: every vertex lies on a
face, so all are labeled by then.

A start that ties the best code to the end gives, with the winner's
labeling, one automorphism of the canonical representative.  Every
automorphism maps a minimum-degree root to another, so the ties give the
whole group, mirrors included; it is built from the tying labelings
only when asked for.  Every function here is pure: nothing is cached on
the sphere.

A sphere is tested against a known form without a search of its own:
only the starts whose u, v and a have the degrees of labels 0, 1 and 2
in the form are walked, against the form's code, up to the first tie
(the same class) or the first lower code (another class).  A form index
buckets one level's forms by an isomorphism invariant and searches only
the spheres that match none of their bucket, so a Hasse level pays one
search per class, not per child.
"""

from __future__ import annotations

import hashlib
import struct

from .errors import FormatError
from .sphere import SimplicialSphere, _rotations, from_faces


def _start_code(n: int, succ, mirror: bool, u: int, v: int, s: int, best):
    """``(code, label)`` for the start ``u->v`` unless it loses to ``best``.

    ``mirror`` walks each rotation backwards.  None when the code exceeds
    ``best``; on a tie the code returned is ``best`` itself.  A face
    x < y < z is packed as ``(x << 2s) | (y << s) | z``, ordered like the
    triple.
    """
    label = [-1] * n
    label[u], label[v] = 0, 1
    order = [u, v]
    ref = [-1] * n
    ref[u], ref[v] = v, u
    code = []
    pos = -1 if best is None else 0  # -1: already below best, stop comparing
    m = 2 * n - 4
    for i in range(n):
        x = order[i]
        rx = succ[x]
        t = ref[x]
        lt = label[t]
        hi = i << (2 * s)
        chunk = []
        for _ in rx:
            w = succ[t][x] if mirror else rx[t]
            lw = label[w]
            if lw < 0:
                lw = label[w] = len(order)
                ref[w] = x
                order.append(w)
            if lt > i and lw > i:
                chunk.append(hi | (lt << s) | lw if lt < lw else hi | (lw << s) | lt)
            t, lt = w, lw
        chunk.sort()
        if pos >= 0:
            seg = best[pos : pos + len(chunk)]
            if chunk == seg:
                pos += len(chunk)
            elif chunk > seg:
                return None
            else:
                pos = -1
        code += chunk
        if len(code) == m:
            break
    return (code if pos < 0 else best), label


def _starts(K: SimplicialSphere) -> list:
    """The starts that can win, in search order, as ``(mirror, u, v)``."""
    succ = _rotations(K)
    deg = [len(r) for r in succ]
    d = min(deg)
    roots = [(u, v) for u in range(len(succ)) if deg[u] == d for v in succ[u]]
    if any(len(succ[u].keys() & succ[v]) != 2 for u, v in roots):
        return [(m, u, v) for u, v in roots for m in (False, True)]
    e = min([deg[v] for _, v in roots])
    # (mirror, u, v, a): a is labeled 2
    starts = [(m, u, v, succ[v][u] if m else succ[u][v])
              for u, v in roots if deg[v] == e for m in (False, True)]
    if any(len(succ[v].keys() & succ[a]) != 2 for _, _, v, a in starts):
        return [s[:3] for s in starts]
    f = min([deg[s[3]] for s in starts])
    return [(m, u, v) for m, u, v, a in starts if deg[a] == f]


def _min_code(K: SimplicialSphere) -> tuple[list[int], int, list[list[int]]]:
    """The least code over all starts that can win, and the labelings that reach it.

    Returns the code as packed ints (see :func:`_start_code`), their
    width ``s`` and the tying labelings in :func:`_starts` order, winner's first.
    """
    n = K.n
    succ = _rotations(K)
    s = max(1, (n - 1).bit_length())
    best = None
    labels = []
    for mirror, u, v in _starts(K):
        found = _start_code(n, succ, mirror, u, v, s, best)
        if found is not None:
            if found[0] is not best:
                best, labels = found[0], []
            labels.append(found[1])
    return best, s, labels


def _same_class(succ, deg: list[int], form: bytes) -> bool:
    """Whether the sphere with rotation ``succ`` has the canonical form ``form``.

    Walks, in both directions, only the starts u->v whose u, v and a have
    the degrees of labels 0, 1 and 2 in ``form``, against its code: the
    first tie says yes, the first lower code or the last higher one no.
    Sound: if K ~ R, K's start codes are R's, so none is below R's least
    code and one with those degrees ties it; a tie relabels K onto R.
    """
    n, _, *flat = struct.unpack(f">{len(form) // 4}I", form)
    if n != len(succ):
        return False
    s = max(1, (n - 1).bit_length())
    code = [x << 2 * s | y << s | z for x, y, z in zip(flat[0::3], flat[1::3], flat[2::3])]
    d0, d1, d2 = flat.count(0), flat.count(1), flat.count(2)
    for u in range(n):
        if deg[u] != d0:
            continue
        su = succ[u]
        for v in su:
            if deg[v] != d1:
                continue
            for mirror, a in ((False, su[v]), (True, succ[v][u])):
                if deg[a] == d2:
                    found = _start_code(n, succ, mirror, u, v, s, code)
                    if found is not None:
                        return found[0] is code
    return False


class _FormIndex:
    """Canonical forms of spheres, each new class searched once.

    Known forms sit in buckets keyed by a hash of the sorted pairs
    (deg v, sum of v's neighbours' degrees), an isomorphism invariant.  A
    sphere is matched against its bucket's forms (:func:`_same_class`),
    and only a sphere that matches none pays for :func:`canonical_form`.
    """

    __slots__ = ("_buckets",)

    def __init__(self):
        self._buckets: dict[int, list[bytes]] = {}

    def form(self, K: SimplicialSphere) -> bytes:
        """``canonical_form(K)``; a known class returns its stored form object."""
        succ = _rotations(K)
        deg = [len(r) for r in succ]
        key = hash(tuple(sorted((d, sum(map(deg.__getitem__, r))) for d, r in zip(deg, succ))))
        bucket = self._buckets.setdefault(key, [])
        for form in bucket:
            if _same_class(succ, deg, form):
                return form
        form = canonical_form(K)
        bucket.append(form)
        return form


def encode_face_set(n: int, faces) -> bytes:
    """Serialize a face set as count-prefixed big-endian 32-bit integers."""
    sorted_faces = sorted(tuple(sorted(f)) for f in faces)
    flat = [x for f in sorted_faces for x in f]
    return struct.pack(f">{2 + len(flat)}I", n, len(sorted_faces), *flat)


def decode_form(form: bytes) -> tuple[int, list[tuple[int, int, int]]]:
    """Invert :func:`encode_face_set`."""
    if len(form) < 8 or len(form) % 4:
        raise FormatError("truncated canonical form")
    n, f_count, *flat = struct.unpack(f">{len(form) // 4}I", form)
    if len(flat) != 3 * f_count:
        raise FormatError("canonical form length does not match its face count")
    return n, list(zip(flat[0::3], flat[1::3], flat[2::3]))


def canonical_form(K: SimplicialSphere) -> bytes:
    """The canonical byte string of ``K``'s isomorphism class.

    Equal byte strings are equivalent to the spheres being isomorphic
    (including mirror images); the rendering is stable across runs and
    platforms.
    """
    code, s, _ = _min_code(K)
    mask = (1 << s) - 1
    flat = [x for c in code for x in (c >> 2 * s, c >> s & mask, c & mask)]
    return struct.pack(f">{2 + len(flat)}I", K.n, len(code), *flat)


def canonical_automorphisms(K: SimplicialSphere) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of ``K``'s canonical representative, identity first.

    Each element ``p`` maps canonical label ``x`` to ``p[x]`` and maps the
    faces of :func:`canonical_sphere` onto themselves; orientation-reversing
    ones are included.  For a canonically labeled sphere, such as a Hasse
    node's, this is the group of ``K`` itself.  Each start of the search
    that ties the winner gives one element, ``p[best[x]] = label[x]`` for
    the winner's labeling ``best``.
    """
    n = K.n
    *_, (best, *ties) = _min_code(K)
    out = [tuple(range(n))]
    for label in ties:
        p = [0] * n
        for x, y in zip(best, label):
            p[x] = y
        out.append(tuple(p))
    return tuple(out)


def form_hex(form: bytes) -> str:
    """Stable hexadecimal rendering of a form, used in exports."""
    return hashlib.sha256(form).hexdigest()


def sphere_from_form(form: bytes) -> SimplicialSphere:
    """Reconstruct the canonical representative encoded by ``form``."""
    n, faces = decode_form(form)
    return from_faces(n, faces)


def canonical_sphere(K: SimplicialSphere) -> SimplicialSphere:
    """The canonically relabeled representative of ``K``'s class."""
    return sphere_from_form(canonical_form(K))


def isomorphic(A: SimplicialSphere, B: SimplicialSphere) -> bool:
    """True iff some relabeling maps the faces of ``A`` onto those of ``B``."""
    if sorted(map(len, A.adjacency)) != sorted(map(len, B.adjacency)):
        return False
    return canonical_form(A) == canonical_form(B)
