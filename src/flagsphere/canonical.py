"""Canonical forms and isomorphism for triangulated 2-spheres.

A start (directed edge u->v, one of the two rotational directions)
relabels the sphere breadth-first: u gets 0, v gets 1, and each dequeued
vertex labels its unlabeled neighbors in rotation order, after the one
that discovered it.  The form is the least sorted relabeled face list
over all starts.  Scanning both directions makes mirror images share a
form, and the minimal code is itself a relabeled copy of the sphere, so
the form is a complete isomorphism invariant, not just a hash.

Four rules skip work without changing that minimum.  Every code begins
(0,1,2), (0,1,d) for d = deg u, so only roots u of minimum degree can
win.  Call an edge clean when its only common neighbours are its two
apexes.  For a clean uv the first entry that begins with 1 is
(1,2,d+e-3), e = deg v, so of those starts only the ones of least e can
win.  Of these, let a = rot[u][v], labeled 2.  If ua and va are clean
too, a's rotation from u runs v, the other apex of va (labeled d+e-3),
deg a - 4 unlabeled vertices (a labeled one would be a third common
neighbour of ua or va) and the other apex of ua (labeled 3), so the
first entry that begins with 2 is (2,3,d+e+deg a-7), and only the starts
of least deg a can win.  A start that is not clean where a rule asks,
which only a non-flag sphere has, is always tried.  Each rule drops only
starts that lose to a kept one, so the code and the starts that tie it,
in order, are unchanged.  And once the vertex labeled i is dequeued its
faces whose other labels both exceed i are known: they are exactly the
code entries that begin with i, and follow all entries beginning with a
smaller label.  The code is thus emitted in sorted order, chunk by
chunk, and compared with the best code so far as it grows: the first
larger entry drops the start, and after the first smaller one the start
is finished as the new best.

A start that ties the best code to the end is not wasted: its labeling
and the winner's both map the sphere onto the same code, so together they
give one automorphism of the canonical representative.  Every
automorphism maps a minimum-degree root to another, so the ties give the
whole group, mirrors included.  The search returns the labelings of the
starts that reach the code, the winner's first, next to the code; the
group is built from them only when asked for.  Every function here is
pure: nothing is cached on the sphere.
"""

from __future__ import annotations

import hashlib
import struct

from .errors import FormatError
from .sphere import SimplicialSphere, from_faces


def _start_code(n: int, rot, u: int, v: int, s: int, best):
    """``(code, label)`` for the start ``u->v`` in ``rot`` unless it loses to ``best``.

    Returns None when the code exceeds ``best``; on a tie the returned
    code is ``best`` itself.  ``label[x]`` is the label the start gives
    vertex ``x``.  A face x < y < z is packed as
    ``(x << 2s) | (y << s) | z``, an int that orders like the triple.
    """
    label = [-1] * n
    label[u] = 0
    label[v] = 1
    order = [u, v]
    ref = [-1] * n
    ref[u] = v
    ref[v] = u
    code = []
    pos = -1 if best is None else 0  # -1: already below best, stop comparing
    for i in range(n):
        x = order[i]
        rx = rot[x]
        t = ref[x]
        lt = label[t]
        hi = i << (2 * s)
        chunk = []
        for _ in range(len(rx)):
            w = rx[t]
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
    return (code if pos < 0 else best), label


def _starts(K: SimplicialSphere) -> list:
    """The starts that can win, in search order, as ``(rot, u, v)``."""
    succ = [K.rotation(v) for v in range(K.n)]
    pred = [K.rotation(v, reverse=True) for v in range(K.n)]
    adj = K.adjacency
    d = min(map(len, adj))
    # clean: the edge's only common neighbours are its two apexes
    edges = [
        (u, v, len(adj[u] & adj[v]) == 2)
        for u in range(K.n)
        if len(adj[u]) == d
        for v in succ[u]
    ]
    e = min((len(adj[v]) for _, v, clean in edges if clean), default=K.n)
    # rank: deg a when uv, ua and va are clean, a = rot[u][v]; else 0, always tried
    ranked = []
    for u, v, clean in edges:
        if clean and len(adj[v]) > e:
            continue
        for rot in (succ, pred):
            a = rot[u][v]
            all_clean = clean and len(adj[u] & adj[a]) == 2 == len(adj[v] & adj[a])
            ranked.append((rot, u, v, len(adj[a]) if all_clean else 0))
    f = min((r for *_, r in ranked if r), default=0)
    return [(rot, u, v) for rot, u, v, r in ranked if r <= f]


def _min_code(K: SimplicialSphere) -> tuple[list[int], int, list[list[int]]]:
    """The least code over all starts that can win, and the labelings that reach it.

    Returns the code as packed ints (see :func:`_start_code`), their
    field width ``s`` and, in :func:`_starts` order, the labeling of every
    start whose code equals it; the first is the winner's.
    """
    n = K.n
    s = max(1, (n - 1).bit_length())
    best = None
    labels = []
    for rot, u, v in _starts(K):
        found = _start_code(n, rot, u, v, s, best)
        if found is not None:
            if found[0] is not best:
                best, labels = found[0], []
            labels.append(found[1])
    return best, s, labels


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
    node's, this is the group of ``K`` itself.  It costs one search, the
    one behind :func:`canonical_form`: each start that ties the winner
    gives one element, ``p[best[x]] = label[x]`` for the winner's labeling
    ``best``.
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
    if A.n != B.n or A.n_faces != B.n_faces:
        return False
    if sorted(map(len, A.adjacency)) != sorted(map(len, B.adjacency)):
        return False
    return canonical_form(A) == canonical_form(B)
