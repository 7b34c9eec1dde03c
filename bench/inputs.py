"""Seeded flag-sphere inputs, owned by the benchmark.

Spheres are grown from the octahedron by random flag-preserving vertex
splits done here on plain face lists, never through the library's
``split_vertex``, so a library change cannot change the inputs.  The
library only ever sees the ``.tri`` text rendered at the end.

A split of vertex ``w`` at two link-cycle vertices that are not adjacent
on the cycle (a diagonal of the link polygon) keeps the sphere flag, so
every generated sphere is a flag sphere on exactly the requested number
of vertices.
"""

from __future__ import annotations

import random

OCTAHEDRON = (
    (0, 1, 2), (0, 2, 4), (0, 3, 4), (0, 1, 3),
    (1, 2, 5), (2, 4, 5), (3, 4, 5), (1, 3, 5),
)


def _link_cycle(faces, w):
    """Neighbours of ``w`` in cyclic order, walked from the face list."""
    adj = {}
    for f in faces:
        if w in f:
            a, b = (x for x in f if x != w)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    start = min(adj)
    cycle = [start]
    prev, cur = None, start
    while True:
        x, y = adj[cur]
        nxt = y if x == prev else x
        if nxt == start:
            return cycle
        cycle.append(nxt)
        prev, cur = cur, nxt


def grow_flag_sphere(n: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """A flag sphere on ``n >= 6`` vertices: ``n - 6`` random diagonal splits."""
    faces = list(OCTAHEDRON)
    for new in range(6, n):
        w = rng.randrange(new)
        cyc = _link_cycle(faces, w)
        d = len(cyc)
        diagonals = [(i, j) for i in range(d) for j in range(i + 2, d) if (i, j) != (0, d - 1)]
        i, j = rng.choice(diagonals)
        keep = cyc[i : j + 1]
        moved = cyc[j:] + cyc[: i + 1]
        faces = [f for f in faces if w not in f]
        faces.extend((w, keep[t], keep[t + 1]) for t in range(len(keep) - 1))
        faces.extend((new, moved[t], moved[t + 1]) for t in range(len(moved) - 1))
        faces.append((w, new, cyc[i]))
        faces.append((w, new, cyc[j]))
    return faces


def relabel(n: int, faces, rng: random.Random) -> list[tuple[int, int, int]]:
    """Apply a random vertex permutation, shuffle face order and rotate faces."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for a, b, c in faces:
        face = (perm[a], perm[b], perm[c])
        r = rng.randrange(3)
        out.append(face[r:] + face[:r])
    rng.shuffle(out)
    return out


def render_tri(n: int, faces) -> str:
    """``.tri`` text: vertex count, then one face per line."""
    return f"{n}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in faces)


def flag_sphere_texts(sizes, seed: int, relabeled_copy: bool = False) -> list[tuple[str, ...]]:
    """One ``.tri`` text per size (plus a relabeled copy when asked), from ``seed``."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        faces = relabel(n, grow_flag_sphere(n, rng), rng)
        texts = (render_tri(n, faces),)
        if relabeled_copy:
            texts += (render_tri(n, relabel(n, faces, rng)),)
        out.append(texts)
    return out
