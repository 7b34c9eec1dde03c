"""The enumeration oracle skips only the splits it is sure to repeat.

``oracle._all_splits`` skips a split that leaves the old vertex ``w`` or
the new one with degree 3 or 4 when a *partner* of that vertex is below
``w``: both other neighbours of a degree-3 vertex (the stacked face is
also a split at either), or the neighbour of a degree-4 vertex opposite
the new edge (contracting onto it gives the parent too).  Here every
split is written out by a loop of this file, partners are read off the
child, and every split must be isomorphic to a split of each of its
partners in the same parent, so a skipped split repeats an earlier one.
"""

import flagsphere as fs
from flagsphere import oracle


def every_split(K):
    """``(w, partners, child)`` for every split of ``K``, in the oracle's order.

    The split of ``w`` at link positions i < j moves the faces on link
    edges j .. i (round the end) to the new vertex and adds the two faces
    of the new edge.  ``partners`` are read off the child.
    """
    v = K.n
    for w in range(K.n):
        cyc = K.link_cycle(w)
        d = len(cyc)
        rest = [f for f in K.faces if w not in f]
        for i in range(d):
            for j in range(i + 1, d):
                faces = rest + [(w, v, cyc[i]), (w, v, cyc[j])]
                faces += [(w if i <= k < j else v, cyc[k], cyc[(k + 1) % d]) for k in range(d)]
                child = fs.from_faces(v + 1, faces)
                yield w, partners(child, w, v) + partners(child, v, w), child


def partners(child, owner, other):
    """The vertices at which the split that made the edge {owner, other}
    is also made: both others of a degree-3 ``owner``, the one opposite
    ``other`` round a degree-4 one."""
    nbrs = child.neighbors(owner) - {other}
    if len(nbrs) == 2:
        return sorted(nbrs)
    if len(nbrs) == 3:
        return [y for y in nbrs if not child.has_edge(y, other)]
    return []


def test_every_split_repeats_a_split_of_each_partner(corpus10):
    pairs = 0
    for K in (K for K in corpus10 if K.n <= 8):
        every = list(every_split(K))
        made = [child for w, ps, child in every if all(p >= w for p in ps)]
        assert [C.faces for C in oracle._all_splits(K)] == [C.faces for C in made]
        at = {}
        for w, _, child in every:
            at.setdefault(w, []).append(child)
        for w, ps, child in every:
            for p in ps:
                assert any(fs.brute_isomorphic(child, C) for C in at[p]), (K, w, p)
                pairs += 1
    assert pairs == 2196


def test_made_splits_at_max_n_10(corpus10):
    parents = [K for K in corpus10 if K.n <= 9]
    every = sum(K.degree(w) * (K.degree(w) - 1) // 2 for K in parents for w in range(K.n))
    made = sum(len(oracle._all_splits(K)) for K in parents)
    assert (made, every) == (2541, 5587)
