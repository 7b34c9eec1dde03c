"""Edge and face membership read off the rotation, against the stored lists.

``has_edge`` looks in the neighbor sets and ``has_face`` follows the
rotation round one vertex.  Both are checked here against membership in
``K.edges`` and ``K.faces`` for every vertex pair and triple, in every
order, on the small corpus and on split and contraction results, which
are built from their parent's rotation without validation.
"""

from itertools import product

import flagsphere as fs


def spheres(corpus9):
    """corpus9, one split per vertex of its spheres up to n = 8, and contractions."""
    for K in corpus9:
        yield K
        for w in range(K.n if K.n <= 8 else 0):
            cyc = K.link_cycle(w)
            yield fs.split_vertex(K, fs.SplitSpec(w, cyc[0], cyc[2]))
        for e in K.edges[::3]:
            if fs.link_condition(K, e):
                yield fs.contract(K, e)


def assert_membership(K):
    edges, faces = set(K.edges), set(K.faces)
    for u, v in product(range(K.n), repeat=2):
        assert K.has_edge(u, v) == (tuple(sorted((u, v))) in edges)
    for t in product(range(K.n), repeat=3):
        assert K.has_face(t) == (tuple(sorted(t)) in faces)


def assert_rejects_bad_positions(K):
    bad = (-1, -K.n, K.n, K.n + 5)
    for u, v in K.edges:
        for x in bad:
            assert not K.has_edge(x, v) and not K.has_edge(u, x)
            assert not K.has_edge(x, u) and not K.has_edge(v, x)
    for face in K.faces:
        assert K.has_face(list(face))
        for i, x in product(range(3), bad):
            wrong = list(face)
            wrong[i] = x
            assert not K.has_face(wrong)
        a, b, c = face
        for wrong_arity in ((), (a,), (a, b), (a, b, c, a), (a, b, c, (c + 1) % K.n)):
            assert not K.has_face(wrong_arity)
        for repeated in ((a, a, b), (a, b, b), (c, a, c), (a, a, a)):
            assert not K.has_face(repeated)


def test_membership_matches_stored_lists(corpus9):
    count = 0
    for K in spheres(corpus9):
        assert_membership(K)
        assert_rejects_bad_positions(K)
        count += 1
    assert count > 500
