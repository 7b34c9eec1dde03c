"""The rotation test that deduplicates ``enumerate_all_spheres``.

``oracle._rotation_isomorphic`` takes the candidate's rotation maps both
ways round and the representative's forward maps.  It is checked against
``brute_isomorphic`` where bijection search is cheap, on relabellings of
every corpus sphere, and on the distinct classes that share an
invariant bucket at n = 9 and 10.
"""

import random

import flagsphere as fs
from flagsphere import oracle


def forward(K):
    return [K.rotation(v) for v in range(K.n)]


def reverse(K):
    return [K.rotation(v, True) for v in range(K.n)]


def same(A, B):
    return oracle._rotation_isomorphic((forward(A), reverse(A)), forward(B))


def bucket_key(K):
    """The sorted multiset of each vertex's sorted neighbour degrees."""
    adj = K.adjacency
    return tuple(sorted(tuple(sorted(len(adj[w]) for w in nbrs)) for nbrs in adj))


def test_agrees_with_brute_isomorphic_through_n8(corpus10, relabel):
    rng = random.Random(8)
    small = [K for K in corpus10 if K.n <= 8]
    pairs = 0
    for A in small:
        for B in small:
            if A.n != B.n:
                continue
            perm = list(range(B.n))
            rng.shuffle(perm)
            image = relabel(B, perm)
            assert same(A, image) == fs.brute_isomorphic(A, image)
            pairs += 1
    assert pairs == 1 + 1 + 2**2 + 5**2 + 14**2


def test_recognises_relabellings_in_both_orientations(corpus10, relabel):
    rng = random.Random(10)
    forward_only = reverse_only = 0
    for K in corpus10:
        perm = list(range(K.n))
        rng.shuffle(perm)
        image = relabel(K, perm)
        assert same(K, image) and same(image, K)
        fwd = oracle._rotation_isomorphic((forward(K),), forward(image))
        rev = oracle._rotation_isomorphic((reverse(K),), forward(image))
        forward_only += fwd and not rev
        reverse_only += rev and not fwd
    # chiral spheres relabelled with each orientation: both ways are needed
    assert forward_only and reverse_only


def test_rejects_distinct_classes_at_n9_and_n10(corpus10):
    # every pair sharing a degree sequence, which a shared bucket implies
    groups = {}
    for K in corpus10:
        if K.n >= 9:
            groups.setdefault((K.n, tuple(sorted(map(len, K.adjacency)))), []).append(K)
    pairs = same_bucket = 0
    for reps in groups.values():
        for i, A in enumerate(reps):
            for B in reps[i + 1 :]:
                assert fs.canonical_form(A) != fs.canonical_form(B)
                assert not same(A, B) and not same(B, A)
                pairs += 1
                same_bucket += bucket_key(A) == bucket_key(B)
    assert (pairs, same_bucket) == (447, 1)
