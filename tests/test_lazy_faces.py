"""Spheres built from a rotation read their faces off it only when asked.

Splits, contractions and the end sphere of a reduction skip sorting their
faces when they are built.  Each is checked against the sphere that
``from_faces`` builds from the same faces, and copied before and after
its faces are first read.
"""

import copy
import pickle

import flagsphere as fs
from flagsphere import hasse

FACES_SLOT = fs.SimplicialSphere.__dict__["faces"]

COPIES = {
    "pickle": lambda K: pickle.loads(pickle.dumps(K)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def faces_read(K):
    """True iff ``K`` holds its faces, without making it compute them."""
    try:
        FACES_SLOT.__get__(K)
    except AttributeError:
        return False
    return True


def check_lazy(make):
    """``make()`` builds the same sphere afresh on each call."""
    K = make()
    assert not faces_read(K)
    assert K.n_faces == 2 * K.n - 4
    assert not faces_read(K)
    ref = fs.from_faces(K.n, K.faces)
    assert faces_read(K)
    assert K.faces == ref.faces
    assert K.n_faces == len(K.faces) == 2 * K.n - 4
    assert K == ref and ref == K
    assert hash(make()) == hash(ref)
    for name, dup in COPIES.items():
        unread = make()
        assert dup(unread) == ref, name
        read = make()
        read.faces
        twin = dup(read)
        assert twin == ref and twin.faces == ref.faces, name
        assert twin.n_faces == ref.n_faces, name


def all_splits(K):
    for w in range(K.n):
        cyc = K.link_cycle(w)
        for i in range(len(cyc)):
            for j in range(i + 1, len(cyc)):
                yield fs.SplitSpec(w, cyc[i], cyc[j])


def test_splits_read_faces_lazily(corpus9):
    count = 0
    for K in corpus9:
        for spec in all_splits(K):
            check_lazy(lambda: fs.split_vertex(K, spec))
            count += 1
    assert count == sum(d * (d - 1) // 2 for K in corpus9 for d in map(len, K.adjacency))


def test_contractions_read_faces_lazily(corpus9):
    count = 0
    for K in corpus9:
        for e in K.edges:
            if fs.link_condition(K, e):
                check_lazy(lambda: fs.contract(K, e))
                check_lazy(lambda: fs.contract_mapped(K, e)[0])
                count += 1
    assert count > 900


def test_reduction_end_reads_faces_lazily(flag_corpus10, random_flag_sphere):
    spheres = list(flag_corpus10) + [random_flag_sphere(seed, 30) for seed in (1, 2)]
    for K in spheres:
        check_lazy(lambda: fs.reduce_to_octahedron(K).end)
        assert fs.isomorphic(fs.reduce_to_octahedron(K).end, fs.octahedron())


def test_build_reads_no_child_faces(monkeypatch):
    children = []

    def kept(K, spec):
        child = fs.split_vertex(K, spec)
        children.append(child)
        return child

    monkeypatch.setattr(hasse, "split_vertex", kept)
    G = fs.build(12)
    assert G.level_counts() == {6: 1, 7: 1, 8: 2, 9: 4, 10: 10, 11: 25, 12: 87}
    assert len(children) == 892
    assert not any(map(faces_read, children))
