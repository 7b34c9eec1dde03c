"""Contraction and splitting build their results from the input's rotation.

Those results skip validation, so each is checked here against the fully
validated sphere that ``from_faces`` builds from the same faces.  The
oracle and the certificate verifier must not depend on that path.
"""

import random

import pytest

import flagsphere as fs
from flagsphere import sphere


def assert_matches_from_faces(K):
    ref = fs.from_faces(K.n, K.faces)
    assert K.faces == ref.faces
    assert K.edges == ref.edges
    assert K.adjacency == ref.adjacency
    for v in range(K.n):
        assert K.link_cycle(v) == ref.link_cycle(v)
    succ = [dict(K.rotation(v)) for v in range(K.n)]
    assert succ in (
        [dict(ref.rotation(v)) for v in range(K.n)],
        [ref.rotation(v, reverse=True) for v in range(K.n)],
    )
    for x, rot in enumerate(succ):
        for y, z in rot.items():
            assert succ[y][z] == x and succ[z][x] == y


def all_splits(K):
    for w in range(K.n):
        cyc = K.link_cycle(w)
        for i in range(len(cyc)):
            for j in range(i + 1, len(cyc)):
                yield fs.SplitSpec(w, cyc[i], cyc[j])


def test_contractions_match_from_faces(corpus9):
    count = 0
    for K in corpus9:
        for e in K.edges:
            if fs.link_condition(K, e):
                assert_matches_from_faces(fs.contract(K, e))
                count += 1
    assert count > 900


def test_splits_match_from_faces(corpus9):
    count = 0
    for K in corpus9:
        for spec in all_splits(K):
            assert_matches_from_faces(fs.split_vertex(K, spec))
            # Junctions given in the other order name the same split.
            swapped = fs.SplitSpec(spec.w, spec.b, spec.a)
            assert fs.split_vertex(K, swapped) == fs.split_vertex(K, spec)
            count += 1
    assert count == sum(d * (d - 1) // 2 for K in corpus9 for d in map(len, K.adjacency))


def test_diagonal_splits_match_from_faces(flag_corpus10):
    for K in flag_corpus10:
        for _, child in fs.flag_expansions(K):
            assert_matches_from_faces(child)


@pytest.mark.parametrize("seed, n", [(1, 40), (2, 70), (3, 100)])
def test_large_spheres_match_from_faces(random_sphere, seed, n):
    K = random_sphere(seed, n)
    assert_matches_from_faces(K)
    rng = random.Random(seed)
    for spec in rng.sample(list(all_splits(K)), 20):
        assert_matches_from_faces(fs.split_vertex(K, spec))
    # A chain of contractions, each made from the previous trusted result.
    cur = K
    for _ in range(10):
        e = rng.choice([e for e in cur.edges if fs.link_condition(cur, e)])
        cur = fs.contract(cur, e)
        assert_matches_from_faces(cur)


def test_rotation_is_read_only(s7):
    for K in (fs.octahedron(), s7, fs.contract(s7, (0, 6))):
        before = [dict(K.rotation(v)) for v in range(K.n)]
        rot = K.rotation(0)
        key = next(iter(rot))
        with pytest.raises(TypeError):
            rot[key] = key
        with pytest.raises(TypeError):
            del rot[key]
        assert not hasattr(rot, "clear")
        assert [dict(K.rotation(v)) for v in range(K.n)] == before
        ref = fs.from_faces(K.n, K.faces)
        assert [K.link_cycle(v) for v in range(K.n)] == [
            ref.link_cycle(v) for v in range(K.n)
        ]


def test_adjacency_is_read_only(s7):
    mutators = ("add", "discard", "remove", "pop", "clear", "update", "__setitem__")
    for K in (fs.octahedron(), s7, fs.contract(s7, (0, 6))):
        before = [dict(K.rotation(v)) for v in range(K.n)]
        for nbrs in K.adjacency:
            assert not any(hasattr(nbrs, name) for name in mutators)
            key = next(iter(nbrs))
            with pytest.raises(TypeError):  # the view's map is read-only too
                nbrs.mapping[key] = key
            nbrs |= {K.n}
            nbrs -= {key}
        assert [dict(K.rotation(v)) for v in range(K.n)] == before
        assert all(K.adjacency[v] == K.neighbors(v) for v in range(K.n))


def test_oracle_and_verifier_do_not_use_trusted_path(monkeypatch, s7):
    cert = fs.reduce_to_octahedron(s7)

    def refuse(n, succ):
        raise AssertionError("trusted constructor called")

    monkeypatch.setattr(sphere, "_from_rotation", refuse)
    with pytest.raises(AssertionError):
        fs.split_vertex(s7, fs.SplitSpec(0, 1, 4))
    with pytest.raises(AssertionError):
        fs.contract(s7, cert.steps[0].edge)
    assert fs.verify_certificate(cert)
    assert [K.n for K in fs.enumerate_all_spheres(8)].count(8) == 14
