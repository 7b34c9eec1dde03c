"""Spheres pickle and copy as their rotation, however they were built.

Every sphere goes through ``pickle`` at protocols 0-5, ``copy.copy`` and
``copy.deepcopy``.  Each copy is the same value, with the same rotation
order and the same canonical form and automorphisms, and no copy sorts
its faces before they are read.  The file imports no pytest, so its
checks also run as a plain script on interpreters without it.
"""

import copy
import pickle

import flagsphere as fs
from test_lazy_faces import all_splits, faces_read

COPIES = {
    **{f"pickle {p}": (lambda K, p=p: pickle.loads(pickle.dumps(K, p))) for p in range(6)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def rotations(K):
    return [list(K.rotation(v).items()) for v in range(K.n)]


def check_copies(K):
    """Copy ``K`` every way, twice; by the second time its faces are read."""
    for _ in range(2):
        read = faces_read(K)
        twins = {name: dup(K) for name, dup in COPIES.items()}
        assert faces_read(K) == read
        assert not any(map(faces_read, twins.values()))
        rot, form, group = rotations(K), fs.canonical_form(K), fs.canonical_automorphisms(K)
        for name, twin in twins.items():
            assert twin is not K, name
            assert rotations(twin) == rot, name
            assert twin == K and K == twin and hash(twin) == hash(K), name
            assert twin.faces == K.faces and twin.n_faces == K.n_faces, name
            assert fs.canonical_form(twin) == form, name
            assert fs.canonical_automorphisms(twin) == group, name
        assert faces_read(K)


def test_spheres_from_faces_copy_as_their_rotation(corpus9):
    spheres = [fs.tetrahedron(), fs.octahedron()]
    for K in corpus9[::6]:
        spheres += [
            fs.from_faces(K.n, K.faces),
            fs.parse_tri(fs.dump_tri(K)),
            fs.sphere_from_form(fs.canonical_form(K)),
        ]
    assert len(spheres) == 2 + 3 * 13
    for K in spheres:
        assert faces_read(K)
        check_copies(K)


def test_splits_and_contractions_copy_unread(corpus9):
    count = 0
    for K in corpus9[::24]:
        for spec in all_splits(K):
            check_copies(fs.split_vertex(K, spec))
            count += 1
        for e in K.edges:
            if fs.link_condition(K, e):
                check_copies(fs.contract(K, e))
                check_copies(fs.contract_mapped(K, e)[0])
                count += 2
    assert count == 274 + 2 * 33


def test_reduction_ends_copy_unread(flag_corpus10, random_flag_sphere):
    for K in list(flag_corpus10[::4]) + [random_flag_sphere(1, 30)]:
        end = fs.reduce_to_octahedron(K).end
        assert not faces_read(end)
        check_copies(end)


def test_certificates_round_trip_and_verify(random_flag_sphere):
    cert = fs.reduce_to_octahedron(random_flag_sphere(2, 40))
    text = fs.certificate_to_json(cert)
    back = fs.certificate_from_json(text)
    check_copies(back.start)
    check_copies(back.end)
    for source in (cert, back):
        for p in range(6):
            twin = pickle.loads(pickle.dumps(source, p))
            assert twin == source and twin.steps == source.steps, p
            assert fs.verify_certificate(twin).ok, p
            assert fs.certificate_to_json(twin) == text, p
