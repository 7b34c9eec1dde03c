import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagsphere as fs

# 7-vertex torus: 2-neighborly, every vertex link a 6-cycle, Euler char 0
TORUS_FACES = [((i) % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    ((i) % 7, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]

# 6-vertex real projective plane: every link a 5-cycle, Euler char 1
RP2_FACES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
]


def test_tetrahedron_counts(tetra):
    assert (tetra.n, tetra.n_edges, tetra.n_faces) == (4, 6, 4)
    assert tetra.r_vector() == {3: 4}


def test_octahedron_structure(octa):
    assert (octa.n, octa.n_edges, octa.n_faces) == (6, 12, 8)
    assert octa.r_vector() == {4: 6}
    for u, v in ((0, 5), (1, 4), (2, 3)):
        assert not octa.has_edge(u, v)
    assert octa.link_cycle(0) == (1, 2, 4, 3)


def test_link_cycles(tetra, s7):
    assert tetra.link_cycle(0) == (1, 2, 3)
    cyc = s7.link_cycle(1)
    assert len(cyc) == 5
    assert set(cyc) == {0, 2, 3, 5, 6}


def test_s7_r_vector(s7):
    assert s7.r_vector() == {4: 5, 5: 2}


def test_link_cycle_normalization(corpus9):
    for K in corpus9:
        for v in range(K.n):
            cyc = K.link_cycle(v)
            assert len(cyc) == K.degree(v)
            assert len(set(cyc)) == len(cyc)
            assert cyc[0] == min(cyc)
            if len(cyc) >= 3:
                assert cyc[1] < cyc[-1]


def test_rotation_consistency(octa):
    succ = octa.rotation(0)
    pred = octa.rotation(0, reverse=True)
    cyc = octa.link_cycle(0)
    for i, v in enumerate(cyc):
        nxt = cyc[(i + 1) % len(cyc)]
        assert succ[v] == nxt or pred[v] == nxt


def test_rotation_is_one_stored_orientation(corpus9):
    for K in corpus9:
        for v in range(K.n):
            succ = K.rotation(v)
            pred = K.rotation(v, reverse=True)
            assert {w: u for u, w in pred.items()} == succ
            assert len(pred) == len(succ) == K.degree(v)
            cyc = K.link_cycle(v)
            walk = [cyc[0]]
            for _ in range(len(cyc) - 1):
                walk.append(succ[walk[-1]])
            assert tuple(walk) in (cyc, cyc[:1] + cyc[:0:-1])


def test_counting_identities(corpus9):
    for K in corpus9:
        assert K.n - K.n_edges + K.n_faces == 2
        assert 3 * K.n_faces == 2 * K.n_edges
        assert K.n_edges == 3 * K.n - 6
        assert sum(k * c for k, c in K.r_vector().items()) == 2 * K.n_edges


def test_face_order_insensitive(s7):
    faces = list(s7.faces)
    random.Random(3).shuffle(faces)
    assert fs.from_faces(7, faces) == s7


def test_rejects_open_disk():
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert exc.value.reason == "edge-degree"


def test_rejects_bad_indices():
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(4, [(0, 1, 2), (0, 1, 9), (0, 2, 9), (1, 2, 9)])
    assert exc.value.reason == "bad-index"
    # vertex 4 never occurs
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(5, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert exc.value.reason == "bad-index"
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(4, [(0, 1, 1), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert exc.value.reason == "bad-index"
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(4, [(0, 1), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert exc.value.reason == "bad-index"
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(4, [("a", 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert exc.value.reason == "bad-index"
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(4, [(0, True, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert exc.value.reason == "bad-index"
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(4, [7, (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert exc.value.reason == "bad-index"


def test_rejects_huge_vertex_count_without_listing_it():
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(100_000_000, [(0, 1, 2)])
    assert exc.value.reason == "bad-index"
    assert "[3, 4, 5, 6, 7] and 99999992 more" in str(exc.value)


def test_rejects_malformed_vertex_count(octa):
    for n in (6.0, "6", None, True, -3):
        with pytest.raises(fs.NotASphere) as exc:
            fs.from_faces(n, octa.faces)
        assert exc.value.reason == "bad-index"
        assert "not a non-negative int" in str(exc.value)
    with pytest.raises(fs.NotASphere) as exc:
        fs.parse_tri("-3\n")
    assert str(exc.value) == "bad-index: vertex count -3 is not a non-negative int"


def test_rejects_duplicate_face():
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(4, [(0, 1, 2), (2, 1, 0), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert exc.value.reason == "duplicate-face"


def test_rejects_pinched_sphere():
    # two tetrahedra sharing vertex 0: every link but 0's is a cycle
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    faces += [(0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)]
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(7, faces)
    assert exc.value.reason == "link-not-cycle"


def test_rejects_torus():
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(7, TORUS_FACES)
    assert exc.value.reason == "euler-fail"


def test_rejects_projective_plane():
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(6, RP2_FACES)
    assert exc.value.reason == "euler-fail"


def test_rejects_two_projective_planes():
    # V-E+F = 12-30+20 = 2, so only face connectivity can reject it; the
    # orientation walk must not fail first on the non-orientable component
    faces = RP2_FACES + [tuple(v + 6 for v in f) for f in RP2_FACES]
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(12, faces)
    assert exc.value.reason == "disconnected"
    assert exc.value.detail == "face graph has 10 unreachable faces"


def test_rejects_disjoint_union():
    # tetrahedron plus a shifted torus: Euler count is 2 overall and every
    # local check passes, so only face connectivity can reject it
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    faces += [tuple(v + 4 for v in f) for f in TORUS_FACES]
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(11, faces)
    assert exc.value.reason == "disconnected"



TETRA_FACES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_link_check_precedes_connectivity():
    # a tetrahedron glued to torus vertex 0 and another to torus vertex 1:
    # V-E+F = 13-33+22 = 2, so the pinched links are the only local defect
    faces = list(TORUS_FACES)
    faces += [tuple(0 if v == 0 else v + 6 for v in f) for f in TETRA_FACES]
    faces += [tuple(1 if v == 0 else v + 9 for v in f) for f in TETRA_FACES]
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(13, faces)
    assert str(exc.value) == "link-not-cycle: link of vertex 0 is not a single cycle"


def test_link_check_covers_vertices_unreached_from_face_0():
    # a tetrahedron on 0..3 and, apart from it, two tetrahedra pinched at 4
    faces = list(TETRA_FACES)
    faces += [tuple(4 if v == 0 else v + 4 for v in f) for f in TETRA_FACES]
    faces += [tuple(4 if v == 0 else v + 7 for v in f) for f in TETRA_FACES]
    with pytest.raises(fs.NotASphere) as exc:
        fs.from_faces(11, faces)
    assert str(exc.value) == "link-not-cycle: link of vertex 4 is not a single cycle"


def test_rejection_messages_are_pinned(octa):
    # one input per reason code and per bad-index variant, with the full text
    tail = TETRA_FACES[1:]
    pinch = [tuple(v + 3 if v else 0 for v in f) for f in TETRA_FACES]
    cases = [
        (6.0, octa.faces, "bad-index: vertex count 6.0 is not a non-negative int"),
        (4, [7] + tail, "bad-index: face 7 is not a vertex triple"),
        (4, [("a", 1, 2)] + tail, "bad-index: face ('a', 1, 2) has a non-integer vertex"),
        (4, [(0, True, 2)] + tail, "bad-index: face (0, True, 2) has a non-integer vertex"),
        (4, [(0, 1)] + tail, "bad-index: face (0, 1) is not 3 distinct vertices"),
        (4, [[0, 1, 2, 3]] + tail, "bad-index: face (0, 1, 2, 3) is not 3 distinct vertices"),
        (4, [(0, 1, 1)] + tail, "bad-index: face (0, 1, 1) is not 3 distinct vertices"),
        (4, TETRA_FACES[:3] + [(1, 2, 9)], "bad-index: face (1, 2, 9) out of range 0..3"),
        (4, [(2, -1, 0)] + tail, "bad-index: face (-1, 0, 2) out of range 0..3"),
        (5, TETRA_FACES, "bad-index: vertices [4] occur in no face"),
        (11, TETRA_FACES, "bad-index: vertices [4, 5, 6, 7, 8] and 2 more occur in no face"),
        (4, [(2, 1, 0)] + TETRA_FACES,
         "duplicate-face: face (0, 1, 2) given more than once"),
        (4, tail, "edge-degree: edge {0, 1} lies in 1 faces (expected 2)"),
        (6, list(octa.faces) + [(1, 4, 5)],
         "edge-degree: edge {1, 5} lies in 3 faces (expected 2)"),
        (7, TETRA_FACES + pinch, "link-not-cycle: link of vertex 0 is not a single cycle"),
        (7, TORUS_FACES, "euler-fail: V-E+F = 7-21+14 = 0 != 2"),
        (6, RP2_FACES, "euler-fail: V-E+F = 6-15+10 = 1 != 2"),
        (12, RP2_FACES + [tuple(v + 6 for v in f) for f in RP2_FACES],
         "disconnected: face graph has 10 unreachable faces"),
    ]
    for n, faces, message in cases:
        with pytest.raises(fs.NotASphere) as exc:
            fs.from_faces(n, faces)
        assert str(exc.value) == message


@pytest.mark.parametrize("form", [list, iter])
def test_rejection_messages_hold_for_list_and_iterator_faces(octa, monkeypatch, form):
    # the pinned cases again, with each tuple face handed over as ``form(face)``
    from_faces, calls = fs.from_faces, []

    def reformed(n, faces):
        calls.append(n)
        return from_faces(n, [form(f) if type(f) is tuple else f for f in faces])

    monkeypatch.setattr(fs, "from_faces", reformed)
    test_rejection_messages_are_pinned(octa)
    assert len(calls) == 18


def test_every_face_form_takes_one_path(corpus9, graph11, random_flag_sphere):
    # tuples, lists and one-shot iterators give the same faces and the same
    # rotation maps, entry order included
    rng = random.Random(28)
    spheres = [(K.n, K.faces) for K in corpus9]
    spheres += [fs.decode_form(form) for form in graph11.nodes]
    spheres += [(K.n, K.faces) for K in (random_flag_sphere(1, 100), random_flag_sphere(2, 200))]
    for n, faces in spheres:
        faces = [rng.sample(f, 3) for f in faces]
        rng.shuffle(faces)
        first, *rest = (fs.from_faces(n, [form(f) for f in faces]) for form in (tuple, list, iter))
        for K in rest:
            assert K.faces == first.faces
            for v in range(n):
                assert list(K.rotation(v).items()) == list(first.rotation(v).items())


def test_from_faces_orients_face_0_as_sorted(corpus9, random_sphere):
    grown = [random_sphere(seed, n) for seed, n in ((1, 12), (2, 30), (3, 60))]
    for K in corpus9 + grown:
        K = fs.from_faces(K.n, K.faces)
        a, b, c = K.faces[0]
        assert K.rotation(a)[b] == c
        succ = [K.rotation(v) for v in range(K.n)]
        for x in range(K.n):
            for y, z in succ[x].items():
                assert succ[y][z] == x

def test_bad_vertex_accessors(octa):
    with pytest.raises(fs.BadVertex):
        octa.link_cycle(6)
    with pytest.raises(fs.BadVertex):
        octa.degree(-1)
    with pytest.raises(fs.BadVertex):
        octa.neighbors(17)
    with pytest.raises(fs.BadVertex):  # from_faces rejects booleans too
        octa.neighbors(True)
    # has_edge and has_face reject non-int vertices that compare equal to ints
    for u, v in ((True, 2), (1.0, 2), (2, True), ("1", 2), (None, 2)):
        with pytest.raises(fs.BadVertex):
            octa.has_edge(u, v)
    for face in ((True, 2, 0), (0, 1.0, 2), (0, 2, "4"), [0, 1, None]):
        with pytest.raises(fs.BadVertex):
            octa.has_face(face)
    assert octa.has_edge(1, 2) and octa.has_face([2, 0, 1])
    assert not octa.has_edge(1, 6) and not octa.has_edge(-1, 2)
    assert not octa.has_face((0, 1, 6))


def test_tri_round_trip(octa, s7, tetra):
    for K in (octa, s7, tetra):
        assert fs.parse_tri(fs.dump_tri(K)) == K


def test_tri_dump_format(octa):
    text = fs.dump_tri(octa)
    lines = text.splitlines()
    assert lines[0] == "6"
    assert lines[1] == "0 1 2"
    assert len(lines) == 9
    assert text.endswith("\n")


def test_tri_parse_comments_and_blanks(octa):
    text = "c a comment\n\n6\nc another\n" + "\n".join(
        f"{a} {b} {c}" for a, b, c in octa.faces
    )
    assert fs.parse_tri(text) == octa


@pytest.mark.parametrize(
    "text",
    [
        "",
        "c only a comment\n",
        "abc\n0 1 2\n",
        "4\n0 1\n",
        "4\n0 1 2 3\n",
        "4\n0 one 2\n",
    ],
)
def test_tri_parse_rejects(text):
    with pytest.raises(fs.FormatError):
        fs.parse_tri(text)


def test_corpus_round_trip(octa, s7, tetra):
    spheres = [tetra, octa, s7]
    text = fs.dump_corpus(spheres)
    assert fs.parse_corpus(text) == spheres


def test_corpus_separators_may_carry_whitespace_and_crlf(octa, s7, tetra):
    spheres = [tetra, octa, s7]
    text = fs.dump_corpus(spheres)
    for variant in (
        text.replace("\n", "\r\n"),
        text.replace("\n\n", "\n \n"),
        text.replace("\n\n", "\n\t\n"),
        text.replace("\n\n", "\n \t\n\n"),
    ):
        assert fs.parse_corpus(variant) == spheres


def test_equality_and_hash(octa, s7):
    again = fs.from_faces(6, list(octa.faces))
    assert again == octa
    assert hash(again) == hash(octa)
    assert octa != s7
    assert len({octa, again, s7}) == 2


def test_constructor_guard_foreign_equality_and_repr(octa):
    with pytest.raises(TypeError, match="use from_faces"):
        fs.SimplicialSphere(octa.n, octa.faces, [dict(octa.rotation(v)) for v in range(6)])
    assert octa.__eq__("x") is NotImplemented
    assert (octa == "x") is False
    assert repr(octa) == "SimplicialSphere(n=6, faces=8)"


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), target=st.integers(5, 11))
def test_random_spheres_validate(random_sphere, seed, target):
    K = random_sphere(seed, target)
    assert K.n == target
    assert K.n - K.n_edges + K.n_faces == 2
    assert 3 * K.n_faces == 2 * K.n_edges
    assert fs.parse_tri(fs.dump_tri(K)) == K


def test_adjacency_matches_neighbors(s7):
    assert s7.adjacency == tuple(s7.neighbors(v) for v in range(s7.n))
