import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagsphere as fs
from flagsphere import canonical

OCTAHEDRON_FORM_HEX = "d0d52e084703f5de0e9ae69e38ca6a1c878aa4d4fb386d44747afc82914b785e"
# search_digest of the graph11 nodes (in node order) and of corpus10
GRAPH11_SEARCH_DIGEST = "720039ab395954e668281f8d7395230ad12e31b8f5332904f0dd3dd75642f106"
CORPUS10_SEARCH_DIGEST = "fbed3d97b4be070cc5e7b1b90777612594c9a9951063db9967ba9aabaff1cc50"


def reference_form(K):
    """Exhaustive minimiser: every directed edge, both rotations, full codes.

    Shares no code with the pruned search in ``flagsphere.canonical``; the
    forms must agree byte for byte.
    """
    n = K.n
    rotations = [[K.rotation(x, reverse) for x in range(n)] for reverse in (False, True)]
    best = None
    for a, b in K.edges:
        for u, v in ((a, b), (b, a)):
            for rot in rotations:
                label = [-1] * n
                label[u], label[v] = 0, 1
                order = [u, v]
                ref = {u: v, v: u}
                for x in order:
                    t = ref[x]
                    for _ in range(len(rot[x]) - 1):
                        t = rot[x][t]
                        if label[t] < 0:
                            label[t] = len(order)
                            ref[t] = x
                            order.append(t)
                code = sorted(tuple(sorted(label[w] for w in f)) for f in K.faces)
                if best is None or code < best:
                    best = code
    flat = [n, len(best)] + [x for f in best for x in f]
    return b"".join(x.to_bytes(4, "big") for x in flat)


def search_digest(spheres):
    """sha256 over each sphere's form, group order and automorphisms, in order."""
    h = hashlib.sha256()
    for K in spheres:
        group = fs.canonical_automorphisms(K)
        h.update(fs.canonical_form(K) + len(group).to_bytes(4, "big"))
        for p in group:
            h.update(bytes(p))
    return h.hexdigest()


def stacked_sphere(n, seed):
    """Grow from the tetrahedron by inserting each new vertex into a random face."""
    rng = random.Random(seed)
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for w in range(4, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, w), (a, c, w), (b, c, w)]
    return fs.from_faces(n, faces)


def shuffled(K, relabel, rng):
    perm = list(range(K.n))
    rng.shuffle(perm)
    return relabel(K, perm)


def test_form_is_relabeling_invariant(octa, s7, relabel):
    rng = random.Random(11)
    for K in (octa, s7):
        base = fs.canonical_form(K)
        for _ in range(20):
            perm = list(range(K.n))
            rng.shuffle(perm)
            assert fs.canonical_form(relabel(K, perm)) == base


def test_forms_separate_classes(octa, s7, tetra, bipyramid):
    forms = {fs.canonical_form(K) for K in (octa, s7, tetra, bipyramid)}
    assert len(forms) == 4


def test_forms_separate_whole_corpus(corpus10):
    forms = {fs.canonical_form(K) for K in corpus10}
    assert len(forms) == len(corpus10)


def test_encode_decode_round_trip(s7):
    form = fs.canonical_form(s7)
    n, faces = fs.decode_form(form)
    assert n == 7
    assert len(faces) == 10
    assert fs.encode_face_set(n, faces) == form


def test_decode_rejects_garbage():
    with pytest.raises(fs.FormatError):
        fs.decode_form(b"")
    with pytest.raises(fs.FormatError):
        fs.decode_form(b"\x00\x00\x00\x07")
    with pytest.raises(fs.FormatError):
        fs.decode_form(fs.canonical_form(fs.octahedron())[:-4])


def test_canonical_sphere_is_stable(s7):
    rep = fs.canonical_sphere(s7)
    assert fs.isomorphic(rep, s7)
    assert fs.canonical_form(rep) == fs.canonical_form(s7)
    assert fs.canonical_sphere(rep) == rep
    assert fs.sphere_from_form(fs.canonical_form(s7)) == rep


def test_form_hex(octa, s7):
    hx = fs.form_hex(fs.canonical_form(octa))
    assert len(hx) == 64
    assert set(hx) <= set("0123456789abcdef")
    assert hx != fs.form_hex(fs.canonical_form(s7))


def test_isomorphic_examples(octa, s7, relabel):
    assert fs.isomorphic(octa, relabel(octa, [2, 4, 0, 5, 1, 3]))
    assert not fs.isomorphic(octa, s7)


def test_isomorphic_agrees_with_brute_on_small_corpus(corpus10, relabel):
    small = [K for K in corpus10 if K.n <= 7]
    rng = random.Random(5)
    for A in small:
        for B in small:
            assert fs.isomorphic(A, B) == fs.brute_isomorphic(A, B)
        perm = list(range(A.n))
        rng.shuffle(perm)
        image = relabel(A, perm)
        assert fs.isomorphic(A, image) and fs.brute_isomorphic(A, image)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_relabelings_share_form(random_sphere, relabel, seed):
    rng = random.Random(seed)
    K = random_sphere(seed, rng.randrange(6, 11))
    perm = list(range(K.n))
    rng.shuffle(perm)
    assert fs.canonical_form(relabel(K, perm)) == fs.canonical_form(K)


def test_octahedron_form_is_pinned(octa):
    assert fs.form_hex(fs.canonical_form(octa)) == OCTAHEDRON_FORM_HEX


def test_forms_match_reference_on_corpus(corpus10):
    for K in corpus10:
        assert fs.canonical_form(K) == reference_form(K)


def test_forms_match_reference_on_graph11_and_relabelings(graph11, relabel):
    rng = random.Random(23)
    for node in graph11.nodes.values():
        assert reference_form(node.sphere) == node.form
        image = shuffled(node.sphere, relabel, rng)
        assert fs.canonical_form(image) == reference_form(image) == node.form


@pytest.mark.parametrize("seed,n", [(1, 31), (2, 44), (3, 52), (4, 60)])
def test_forms_match_reference_on_larger_non_flag_spheres(random_sphere, seed, n):
    K = random_sphere(seed, n)
    assert not fs.is_flag(K)
    assert fs.canonical_form(K) == reference_form(K)


def test_form_above_1024_vertices_is_invariant_and_round_trips(relabel):
    K = stacked_sphere(1100, 2)
    form = fs.canonical_form(K)
    assert fs.canonical_form(shuffled(K, relabel, random.Random(2))) == form
    rep = fs.sphere_from_form(form)
    assert rep.n == 1100
    assert fs.canonical_form(fs.from_faces(rep.n, rep.faces)) == form


def test_starts_keep_edges_with_extra_common_neighbours(sphere24, relabel):
    """A root edge with a third common neighbour can beat a smaller-degree head.

    The start filter drops a start u->v only when uv's common neighbours
    are exactly its two apexes and a start with a smaller deg v exists;
    a filter on deg v alone gives a different (wrong) form here.
    """
    K = sphere24
    adj = K.adjacency
    d = min(map(len, adj))
    assert d == 5 and len(adj[0]) == d
    assert adj[0] & adj[1] == {2, 3, 4}
    assert not fs.is_flag(K)
    form = reference_form(K)
    assert fs.canonical_form(K) == form
    rng = random.Random(24)
    for _ in range(20):
        image = shuffled(K, relabel, rng)
        assert fs.canonical_form(image) == reference_form(image) == form


def test_starts_keep_label_2_edges_with_extra_common_neighbours(relabel):
    """Of the starts with least deg v, only those of least deg a can win,
    a = rot[u][v] labeled 2, provided ua and va have only their apexes as
    common neighbours.  Without that proviso the filter drops a winner
    here: the smallest such sphere, n = 7, degrees 3,3,3,5,5,5,6.
    """
    faces = [(0, 2, 5), (0, 2, 6), (0, 5, 6), (1, 4, 5), (1, 4, 6),
             (1, 5, 6), (2, 3, 4), (2, 3, 6), (2, 4, 5), (3, 4, 6)]
    K = fs.from_faces(7, faces)
    assert sorted(map(len, K.adjacency)) == [3, 3, 3, 5, 5, 5, 6]
    form = reference_form(K)
    assert fs.canonical_form(K) == form
    rng = random.Random(7)
    for _ in range(20):
        image = shuffled(K, relabel, rng)
        assert fs.canonical_form(image) == reference_form(image) == form


def test_starts_keep_label_2_starts_whose_ua_has_a_third_common_neighbour(sphere23):
    """The deg a rule asks ua to be clean too, not only uv and va.

    The start 0->4 labels a = 1 with 2; 0-4 and 4-1 are clean but 0-1 has
    a third common neighbour, 2, so the start is kept whatever deg a is.
    With uv and va clean this needs u on a separating triangle u-a-z with
    neighbours of u on both sides, so deg u = 5 and no sphere of minimum
    degree below 5 has such a start.
    """
    K = sphere23
    adj = K.adjacency
    assert min(map(len, adj)) == 5 and len(adj[0]) == 5
    assert K.rotation(0)[4] == 1
    assert adj[0] & adj[4] == {1, 5} and len(adj[4] & adj[1]) == 2
    assert adj[0] & adj[1] == {2, 3, 4}
    assert (False, 0, 4) in canonical._starts(K)
    assert_search_matches_plain_search(K)


def test_search_results_are_pinned(graph11, corpus10):
    """Forms and automorphism tuples, in order, are pinned: a start filter may
    drop only starts that can neither win nor tie, so it changes neither."""
    assert search_digest(node.sphere for node in graph11.nodes.values()) == GRAPH11_SEARCH_DIGEST
    assert search_digest(corpus10) == CORPUS10_SEARCH_DIGEST


def plain_min_code(K):
    """The least code and the set of labelings that reach it, by plain search.

    Every start from a minimum-degree root, in both directions, the
    mirror one through ``K.rotation(x, reverse=True)``, each walked over
    all n vertices with no start rule and no early stop.
    """
    n = K.n
    d = min(map(len, K.adjacency))
    rotations = [[K.rotation(x, reverse) for x in range(n)] for reverse in (False, True)]
    best, ties = None, set()
    for u in range(n):
        if len(K.adjacency[u]) != d:
            continue
        for v in K.rotation(u):
            for rot in rotations:
                label = [-1] * n
                label[u], label[v] = 0, 1
                order = [u, v]
                ref = {u: v, v: u}
                for x in order:
                    t = ref[x]
                    for _ in range(len(rot[x]) - 1):
                        t = rot[x][t]
                        if label[t] < 0:
                            label[t] = len(order)
                            ref[t] = x
                            order.append(t)
                code = sorted(tuple(sorted(label[w] for w in f)) for f in K.faces)
                if best is None or code < best:
                    best, ties = code, set()
                if code == best:
                    ties.add(tuple(label))
    return best, ties


def assert_search_matches_plain_search(K):
    code, s, labels = canonical._min_code(K)
    mask = (1 << s) - 1
    best, ties = plain_min_code(K)
    assert [(c >> 2 * s, c >> s & mask, c & mask) for c in code] == best
    for label in labels:
        assert sorted(label) == list(range(K.n))
    assert len(labels) == len(ties)
    assert {tuple(label) for label in labels} == ties


def test_mirror_walk_reads_the_forward_rotation(corpus10):
    """The orientation is consistent, so t's predecessor round x is rot[t][x]."""
    for K in corpus10:
        for x in range(K.n):
            for t, p in K.rotation(x, reverse=True).items():
                assert K.rotation(t)[x] == p


def test_search_matches_plain_search_on_corpus_and_graph11(corpus10, graph11):
    for K in corpus10:
        assert_search_matches_plain_search(K)
    for node in graph11.nodes.values():
        assert_search_matches_plain_search(node.sphere)


@pytest.mark.parametrize("seed,n", [(1, 30), (2, 47), (3, 64), (4, 81), (5, 100)])
def test_search_matches_plain_search_on_relabeled_flag_spheres(
    random_flag_sphere, relabel, seed, n
):
    K = shuffled(random_flag_sphere(seed, n), relabel, random.Random(seed))
    assert_search_matches_plain_search(K)
