"""The automorphism group read off the canonical-form search, and the
orbit pruning of ``build`` that relies on it.

The group is checked against ``brute_automorphism_count``, a bijection
search in the oracle that shares no code with ``canonical``, and against
``tying_permutations``, an exhaustive start search written here; pruning
is checked against a rebuild that canonicalises every child.
"""

import random
from collections import deque

import flagsphere as fs
from flagsphere import hasse


def assert_group(K, faces):
    """``canonical_automorphisms(K)`` is the whole group of the face set ``faces``."""
    group = fs.canonical_automorphisms(K)
    assert group[0] == tuple(range(K.n))
    assert len(set(group)) == len(group) == fs.brute_automorphism_count(K)
    face_set = set(faces)
    for p in group:
        assert {tuple(sorted(p[v] for v in f)) for f in faces} == face_set
    return group


def tying_permutations(K):
    """The group read off an exhaustive search over all 4E starts.

    Every directed edge u->v in both rotations labels the sphere
    breadth-first (each dequeued vertex labels its unlabeled neighbours
    in rotation order, after the one that discovered it); the labelings
    whose sorted relabeled face list is least map the sphere onto one
    representative, and ``p[first[x]] = label[x]`` over them is its group.
    """
    best, ties = None, []
    for reverse in (False, True):
        rot = [K.rotation(x, reverse) for x in range(K.n)]
        for u in range(K.n):
            for v in rot[u]:
                label = {u: 0, v: 1}
                queue = deque([(u, v), (v, u)])
                while queue:
                    x, t = queue.popleft()
                    for _ in range(len(rot[x]) - 1):
                        t = rot[x][t]
                        if t not in label:
                            label[t] = len(label)
                            queue.append((t, x))
                code = sorted(sorted(label[y] for y in f) for f in K.faces)
                if best is None or code < best:
                    best, ties = code, []
                if code == best:
                    ties.append(label)
    first = ties[0]
    perms = set()
    for label in ties:
        p = [0] * K.n
        for x in range(K.n):
            p[first[x]] = label[x]
        perms.add(tuple(p))
    return perms


def assert_group_matches_search(K):
    group = fs.canonical_automorphisms(K)
    assert group[0] == tuple(range(K.n))
    assert len(set(group)) == len(group)
    assert set(group) == tying_permutations(K)
    if K.n <= 9:
        assert len(group) == fs.brute_automorphism_count(K)


def test_group_matches_exhaustive_search(corpus10, graph11, sphere24):
    for K in corpus10:
        assert_group_matches_search(K)
    for node in graph11.nodes.values():
        assert_group_matches_search(node.sphere)
    assert_group_matches_search(sphere24)


def test_group_matches_brute_count_on_corpus9(corpus9):
    orders = set()
    for K in corpus9:
        orders.add(len(assert_group(K, fs.canonical_sphere(K).faces)))
    assert {1, 2, 24, 48} <= orders


def test_group_of_graph11_nodes(graph11, relabel):
    rng = random.Random(11)
    for node in graph11.nodes.values():
        if node.n > 9:
            continue
        group = assert_group(node.sphere, node.sphere.faces)
        # a relabeled copy reports the same group, in canonical labels:
        # build reads a new node's group off the child that found it
        perm = list(range(node.n))
        rng.shuffle(perm)
        assert set(fs.canonical_automorphisms(relabel(node.sphere, perm))) == set(group)


def test_orbit_pruning_drops_no_arc(monkeypatch):
    splits = []

    def counted(K, spec):
        splits.append(spec)
        return fs.split_vertex(K, spec)

    monkeypatch.setattr(hasse, "split_vertex", counted)
    G = fs.build(12)
    assert len(splits) == 892

    start = fs.canonical_sphere(fs.octahedron())
    nodes = {fs.canonical_form(start): start}
    arcs = set()
    frontier = list(nodes)
    for _ in range(6, 12):
        nxt = []
        for parent in frontier:
            for _, child in fs.flag_expansions(nodes[parent]):
                cf = fs.canonical_form(child)
                if cf not in nodes:
                    nodes[cf] = fs.sphere_from_form(cf)
                    nxt.append(cf)
                arcs.add((parent, cf))
        frontier = nxt
    assert G.arcs == arcs
    assert list(G.nodes) == list(nodes)
