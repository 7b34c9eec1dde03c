"""The automorphism group read off the canonical-form search, and the
orbit pruning of ``build`` that relies on it.

The group is checked against ``brute_automorphism_count``, a bijection
search in the oracle that shares no code with ``canonical``; pruning is
checked against a rebuild that canonicalises every child.
"""

import random

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
