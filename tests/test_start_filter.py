"""The canonical search's start list, pinned against a literal reading.

On a flag sphere every edge's only common neighbours are its two
apexes, so the start filter keeps, of the starts u->v (forward, then
mirrored) at the roots u of least degree, exactly those of least
(deg v, deg a), where a is the vertex labeled 2: v's successor round u,
or its predecessor for the mirrored start.
"""

import random

import pytest

import flagsphere as fs
from flagsphere import canonical
from test_canonical import assert_search_matches_plain_search, shuffled


def reference_starts(K):
    """Least-degree roots, then least (deg v, deg a), read from ``rotation``/``adjacency``."""
    deg = [len(a) for a in K.adjacency]
    d = min(deg)
    starts = []
    for u in range(K.n):
        if deg[u] != d:
            continue
        for v in K.rotation(u):
            for mirror in (False, True):
                a = K.rotation(u, reverse=mirror)[v]
                starts.append(((deg[v], deg[a]), (mirror, u, v)))
    least = min(key for key, _ in starts)
    return [start for key, start in starts if key == least]


def assert_starts_match_reference(spheres):
    count = 0
    for K in spheres:
        assert fs.is_flag(K), K
        assert canonical._starts(K) == reference_starts(K), K
        count += 1
    assert count


def test_starts_match_reference_on_graph11_nodes(graph11):
    assert_starts_match_reference(node.sphere for node in graph11.nodes.values())


def test_starts_match_reference_on_flag_corpus(flag_corpus10):
    assert_starts_match_reference(flag_corpus10)


def test_starts_match_reference_on_splits_of_n11_nodes(graph11):
    parents = [node.sphere for node in graph11.nodes.values() if node.n == 11]
    assert len(parents) == 25
    assert_starts_match_reference(
        fs.split_vertex(K, spec) for K in parents for spec in fs.flag_splits(K)
    )


@pytest.mark.parametrize("seed,n", [(1, 30), (2, 47), (3, 64), (4, 81), (5, 100)])
def test_starts_match_reference_on_relabeled_flag_spheres(random_flag_sphere, relabel, seed, n):
    K = random_flag_sphere(seed, n)
    rng = random.Random(seed)
    assert_starts_match_reference([K] + [shuffled(K, relabel, rng) for _ in range(3)])


def test_start_count_over_corpus(corpus10):
    """Non-flag spheres included: 1476 starts over the 306 classes with n <= 10."""
    assert len(corpus10) == 306
    assert sum(len(canonical._starts(K)) for K in corpus10) == 1476


def test_mixed_sphere_search_matches_plain_search(sphere24, relabel):
    """sphere24's root edge 0-1 has a third common neighbour, so every root
    start is tried, and the search reaches the plain search's least code
    and ties."""
    assert_search_matches_plain_search(sphere24)
    rng = random.Random(24)
    for _ in range(20):
        assert_search_matches_plain_search(shuffled(sphere24, relabel, rng))
