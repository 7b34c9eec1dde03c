import pytest

import flagsphere as fs


def test_octahedron_is_flag(octa):
    assert fs.is_flag(octa)
    assert fs.missing_triangles(octa) == ()


def test_tetrahedron_not_flag(tetra):
    # no missing triangle, but the whole vertex set is a 4-clique
    assert fs.missing_triangles(tetra) == ()
    assert not fs.is_flag(tetra)


def test_bipyramid_equator_missing(bipyramid):
    assert fs.missing_triangles(bipyramid) == ((1, 2, 3),)
    assert not fs.is_flag(bipyramid)


def test_octahedron_belts(octa):
    assert [b.cycle for b in fs.belts(octa)] == [
        (0, 1, 5, 4),
        (0, 2, 5, 3),
        (1, 2, 4, 3),
    ]


def test_tetrahedron_has_no_belts(tetra):
    assert fs.belts(tetra) == ()


def test_belt_accessors(octa):
    belt = fs.belts(octa)[0]
    assert belt.vertices == frozenset({0, 1, 4, 5})
    assert belt.sides == ((0, 1), (1, 5), (4, 5), (0, 4))
    assert set(belt.sides) <= set(octa.edges)


def test_every_octahedron_edge_in_exactly_one_belt(octa):
    belts = fs.belts(octa)
    for e in octa.edges:
        assert fs.edge_in_belt(octa, e)
        assert sum(set(e) <= b.vertices for b in belts) == 1
    assert fs.belt_covered_edges(octa) == frozenset(octa.edges)


def test_s7_split_edge_is_belt_free(s7):
    assert s7.has_edge(0, 6)
    assert not fs.edge_in_belt(s7, (0, 6))
    assert set(fs.belts(s7)) == fs.brute_belts(s7)


def test_edge_in_belt_rejects_non_edges(octa):
    with pytest.raises(fs.NotAnEdge):
        fs.edge_in_belt(octa, (0, 5))
    with pytest.raises(fs.NotAnEdge):
        fs.edge_in_belt(octa, (0, 0))
    with pytest.raises(fs.NotAnEdge):
        fs.edge_in_belt(octa, (True, 2))
    with pytest.raises(fs.NotAnEdge):
        fs.edge_in_belt(octa, (0, 1, 2))


def test_belts_match_oracle_on_corpus(corpus10):
    for K in corpus10:
        assert set(fs.belts(K)) == fs.brute_belts(K)


def test_flagness_matches_literal_clique_rule(corpus9):
    for K in corpus9:
        assert fs.is_flag(K) == fs.brute_is_flag(K)


def test_flag_definition_decomposition(corpus9):
    for K in corpus9:
        expected = fs.missing_triangles(K) == () and min(
            K.degree(v) for v in range(K.n)
        ) >= 4
        assert fs.is_flag(K) == expected


def test_degree4_links_of_flag_spheres_are_belts(flag_corpus10):
    for K in flag_corpus10:
        belt_sets = {b.vertices for b in fs.belts(K)}
        for v in range(K.n):
            if K.degree(v) == 4:
                assert frozenset(K.link_cycle(v)) in belt_sets


def test_belt_count_is_isomorphism_invariant(s7, relabel):
    perm = [3, 5, 0, 6, 1, 4, 2]
    image = relabel(s7, perm)
    assert len(fs.belts(image)) == len(fs.belts(s7))
    mapped = {frozenset(perm[v] for v in b.vertices) for b in fs.belts(s7)}
    assert {b.vertices for b in fs.belts(image)} == mapped


def test_flagness_matches_clique_lister_above_n9(random_flag_sphere, sphere23, sphere24):
    # Contracting a belted edge of a flag sphere turns its belt into a
    # missing triangle, so every such contraction is non-flag.  Those of
    # minimum degree 4 or more are decided by the edge clause alone.
    decided_by_edges = 0
    for n in (30, 60, 100, 200):
        K = random_flag_sphere(1, n)
        assert fs.is_flag(K) and fs.clique_is_flag(K)
        for e in sorted(fs.belt_covered_edges(K)):
            C = fs.contract(K, e)
            assert not fs.is_flag(C) and not fs.clique_is_flag(C)
            decided_by_edges += min(map(len, C.adjacency)) >= 4
    assert decided_by_edges > 0
    for K in (sphere23, sphere24):
        assert min(map(len, K.adjacency)) == 5
        assert not fs.is_flag(K) and not fs.clique_is_flag(K)
