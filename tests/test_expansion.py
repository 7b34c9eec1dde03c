import pytest

import flagsphere as fs
from flagsphere.sphere import _split

S7_FACES = {
    (0, 1, 2),
    (0, 2, 4),
    (3, 4, 6),
    (1, 3, 6),
    (0, 1, 6),
    (0, 4, 6),
    (1, 2, 5),
    (2, 4, 5),
    (3, 4, 5),
    (1, 3, 5),
}


def test_split_octahedron_fixture(octa):
    s7 = fs.split_vertex(octa, fs.SplitSpec(0, 1, 4))
    assert set(s7.faces) == S7_FACES
    assert s7.n == 7
    assert fs.is_flag(s7)


def test_split_junction_order_does_not_matter(octa):
    assert fs.split_vertex(octa, fs.SplitSpec(0, 4, 1)) == fs.split_vertex(
        octa, fs.SplitSpec(0, 1, 4)
    )


def test_split_then_contract_round_trip(flag_corpus10):
    for K in flag_corpus10:
        if K.n > 8:
            continue
        for spec, child in fs.flag_expansions(K):
            assert child.n == K.n + 1
            assert child.has_edge(spec.w, K.n)
            assert fs.contract(child, (spec.w, K.n)) == K


def test_split_spec_validation(octa):
    with pytest.raises(fs.BadSplitSpec):
        fs.split_vertex(octa, fs.SplitSpec(9, 0, 1))
    with pytest.raises(fs.BadSplitSpec):
        fs.split_vertex(octa, fs.SplitSpec(0, 1, 1))
    with pytest.raises(fs.BadSplitSpec):
        fs.split_vertex(octa, fs.SplitSpec(0, 1, 5))  # 5 not a neighbor of 0
    # booleans compare equal to 0 and 1 but are not vertices
    with pytest.raises(fs.BadSplitSpec):
        fs.split_vertex(octa, fs.SplitSpec(0, True, 4))
    with pytest.raises(fs.BadSplitSpec):
        fs.split_vertex(octa, fs.SplitSpec(False, 1, 4))


def test_adjacent_split_creates_degree3(octa):
    # 1 and 2 are adjacent on the link cycle of 0
    out = fs.split_vertex(octa, fs.SplitSpec(0, 1, 2))
    assert out.n == 7
    assert min(out.degree(v) for v in range(7)) == 3
    assert not fs.is_flag(out)


def test_diagonal_count_identity():
    for k in range(4, 65):
        assert sum(i + 2 for i in range(k - 3)) == fs.diagonal_count(k)
    assert fs.diagonal_count(4) == 2
    assert fs.diagonal_count(5) == 5


def test_expansion_bounds(octa, s7):
    assert fs.expansion_bound(octa) == 12
    assert fs.expansion_bound(s7) == 20


def test_octahedron_expansions_all_isomorphic(octa):
    expansions = fs.flag_expansions(octa)
    assert len(expansions) == 12
    forms = {fs.canonical_form(child) for _, child in expansions}
    assert len(forms) == 1


def test_expansion_count_equals_bound(flag_corpus10):
    for K in flag_corpus10:
        assert len(fs.flag_expansions(K)) == fs.expansion_bound(K)


def test_expansions_reject_non_flag(tetra, bipyramid):
    with pytest.raises(fs.NotFlag):
        fs.flag_expansions(tetra)
    with pytest.raises(fs.NotFlag):
        fs.flag_expansions(bipyramid)


def test_expansion_specs_are_link_diagonals(s7):
    for spec, _ in fs.flag_expansions(s7):
        cyc = s7.link_cycle(spec.w)
        i, j = sorted((cyc.index(spec.a), cyc.index(spec.b)))
        assert j - i >= 2 and not (i == 0 and j == len(cyc) - 1)


def test_flag_splits_build_no_child(s7, monkeypatch):
    want = [spec for spec, _ in fs.flag_expansions(s7)]

    def refuse(*args):
        raise AssertionError("flag_splits built a child")

    monkeypatch.setattr(fs.expansion, "_split", refuse)
    assert list(fs.flag_splits(s7)) == want


def test_flag_splits_reject_non_flag_at_the_call(tetra, bipyramid):
    for K in (tetra, bipyramid):
        with pytest.raises(fs.NotFlag):
            fs.flag_splits(K)


def test_the_kept_arc_only_names_the_split_ends(graph11, relabel):
    # _split(K, w, a, b) keeps the arc a..b at w; _split(K, w, b, a) keeps
    # the other arc there.  The two children differ only by the names of w
    # and the new vertex, so a child's class does not depend on the choice.
    count = 0
    for node in graph11.nodes.values():
        K = node.sphere
        if K.n > 10:
            continue
        for spec in fs.flag_splits(K):
            w, a, b = spec.w, spec.a, spec.b
            swap = [K.n if x == w else w if x == K.n else x for x in range(K.n + 1)]
            one, other = _split(K, w, a, b), _split(K, w, b, a)
            assert relabel(one, swap) == other
            assert fs.split_vertex(K, spec) in (one, other)
            count += 1
    assert count == 719
