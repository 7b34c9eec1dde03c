import pytest

import flagsphere as fs

# class counts frozen from the first validated runs of this oracle
ALL_SPHERE_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233}


def _counts(spheres):
    out = {}
    for K in spheres:
        out[K.n] = out.get(K.n, 0) + 1
    return out


def test_brute_belt_examples(octa, tetra, s7):
    assert {b.cycle for b in fs.brute_belts(octa)} == {
        (0, 1, 5, 4),
        (0, 2, 5, 3),
        (1, 2, 4, 3),
    }
    assert fs.brute_belts(tetra) == set()
    assert not any({0, 6} <= b.vertices for b in fs.brute_belts(s7))


def test_brute_is_flag_examples(octa, tetra, bipyramid, s7):
    assert fs.brute_is_flag(octa)
    assert fs.brute_is_flag(s7)
    assert not fs.brute_is_flag(tetra)
    assert not fs.brute_is_flag(bipyramid)


def test_brute_isomorphic_basics(octa, s7, relabel):
    assert fs.brute_isomorphic(octa, relabel(octa, [3, 0, 5, 1, 4, 2]))
    assert not fs.brute_isomorphic(s7, octa)


def test_brute_isomorphic_rejects_same_size_distinct_classes(corpus10):
    reps = [K for K in corpus10 if K.n == 7]
    for i, A in enumerate(reps):
        for B in reps[i + 1 :]:
            assert not fs.brute_isomorphic(A, B)


def test_brute_isomorphic_size_guard(corpus10):
    big = [K for K in corpus10 if K.n == 10]
    with pytest.raises(fs.TooLarge):
        fs.brute_isomorphic(big[0], big[1])


def test_enumerate_smallest_budgets(tetra, bipyramid):
    assert fs.enumerate_all_spheres(4) == [tetra]
    level5 = [K for K in fs.enumerate_all_spheres(5) if K.n == 5]
    assert len(level5) == 1
    assert fs.brute_isomorphic(level5[0], bipyramid)


def test_enumerate_budget_guards():
    with pytest.raises(fs.BudgetTooSmall):
        fs.enumerate_all_spheres(3)
    with pytest.raises(fs.BudgetTooLarge):
        fs.enumerate_all_spheres(12)


def test_enumerate_rejects_non_int_budget():
    for max_n in (5.5, "5", None, 5.0):
        with pytest.raises(fs.BudgetTooSmall):
            fs.enumerate_all_spheres(max_n)


def test_enumerate_counts_frozen(corpus10):
    assert _counts(corpus10) == ALL_SPHERE_COUNTS


def test_enumerate_is_deterministic():
    a = fs.enumerate_all_spheres(7)
    b = fs.enumerate_all_spheres(7)
    assert a == b
    c = fs.enumerate_all_spheres(7, jobs=3)
    assert a == c


def test_corpus_has_no_duplicate_classes(corpus9):
    for i, A in enumerate(corpus9):
        for B in corpus9[i + 1 :]:
            if A.n == B.n:
                assert not fs.brute_isomorphic(A, B)


def test_every_corpus_sphere_descends_from_previous_level(corpus10):
    by_level = {}
    for K in corpus10:
        by_level.setdefault(K.n, set()).add(fs.canonical_form(K))
    for K in corpus10:
        if K.n == 4:
            continue
        parents = set()
        for e in K.edges:
            if fs.link_condition(K, e):
                parents.add(fs.canonical_form(fs.contract(K, e)))
        assert parents
        assert parents <= by_level[K.n - 1]
