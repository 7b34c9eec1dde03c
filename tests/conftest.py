import random

import pytest

import flagsphere as fs


@pytest.fixture
def tetra():
    return fs.tetrahedron()


@pytest.fixture
def octa():
    return fs.octahedron()


@pytest.fixture
def bipyramid():
    # apexes 0 and 4, equator 1-2-3
    return fs.from_faces(
        5, [(0, 1, 2), (0, 2, 3), (0, 1, 3), (4, 1, 2), (4, 2, 3), (4, 1, 3)]
    )


@pytest.fixture
def s7(octa):
    return fs.split_vertex(octa, fs.SplitSpec(0, 1, 4))


@pytest.fixture(scope="session")
def corpus10():
    """One representative per sphere class, 4 <= n <= 10."""
    return fs.enumerate_all_spheres(10)


@pytest.fixture(scope="session")
def corpus9(corpus10):
    return [K for K in corpus10 if K.n <= 9]


@pytest.fixture(scope="session")
def flag_corpus10(corpus10):
    return [K for K in corpus10 if fs.is_flag(K)]


@pytest.fixture(scope="session")
def graph11():
    return fs.build(11)


@pytest.fixture(scope="session")
def relabel():
    def apply(K, perm):
        return fs.from_faces(K.n, [tuple(perm[v] for v in f) for f in K.faces])

    return apply


@pytest.fixture(scope="session")
def random_sphere():
    """Grow a sphere from the tetrahedron by seeded unrestricted splits."""

    def grow(seed, target_n):
        rng = random.Random(seed)
        K = fs.tetrahedron()
        while K.n < target_n:
            w = rng.randrange(K.n)
            cyc = K.link_cycle(w)
            a, b = rng.sample(cyc, 2)
            K = fs.split_vertex(K, fs.SplitSpec(w, a, b))
        return K

    return grow


@pytest.fixture(scope="session")
def random_flag_sphere():
    """Grow a flag sphere from the octahedron by seeded link-diagonal splits."""

    def grow(seed, target_n):
        rng = random.Random(seed)
        K = fs.octahedron()
        while K.n < target_n:
            w = rng.randrange(K.n)
            cyc = K.link_cycle(w)
            i, j = sorted(rng.sample(range(len(cyc)), 2))
            if j - i in (1, len(cyc) - 1):  # adjacent junctions leave a degree-3 vertex
                continue
            K = fs.split_vertex(K, fs.SplitSpec(w, cyc[i], cyc[j]))
        return K

    return grow


def _icosahedron_minus(removed, name, first):
    """Icosahedron faces minus ``removed``; vertex x becomes ``name[x]`` or,
    if unnamed, the next new vertex from ``first``.  Top 0, upper ring 1-5,
    lower ring 6-10, bottom 11."""
    upper = [1 + i for i in range(5)]
    lower = [6 + i for i in range(5)]
    faces = []
    for i in range(5):
        j = (i + 1) % 5
        faces += [
            (0, upper[i], upper[j]),
            (upper[i], upper[j], lower[i]),
            (upper[j], lower[i], lower[j]),
            (11, lower[i], lower[j]),
        ]
    for f in removed:
        faces.remove(f)
    name = dict(name)
    for x in range(12):
        if x not in name:
            name[x] = first
            first += 1
    return [tuple(name[x] for x in f) for f in faces]


def _icosahedron_minus_face(a, b, c, first):
    """Icosahedron faces minus one, its boundary on a, b, c, new vertices from ``first``."""
    return _icosahedron_minus([(0, 1, 2)], {0: a, 1: b, 2: c}, first)


def _icosahedron_minus_edge(a, b, p, q, first):
    """Icosahedron faces minus edge ab and its faces abp and abq, so its
    boundary is the 4-cycle a-p-b-q; new vertices from ``first``."""
    return _icosahedron_minus([(0, 1, 2), (0, 5, 1)], {0: a, 1: b, 2: p, 5: q}, first)


@pytest.fixture(scope="session")
def sphere24():
    """An n = 24 non-flag sphere whose min-degree root 0 has an edge 0-1 with
    three common neighbours: 2, 3 and 4.

    Six faces around u, v, w, z, x, y = 0..5 leave the empty triangles
    vxz and wyz; each is capped by an icosahedron minus one face.
    """
    u, v, w, z, x, y = range(6)
    faces = [(u, v, w), (v, z, w), (u, v, x), (u, x, z), (u, w, y), (u, y, z)]
    faces += _icosahedron_minus_face(v, x, z, 6)
    faces += _icosahedron_minus_face(w, y, z, 15)
    return fs.from_faces(24, faces)


@pytest.fixture(scope="session")
def sphere23():
    """An n = 23 sphere of minimum degree 5 where the edge 0-1 at root 0 has
    a third common neighbour, 2: 0-1-2 is a separating triangle.

    Root 0's link is 1, 4, 5, 2, 3.  The quad 1-4-5-2 holds an icosahedron
    minus the edge 4-2 (apexes 5 and 1), and the triangle 1-2-3 an
    icosahedron minus one face.
    """
    faces = [(0, 1, 4), (0, 4, 5), (0, 5, 2), (0, 2, 3), (0, 3, 1)]
    faces += _icosahedron_minus_edge(4, 2, 5, 1, 6)
    faces += _icosahedron_minus_face(1, 2, 3, 14)
    return fs.from_faces(23, faces)
