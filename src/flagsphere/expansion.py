"""Vertex splitting, the inverse of edge contraction.

Splitting a vertex ``w`` at two of its link-cycle vertices ``a`` and ``b``
replaces ``w`` with an edge ``{w, n}`` (``n`` is the next free label): the
link arc from ``a`` to ``b`` stays attached to ``w``, the complementary arc
goes to the new vertex, and both copies share the two junction faces
``{w, n, a}`` and ``{w, n, b}``.  Contracting ``{w, n}`` in the result
restores the original sphere.

The split preserves flagness exactly when ``a`` and ``b`` are not adjacent
on the link cycle; a degree-``k`` vertex therefore admits ``k*(k-3)/2``
flag-preserving splits, one per diagonal of its link polygon.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import BadSplitSpec
from .flags import _require_flag
from .sphere import SimplicialSphere, _split


@dataclass(frozen=True)
class SplitSpec:
    """A vertex split: vertex ``w``, junction link vertices ``a`` and ``b``."""

    w: int
    a: int
    b: int


def split_vertex(K: SimplicialSphere, spec: SplitSpec) -> SimplicialSphere:
    """Apply ``spec`` to ``K``; the new vertex gets label ``K.n``.

    The arc of ``w``'s link running from ``a`` to ``b`` in the link cycle's
    normalized direction (see :meth:`SimplicialSphere.link_cycle`) stays
    with ``w``; the arc from ``b`` back to ``a`` moves to the new vertex.
    This is the one place that convention is decided: the junctions are
    handed to the split in the order that w's stored rotation runs along
    that arc.  Raises BadSplitSpec unless ``a`` and ``b`` are two distinct
    link vertices of a valid ``w``.
    """
    if type(spec.w) is not int or not 0 <= spec.w < K.n:
        raise BadSplitSpec(f"no vertex {spec.w!r} to split")
    if spec.a == spec.b:
        raise BadSplitSpec("junction vertices must be distinct")
    cyc = K.link_cycle(spec.w)
    for v in (spec.a, spec.b):
        if type(v) is not int or v not in cyc:
            raise BadSplitSpec(f"{v!r} is not in the link of {spec.w}")
    i, j = sorted((cyc.index(spec.a), cyc.index(spec.b)))
    if K.rotation(spec.w)[cyc[0]] != cyc[1]:  # the rotation runs against the cycle
        i, j = j, i
    return _split(K, spec.w, cyc[i], cyc[j])


def diagonal_count(k: int) -> int:
    """Number of diagonals of a ``k``-gon: k*(k-3)/2."""
    return k * (k - 3) // 2


def expansion_bound(K: SimplicialSphere) -> int:
    """Upper bound on flag-preserving splits: sum of link-polygon diagonals."""
    return sum(count * diagonal_count(k) for k, count in K.r_vector().items())


def flag_splits(K: SimplicialSphere) -> Iterator[SplitSpec]:
    """The flag-preserving splits of a flag sphere, lazily, in a fixed order.

    Vertices in label order and, for each, every non-adjacent pair of
    link-cycle positions i < j (the diagonals of the link polygon).  No
    child is built.  Raises NotFlag at the call, before the first split.
    Each split keeps the sphere flag because the junction pair being
    non-adjacent neither creates a missing triangle nor a vertex of
    degree 3.
    """
    _require_flag(K)
    return (
        SplitSpec(w, cyc[i], cyc[j])
        for w in range(K.n)
        for cyc in (K.link_cycle(w),)
        for i in range(len(cyc))
        for j in range(i + 2, len(cyc) - (i == 0))
    )


def flag_expansions(K: SimplicialSphere) -> list[tuple[SplitSpec, SimplicialSphere]]:
    """Every :func:`flag_splits` spec of a flag sphere with its child, in order."""
    return [(spec, split_vertex(K, spec)) for spec in flag_splits(K)]
