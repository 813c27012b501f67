"""Bundled quivers and worked-example modules used by tests and the CLI."""

from __future__ import annotations

from .field import QQ
from .linalg import Mat
from .quiver import Quiver
from .replicated import (ReplicatedAlgebra, RModule, direct_sum, embed_level,
                         projective, simple)


def linear_quiver(n):
    """A_n with arrows k+1 -> k (so vertex 1 is the unique sink)."""
    return Quiver(list(range(1, n + 1)),
                  [("a%d" % k, k + 1, k) for k in range(1, n)])


def kronecker_quiver():
    """Two parallel arrows 2 -> 1."""
    return Quiver([1, 2], [("a", 2, 1), ("b", 2, 1)])


def dtilde4_quiver():
    """The tame four-subspace quiver: arrows 2,3,4,5 -> 1."""
    return Quiver([1, 2, 3, 4, 5],
                  [("a2", 2, 1), ("a3", 3, 1), ("a4", 4, 1), ("a5", 5, 1)])


def duplicated(quiver, field=QQ):
    return ReplicatedAlgebra(quiver, 1, field)


def _projective_injectives(alg):
    return [projective(alg, v, 1) for v in alg.quiver.vertices]


def d4_almost_complete_pd1(field=QQ):
    """Over the duplicated four-subspace algebra: the level-0 embeddings of
    the injective at the sink and of the three outer simples 3, 4, 5,
    together with all projective-injectives.  Almost complete, projective
    dimension 1, and its fan has three complements with dimensions 1, 1, 2."""
    alg = duplicated(dtilde4_quiver(), field)
    parts = [embed_level(alg, alg.base_injective(1), 0)]
    parts += [simple(alg, v, 0) for v in (3, 4, 5)]
    parts += _projective_injectives(alg)
    T, _, _ = direct_sum(alg, parts)
    return alg, T


def d4_almost_complete_pd2(field=QQ):
    """Over the duplicated four-subspace algebra: the four general-position
    modules embedded at level 1, together with all projective-injectives.
    Almost complete, projective dimension 2, and its fan has four
    complements with dimensions 0, 1, 2, 3."""
    alg = duplicated(dtilde4_quiver(), field)
    parts = [embed_level(alg, general_position_rep(alg, v), 1)
             for v in (2, 3, 4, 5)]
    parts += _projective_injectives(alg)
    T, _, _ = direct_sum(alg, parts)
    return alg, T


def kronecker_almost_complete_pd3(field=QQ):
    """Over the duplicated Kronecker algebra: the level-1 simple at the
    source plus both projective-injectives.  Projective dimension 3; the
    fan has three complements with dimensions 1, 2, 3."""
    alg = duplicated(kronecker_quiver(), field)
    parts = [simple(alg, 2, 1)] + _projective_injectives(alg)
    T, _, _ = direct_sum(alg, parts)
    return alg, T


def kronecker_almost_complete_pd1(field=QQ):
    """Over the duplicated Kronecker algebra: the level-0 simple at the
    source plus both projective-injectives.  Projective dimension 1; the
    fan has three complements with dimensions 1, 1, 2 and none of
    dimension 3."""
    alg = duplicated(kronecker_quiver(), field)
    parts = [simple(alg, 2, 0)] + _projective_injectives(alg)
    T, _, _ = direct_sum(alg, parts)
    return alg, T


def kronecker_almost_complete_pd2(field=QQ):
    """Over the duplicated Kronecker algebra: the level-1 embedding of the
    base projective at the source plus both projective-injectives.
    Projective dimension 2; the fan has three complements with dimensions
    1, 2, 2 and none of dimension 3."""
    alg = duplicated(kronecker_quiver(), field)
    parts = [embed_level(alg, alg.base_projective(2), 1)]
    parts += _projective_injectives(alg)
    T, _, _ = direct_sum(alg, parts)
    return alg, T


def general_position_rep(alg, missing):
    """The level-0 module over a D~4 base of dims {1:2, v:1 for outer v !=
    missing} with the three lines in general position (columns e1, e2,
    e1+e2)."""
    outer = [v for v in (2, 3, 4, 5) if v != missing]
    dims = {(0, 1): 2}
    maps = {}
    for v, col in zip(outer, ([[1], [0]], [[0], [1]], [[1], [1]])):
        dims[(0, v)] = 1
        maps[(0, "a%d" % v)] = Mat.from_rows(col, alg.field)
    return RModule(alg, dims, maps)
