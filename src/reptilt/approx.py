"""Minimal right and left add(T)-approximations.

add(T) is given by ``parts``, the basic summands of T: pairwise
non-isomorphic indecomposables, as ``basic_summands(T)`` returns them.

An approximation takes one copy of T_j per basis map of Hom(T_j, M) or
Hom(M, T_j); one forward sweep in Hom coordinates drops each copy whose map
factors through the others (a drop only shrinks the span tested against)."""

from __future__ import annotations

from functools import lru_cache

from .linalg import Mat, solve_matrix
from .replicated import (block_map, direct_sum, hom_basis_r, hom_space,
                         zero_rmap)


class ApproxResult:
    """A minimal approximation: ``map`` is X -> M (right) or M -> X (left),
    with X = (+) summands drawn from add(T)."""

    def __init__(self, map_, summands):
        self.map = map_
        self.summands = summands


def _kept_copies(M, parts, left):
    """The copies (T_c, g), g in the basis of Hom(M, T_c) (``left``) or of
    Hom(T_c, M), that survive the sweep, in sweep order.  Copy r of T_c is
    dropped iff e_r lies in the span of the coordinate columns of the maps
    through the other surviving copies."""
    spaces = [hom_space(M, T) if left else hom_space(T, M) for T in parts]

    @lru_cache(maxsize=None)
    def cols(l, c):
        """Per copy g of parts[l], the coordinates in spaces[c] of b.g (left)
        or g.b over the basis b of Hom(T_l, T_c) or Hom(T_c, T_l)."""
        bs = hom_basis_r(*((parts[l], parts[c]) if left else
                           (parts[c], parts[l])))
        return [[spaces[c].coords(b.compose(g) if left else g.compose(b))
                 for b in bs] for g in spaces[l].basis]

    field = M.algebra.field
    alive = [(j, r) for j, space in enumerate(spaces)
             for r in range(len(space.basis))]
    for copy in list(alive):
        c, r = copy
        n = len(spaces[c].basis)
        span = [col for l, s in alive if (l, s) != copy
                for col in cols(l, c)[s]]
        if solve_matrix(Mat(len(span), n, span, field).transpose(),
                        Mat.column([int(t == r) for t in range(n)],
                                   field)) is not None:
            alive.remove(copy)
    return [(parts[c], spaces[c].basis[r]) for c, r in alive]


def right_approximation(M, parts):
    """Minimal right add(T)-approximation of M, T = (+) parts."""
    pairs = _kept_copies(M, parts, left=False)
    mods = [T for T, _ in pairs]
    X, _, _ = direct_sum(M.algebra, mods)
    f = block_map(X, M, [[g for _, g in pairs]]) if pairs else zero_rmap(X, M)
    return ApproxResult(f, mods)


def left_approximation(M, parts):
    """Minimal left add(T)-approximation of M, T = (+) parts."""
    pairs = _kept_copies(M, parts, left=True)
    mods = [T for T, _ in pairs]
    X, _, _ = direct_sum(M.algebra, mods)
    g = block_map(M, X, [[h] for _, h in pairs]) if pairs else zero_rmap(M, X)
    return ApproxResult(g, mods)
