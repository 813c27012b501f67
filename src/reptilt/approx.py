"""Minimal right and left add(T)-approximations, and the generation /
cogeneration tests built on them.

add(T) is given by ``parts``, the basic summands of T: pairwise
non-isomorphic indecomposables, as ``basic_summands(T)`` returns them."""

from __future__ import annotations

from .krullschmidt import basic_summands
from .replicated import (block_map, direct_sum, hom_basis_r, hom_space,
                         zero_module, zero_rmap)


class ApproxResult:
    """A minimal approximation: ``map`` is X -> M (right) or M -> X (left),
    with X = (+) summands drawn from add(T)."""

    def __init__(self, map_, summands):
        self.map = map_
        self.summands = summands


def _strip_redundant(pairs, factor_maps):
    """Drop summand copies whose map factors through the other copies.

    ``factor_maps(candidate, rest)`` returns the Hom space of the
    candidate's map and the maps that factor through ``rest``.  Removing a
    copy only shrinks the span the others are tested against, so a copy
    kept once stays kept and one forward sweep suffices.
    """
    c = 0
    while c < len(pairs):
        space, maps = factor_maps(pairs[c], pairs[:c] + pairs[c + 1:])
        if space.solve(maps, [pairs[c][1]]) is not None:
            pairs.pop(c)
        else:
            c += 1
    return pairs


def _right_factor_maps(cand, rest):
    """Hom(T_c, M) and the maps T_c -> T_l -> M through the other copies."""
    Tc, fc = cand
    return hom_space(Tc, fc.target), [fl.compose(b) for Tl, fl in rest
                                      for b in hom_basis_r(Tc, Tl)]


def _left_factor_maps(cand, rest):
    """Hom(M, T_c) and the maps M -> T_l -> T_c through the other copies."""
    Tc, gc = cand
    return hom_space(gc.source, Tc), [b.compose(gl) for Tl, gl in rest
                                      for b in hom_basis_r(Tl, Tc)]


def right_approximation(M, parts):
    """Minimal right add(T)-approximation of M, T = (+) parts."""
    alg = M.algebra
    pairs = [(Tj, f) for Tj in parts for f in hom_basis_r(Tj, M)]
    pairs = _strip_redundant(pairs, _right_factor_maps)
    if not pairs:
        Z = zero_module(alg)
        return ApproxResult(zero_rmap(Z, M), [])
    mods = [p[0] for p in pairs]
    X, _, _ = direct_sum(alg, mods)
    total = block_map(X, M, [[f for _, f in pairs]])
    return ApproxResult(total, mods)


def left_approximation(M, parts):
    """Minimal left add(T)-approximation of M, T = (+) parts."""
    alg = M.algebra
    pairs = [(Tj, f) for Tj in parts for f in hom_basis_r(M, Tj)]
    pairs = _strip_redundant(pairs, _left_factor_maps)
    if not pairs:
        Z = zero_module(alg)
        return ApproxResult(zero_rmap(M, Z), [])
    mods = [p[0] for p in pairs]
    X, _, _ = direct_sum(alg, mods)
    total = block_map(M, X, [[f] for _, f in pairs])
    return ApproxResult(total, mods)


def is_generated_by(M, T):
    """True when M is a quotient of a module in add(T)."""
    if M.is_zero():
        return True
    return right_approximation(M, basic_summands(T)).map.is_epi()


def is_cogenerated_by(M, T):
    """True when M embeds into a module in add(T)."""
    if M.is_zero():
        return True
    return left_approximation(M, basic_summands(T)).map.is_mono()
