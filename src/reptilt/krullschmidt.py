"""Krull-Schmidt decomposition, indecomposability certificates and
isomorphism testing for modules over a replicated algebra.

A ``direct_sum`` splits along its recorded summands; any other module is
split by Fitting decompositions and minimal-polynomial factors of basis and
seeded random endomorphisms, the MeatAxe idea (Parker 1984; Holt-Rees
1994).  Over GF(p) only the Fitting split is supported: the
minimal-polynomial split and the trace-form radical hold only in
characteristic 0 and raise ``NotImplementedError`` there.
"""

from __future__ import annotations

import random

from .field import QQ
from .linalg import Mat, kernel_basis
from .replicated import (hom_basis_r, hom_space, identity_rmap,
                         image_subspaces, kernel_subspaces, submodule,
                         zero_rmap)

SPLIT_TRIALS = 20
SPLIT_SEED = 987654321


def _power(f, n):
    """n-th composition power of an endomorphism (by repeated squaring)."""
    result = None
    sq = f
    while n:
        if n & 1:
            result = sq if result is None else sq.compose(result)
        sq = sq.compose(sq)
        n >>= 1
    return result if result is not None else identity_rmap(f.source)


def _fitting_split(M, f):
    """Fitting decomposition M = ker(f^N) (+) im(f^N); None when trivial."""
    n = M.total_dim
    fn = _power(f, n if n else 1)
    ker = kernel_subspaces(fn)
    kdim = sum(s.dim for s in ker.values())
    if kdim == 0 or kdim == M.total_dim:
        return None
    A, ia = submodule(M, ker)
    B, ib = submodule(M, image_subspaces(fn))
    return [(A, ia), (B, ib)]


def _min_poly(M, f):
    """Minimal polynomial of an endomorphism, as a sympy Poly over QQ."""
    import sympy  # imported on first use: most runs never factor
    space = hom_space(M, M)
    powers = [identity_rmap(M)]
    g = f
    x = sympy.Symbol("x")
    while True:
        sol = space.solve(powers, [g])
        if sol is not None:
            coeffs = [sympy.Rational(str(c)) for c in sol.col(0)]
            poly = x ** len(powers) - sum(c * x ** t for t, c in enumerate(coeffs))
            return sympy.Poly(poly, x)
        powers.append(g)
        g = g.compose(f)


def _eval_poly(M, f, poly):
    """poly(f) as an endomorphism (coefficients are sympy Rationals)."""
    field = M.algebra.field
    out = zero_rmap(M, M)
    power = identity_rmap(M)
    for t, c in enumerate(poly.all_coeffs()[::-1]):
        if c:
            out = out + power.scale(field.of(str(c)))
        if t < poly.degree():
            power = power.compose(f)
    return out


def _require_char_zero(M, step):
    """Refuse ``step`` over a prime field (it holds only in characteristic 0)."""
    if M.algebra.field != QQ:
        raise NotImplementedError(
            "%s is valid only in characteristic 0; Krull-Schmidt over %r "
            "supports Fitting splits only" % (step, M.algebra.field))


def _minpoly_split(M, f):
    """Split along coprime irreducible factors of the minimal polynomial."""
    _require_char_zero(M, "the minimal-polynomial split")
    import sympy
    poly = _min_poly(M, f)
    factors = sympy.factor_list(poly.as_expr())[1]
    if len(factors) < 2:
        return None
    parts = []
    for g, mult in factors:
        gf = _eval_poly(M, f, sympy.Poly(g ** mult, poly.gen))
        ker = kernel_subspaces(gf)
        kdim = sum(s.dim for s in ker.values())
        if kdim == 0 or kdim == M.total_dim:
            return None
        parts.append(submodule(M, ker))
    return parts


def _random_endo(space, rng):
    """A random endomorphism: one coefficient in [-4, 4] per basis element,
    drawn in basis order."""
    return space.combine([rng.randint(-4, 4) for _ in space.basis])


def try_split(M):
    """One nontrivial direct-sum splitting [(part, inclusion), ...] or None."""
    space = hom_space(M, M)
    if len(space.basis) == 1:
        return None
    candidates = list(space.basis)
    rng = random.Random(SPLIT_SEED + M.total_dim)
    candidates += [_random_endo(space, rng) for _ in range(SPLIT_TRIALS)]
    for splitter in (_fitting_split, _minpoly_split):
        for f in candidates:
            split = splitter(M, f)
            if split:
                return split
    return None


def _trace(f):
    return sum(m.trace() for m in f.comps.values())


def end_radical_dim(M):
    """Dimension of rad End(M), via the trace form (valid over Q)."""
    return len(end_radical_basis(M))


def end_radical_basis(M):
    """Basis of rad End(M) = the radical of the trace form (valid over Q)."""
    _require_char_zero(M, "the trace-form radical of End")
    space = hom_space(M, M)
    basis = space.basis
    n = len(basis)
    field = M.algebra.field
    gram = Mat.zeros(n, n, field)
    for a in range(n):
        for b in range(a, n):
            t = _trace(basis[a].compose(basis[b]))
            gram.data[a][b] = field.of(t)
            gram.data[b][a] = field.of(t)
    ker = kernel_basis(gram)
    return [space.combine(ker.basis.col(c)) for c in range(ker.dim)]


def _certify_indecomposable(M):
    """Certify a leaf that no splitter could split: End(M) modulo its
    radical must be a division ring (here: the ground field or a field
    extension of it).  Raises RuntimeError when that cannot be certified."""
    space = hom_space(M, M)
    n = len(space.basis)
    if n == 1:
        return
    top_dim = n - end_radical_dim(M)
    if top_dim == 1:
        return
    # End/rad has dimension > 1: it is a division ring iff it is a field,
    # certified by a generic element whose minimal polynomial has the full
    # degree (checked on the endomorphism itself, whose minimal polynomial
    # maps onto that of its image in the quotient)
    import sympy
    rng = random.Random(SPLIT_SEED)
    for _ in range(SPLIT_TRIALS):
        f = _random_endo(space, rng)
        poly = _min_poly(M, f)
        factors = sympy.factor_list(poly.as_expr())[1]
        irred = [g for g, _ in factors if sympy.Poly(g, poly.gen).degree() >= 1]
        if len(irred) == 1 and sympy.Poly(irred[0], poly.gen).degree() == top_dim:
            return
    raise RuntimeError("cannot certify indecomposability (End/rad dim %d)"
                       % top_dim)


def is_indecomposable(M):
    """Certified indecomposability (a nonzero module with one summand)."""
    return not M.is_zero() and len(decompose(M)) == 1


def decompose(M):
    """List of indecomposable summands (each certified), memoized in
    ``M.cache["decomposition"]``.  A recorded direct sum lists those of its
    summands; otherwise ``try_split`` splits M, and a leaf it cannot split
    is certified indecomposable."""
    cached = M.cache.get("decomposition")
    if cached is not None:
        return cached
    if "summands" in M.cache:
        out = [p for part in M.cache["summands"] for p in decompose(part)]
    elif M.is_zero():
        out = []
    else:
        split = try_split(M)
        if split is None:
            _certify_indecomposable(M)
            out = [M]
        else:
            out = [p for part, _ in split for p in decompose(part)]
    M.cache["decomposition"] = out
    return out


def is_isomorphic(M, N):
    """Exact isomorphism test."""
    return (M.dim_grid() == N.dim_grid()
            and same_classes(decompose(M), decompose(N)))


def same_classes(xs, ys):
    """True when the indecomposables ``xs`` and ``ys`` match one to one up
    to isomorphism."""
    rest = list(ys)
    if len(xs) != len(rest):
        return False
    for a in xs:
        hit = next((k for k, b in enumerate(rest) if _indec_isomorphic(a, b)),
                   None)
        if hit is None:
            return False
        rest.pop(hit)
    return True


def _indec_isomorphic(a, b):
    """Isomorphism test for indecomposables: some basis element of
    Hom(a, b) must be invertible (the non-isomorphisms form a proper
    subspace when a and b are isomorphic indecomposables)."""
    if a.dim_grid() != b.dim_grid():
        return False
    for h in hom_basis_r(a, b):
        if h.is_iso():
            return True
    return False


def basic_summands(M):
    """One representative per isomorphism class of summands of M."""
    reps = []
    for p in decompose(M):
        if not any(_indec_isomorphic(p, r) for r in reps):
            reps.append(p)
    return reps


def delta_count(M):
    """Number of pairwise non-isomorphic indecomposable summands."""
    return len(basic_summands(M))
