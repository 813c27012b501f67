"""Krull-Schmidt decomposition, indecomposability certificates and
isomorphism testing for modules over a replicated algebra."""

from __future__ import annotations

import random

import sympy

from .linalg import Mat, kernel_basis, solve_matrix
from .replicated import (RMap, cotuple_map, direct_sum, hom_basis_r, hom_space,
                         identity_rmap, image_subspaces, submodule, zero_rmap)

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


def _kernel_subspaces(f):
    alg = f.source.algebra
    return {(i, v): kernel_basis(f.component(i, v))
            for i in range(alg.m + 1) for v in alg.quiver.vertices}


def _fitting_split(M, f):
    """Fitting decomposition M = ker(f^N) (+) im(f^N); None when trivial."""
    n = M.total_dim
    fn = _power(f, n if n else 1)
    kdim = sum(s.dim for s in _kernel_subspaces(fn).values())
    if kdim == 0 or kdim == M.total_dim:
        return None
    A, ia = submodule(M, _kernel_subspaces(fn))
    B, ib = submodule(M, image_subspaces(fn))
    return [(A, ia), (B, ib)]


def _min_poly(M, f):
    """Minimal polynomial of an endomorphism, as a sympy Poly over QQ."""
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


def _minpoly_split(M, f):
    """Split along coprime irreducible factors of the minimal polynomial."""
    poly = _min_poly(M, f)
    factors = sympy.factor_list(poly.as_expr())[1]
    if len(factors) < 2:
        return None
    parts = []
    for g, mult in factors:
        gf = _eval_poly(M, f, sympy.Poly(g ** mult, poly.gen))
        kdim = sum(s.dim for s in _kernel_subspaces(gf).values())
        if kdim == 0 or kdim == M.total_dim:
            return None
        parts.append(submodule(M, _kernel_subspaces(gf)))
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
    for f in candidates:
        split = _fitting_split(M, f)
        if split:
            return split
    for f in candidates:
        split = _minpoly_split(M, f)
        if split:
            return split
    return None


def _trace(f):
    alg = f.source.algebra
    return sum(f.component(i, v).trace()
               for i in range(alg.m + 1) for v in alg.quiver.vertices)


def end_radical_dim(M):
    """Dimension of rad End(M), via the trace form (valid over Q)."""
    return len(end_radical_basis(M))


def end_radical_basis(M):
    """Basis of rad End(M) = the radical of the trace form (valid over Q)."""
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


def is_indecomposable(M):
    """Certified indecomposability: End(M) modulo its radical must be a
    division ring (here: the ground field or a field extension of it)."""
    if M.is_zero():
        return False
    space = hom_space(M, M)
    n = len(space.basis)
    if n == 1:
        return True
    if try_split(M) is not None:
        return False
    top_dim = n - end_radical_dim(M)
    if top_dim == 1:
        return True
    # End/rad has dimension > 1: it is a division ring iff it is a field,
    # certified by a generic element whose minimal polynomial has the full
    # degree (checked on the endomorphism itself, whose minimal polynomial
    # maps onto that of its image in the quotient)
    rng = random.Random(SPLIT_SEED)
    for _ in range(SPLIT_TRIALS):
        f = _random_endo(space, rng)
        poly = _min_poly(M, f)
        factors = sympy.factor_list(poly.as_expr())[1]
        irred = [g for g, _ in factors if sympy.Poly(g, poly.gen).degree() >= 1]
        if len(irred) == 1 and sympy.Poly(irred[0], poly.gen).degree() == top_dim:
            return True
    raise RuntimeError("cannot certify indecomposability (End/rad dim %d)"
                       % top_dim)


def decompose(M):
    """List of indecomposable summands (each certified)."""
    if "decomposition" in M.cache:
        return M.cache["decomposition"]
    parts = [p for p, _ in decompose_with_inclusions(M)]
    M.cache["decomposition"] = parts
    return parts


def decompose_with_inclusions(M):
    """List of (indecomposable summand, inclusion into M)."""
    if M.is_zero():
        return []
    split = try_split(M)
    if split is None:
        if not is_indecomposable(M):
            raise RuntimeError("splitting search failed on a decomposable module")
        return [(M, identity_rmap(M))]
    out = []
    for part, incl in split:
        for sub, subincl in decompose_with_inclusions(part):
            out.append((sub, incl.compose(subincl)))
    return out


def decompose_with_maps(M):
    """(parts, inclusions, projections) realizing M as the direct sum."""
    pairs = decompose_with_inclusions(M)
    parts = [p for p, _ in pairs]
    alg = M.algebra
    S, sincls, sprojs = direct_sum(alg, parts)
    iso = cotuple_map([incl for _, incl in pairs], S, sprojs)
    if not iso.is_iso():
        raise RuntimeError("decomposition does not reassemble to the module")
    inv = _invert(iso)
    incls = [incl for _, incl in pairs]
    projs = [sp.compose(inv) for sp in sprojs]
    return parts, incls, projs


def _invert(f):
    from .hereditary import AMap
    alg = f.source.algebra
    comps = []
    for i in range(alg.m + 1):
        amap = {}
        for v in alg.quiver.vertices:
            c = f.component(i, v)
            inv = solve_matrix(c, Mat.identity(c.rows, c.field))
            if inv is None:
                raise ValueError("map is not invertible")
            amap[v] = inv
        comps.append(AMap(f.target.levels[i], f.source.levels[i], amap,
                          check=False))
    return RMap(f.target, f.source, comps, check=False)


def is_isomorphic(M, N):
    """Exact isomorphism test."""
    if M.dim_grid() != N.dim_grid():
        return False
    if M.is_zero():
        return True
    pm = decompose(M)
    pn = list(decompose(N))
    if len(pm) != len(pn):
        return False
    for a in pm:
        hit = None
        for idx, b in enumerate(pn):
            if _indec_isomorphic(a, b):
                hit = idx
                break
        if hit is None:
            return False
        pn.pop(hit)
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


def all_of_kind(parts, kind):
    """True when each indecomposable in ``parts`` is isomorphic to some
    ``kind(alg, v, i)``, for ``kind`` = ``projective`` or ``injective``."""
    return all(any(is_isomorphic(p, kind(p.algebra, v, i))
                   for v in p.algebra.quiver.vertices
                   for i in range(p.algebra.m + 1))
               for p in parts)


def multiplicity(M, X):
    """Multiplicity of the indecomposable X as a summand of M."""
    return sum(1 for p in decompose(M) if _indec_isomorphic(p, X))


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
