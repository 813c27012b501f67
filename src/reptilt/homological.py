"""Projective covers, minimal resolutions, Ext groups, injective envelopes,
syzygies and cosyzygies over a replicated algebra."""

from __future__ import annotations

from .hereditary import AMap
from .linalg import Mat, column_space, quotient_basis, rank, solve_matrix
from .replicated import (cokernel, cotuple_map, direct_sum, hom_basis_r,
                         hom_space, injective, kernel, map_from_projective,
                         projective, radical, regular_module, socle, top,
                         zero_rmap)


class Resolution:
    """A minimal projective resolution ... -> P_1 -> P_0 -> M -> 0.

    ``summands[k]`` lists the (v, i) labels of the projective summands of
    P_k in order; ``projections[k]`` are the direct-sum projections used to
    evaluate maps out of P_k.
    """

    def __init__(self, M):
        self.module = M
        self.modules = []
        self.maps = []            # maps[k]: P_{k+1} -> P_k
        self.summands = []
        self.inclusions = []
        self.projections = []
        self.augmentation = None

    @property
    def length(self):
        return len(self.modules) - 1


def projective_cover(M):
    """The projective cover (P, epi) of a nonzero module."""
    P, epi, _, _, _ = _cover_with_data(M)
    return P, epi


def _cover_with_data(M):
    alg = M.algebra
    T, tproj = top(M)
    labels = []
    gens = []
    for i in range(alg.m + 1):
        for v in alg.quiver.vertices:
            d = T.dims(i, v)
            if not d:
                continue
            # lift each top basis vector through the quotient projection
            lifts = solve_matrix(tproj.component(i, v), Mat.identity(d, alg.field))
            if lifts is None:
                raise RuntimeError("top projection is not surjective")
            for j in range(d):
                labels.append((v, i))
                gens.append(lifts.submatrix_cols([j]))
    if not labels:
        raise ValueError("projective cover of the zero module")
    projs = [projective(alg, v, i) for (v, i) in labels]
    P, incls, prjs = direct_sum(alg, projs)
    comps = [map_from_projective(alg, v, i, M, x)
             for (v, i), x in zip(labels, gens)]
    epi = cotuple_map(comps, P, prjs)
    if not epi.is_epi():
        raise RuntimeError("lifted cover map is not surjective")
    return P, epi, labels, incls, prjs


def minimal_resolution(M):
    """Minimal projective resolution; must terminate within 2m+1 steps."""
    if "resolution" in M.cache:
        return M.cache["resolution"]
    alg = M.algebra
    res = Resolution(M)
    if M.is_zero():
        M.cache["resolution"] = res
        return res
    bound = 2 * alg.m + 1
    P, epi, labels, incls, prjs = _cover_with_data(M)
    res.modules.append(P)
    res.summands.append(labels)
    res.inclusions.append(incls)
    res.projections.append(prjs)
    res.augmentation = epi
    current_epi = epi
    step = 0
    while True:
        K, incl = kernel(current_epi)
        if K.is_zero():
            break
        step += 1
        if step > bound:
            raise RuntimeError("resolution exceeded the global dimension bound")
        P1, epi1, labels1, incls1, prjs1 = _cover_with_data(K)
        res.modules.append(P1)
        res.summands.append(labels1)
        res.inclusions.append(incls1)
        res.projections.append(prjs1)
        res.maps.append(incl.compose(epi1))
        current_epi = epi1
    M.cache["resolution"] = res
    return res


def pd(M):
    """Projective dimension (0 for the zero module by convention)."""
    return minimal_resolution(M).length if not M.is_zero() else 0


def _hom_from_projectives_dim(labels, N):
    return sum(N.dims(i, v) for (v, i) in labels)


def _map_from_tuple(res, k, N, coords):
    """The map P_k -> N determined by generator images ``coords``."""
    alg = N.algebra
    total = zero_rmap(res.modules[k], N)
    pos = 0
    for (v, i), prj in zip(res.summands[k], res.projections[k]):
        d = N.dims(i, v)
        x = coords[pos:pos + d]
        pos += d
        if any(x):
            total = total + map_from_projective(alg, v, i, N, x).compose(prj)
    return total


def _generator_images(res, k, f):
    """Coordinates of a map P_k -> N at the canonical generators.

    The generator of P(v, i) is e_v, the sole basis vector of its top level
    at vertex v; its image is read off through the direct-sum inclusion.
    """
    out = []
    for (v, i), inc in zip(res.summands[k], res.inclusions[k]):
        comp = f.compose(inc).component(i, v)
        out.extend(comp.data[r][0] for r in range(comp.rows))
    return out


def _ext_differential(res, k, N):
    """Matrix of precomposition with d_k: Hom(P_{k-1}, N) -> Hom(P_k, N)."""
    alg = N.algebra
    f = alg.field
    dim_src = _hom_from_projectives_dim([lbl for lbl in res.summands[k - 1]], N)
    dim_tgt = _hom_from_projectives_dim([lbl for lbl in res.summands[k]], N)
    cols = []
    for t in range(dim_src):
        coords = [f.zero] * dim_src
        coords[t] = f.one
        g = _map_from_tuple(res, k - 1, N, coords)
        comp = g.compose(res.maps[k - 1])
        cols.append(_generator_images(res, k, comp))
    out = Mat.zeros(dim_tgt, dim_src, f)
    for c, col in enumerate(cols):
        for r, val in enumerate(col):
            out.data[r][c] = val
    return out


def ext(i, M, N):
    """dim Ext^i(M, N), computed from a minimal projective resolution of M."""
    if i < 0:
        raise ValueError("negative Ext degree")
    if M.is_zero() or N.is_zero():
        return 0
    if i == 0:
        return len(hom_basis_r(M, N))
    res = minimal_resolution(M)
    if i > res.length:
        return 0
    d_in = _ext_differential(res, i, N)          # Hom(P_{i-1}) -> Hom(P_i)
    rk_in = rank(d_in)
    if i < res.length:
        d_out = _ext_differential(res, i + 1, N)  # Hom(P_i) -> Hom(P_{i+1})
        dim_ker = d_out.cols - rank(d_out)
    else:
        dim_ker = d_in.rows
    return dim_ker - rk_in


def syzygy(M):
    """Kernel of the projective cover."""
    if M.is_zero():
        return M
    _, epi = projective_cover(M)
    K, _ = kernel(epi)
    return K


def injective_envelope(M):
    """The injective envelope (E, mono), with the mono extending the socle
    inclusion (solved as a linear system; solvability is injectivity)."""
    E, mono, _, _, _ = injective_envelope_with_data(M)
    return E, mono


def injective_envelope_with_data(M):
    """Envelope plus its summand labels and direct-sum inclusion/projection
    maps: (E, mono, labels, inclusions, projections)."""
    alg = M.algebra
    f = alg.field
    S, sincl = socle(M)
    labels = []
    for i in range(alg.m + 1):
        for v in alg.quiver.vertices:
            labels.extend([(v, i)] * S.dims(i, v))
    if not labels:
        raise ValueError("injective envelope of the zero module")
    injs = [injective(alg, v, i) for (v, i) in labels]
    E, incls, prjs = direct_sum(alg, injs)
    # canonical map S -> E hitting the socle of each injective copy
    counters = {}
    sigma = zero_rmap(S, E)
    for idx, (v, i) in enumerate(labels):
        c = counters.get((v, i), 0)
        counters[(v, i)] = c + 1
        I = injs[idx]
        # socle coordinate of I: the e_v functional at (level i, vertex v)
        soc_idx = next(j for j, p in enumerate(I.levels[i].path_basis[v])
                       if not p.arrows)
        comp = Mat.zeros(I.levels[i].dims[v], S.dims(i, v), f)
        comp.data[soc_idx][c] = f.one
        g = _single_component_rmap(S, I, i, v, comp)
        sigma = sigma + incls[idx].compose(g)
    # extend sigma over M: find h in Hom(M, E) with h o sincl = sigma,
    # solved in Hom(S, E) coordinates
    space = hom_space(M, E)
    sol = hom_space(S, E).solve([h.compose(sincl) for h in space.basis],
                                [sigma])
    if sol is None:
        raise RuntimeError("socle inclusion does not extend (not injective?)")
    mono = space.combine(sol.col(0))
    if not mono.is_mono():
        raise RuntimeError("injective envelope map is not injective")
    return E, mono, labels, incls, prjs


def _single_component_rmap(S, I, i, v, comp):
    """RMap S -> I with a single nonzero component at (level i, vertex v)."""
    from .replicated import RMap
    level_maps = []
    for lev in range(S.algebra.m + 1):
        comps = {}
        if lev == i:
            comps[v] = comp
        level_maps.append(AMap(S.levels[lev], I.levels[lev], comps, check=False))
    return RMap(S, I, level_maps, check=False)


def cosyzygy(M):
    """Cokernel of the injective envelope inclusion."""
    if M.is_zero():
        return M
    _, mono = injective_envelope(M)
    C, _ = cokernel(mono)
    return C


def sigma_set(alg, i):
    """The i-th cosyzygies of the level-0 indecomposable projectives
    (zero members dropped)."""
    if not 0 <= i <= 2 * alg.m:
        raise ValueError("sigma index out of range")
    out = []
    for v in alg.quiver.vertices:
        M = projective(alg, v, 0)
        for _ in range(i):
            if M.is_zero():
                break
            M = cosyzygy(M)
        if not M.is_zero():
            out.append(M)
    return out


def is_radical_valued(f):
    """True when the image of f lies in the radical of its target."""
    R, incl = radical(f.target)
    for i in range(f.target.algebra.m + 1):
        for v in f.target.algebra.quiver.vertices:
            sub = column_space(incl.component(i, v))
            if not sub.contains_matrix(column_space(f.component(i, v)).basis):
                return False
    return True


def is_faithful(M):
    """Faithfulness via the regular module embedding into a power of M:
    the minimal left add(M)-approximation of the algebra is injective."""
    from .approx import left_approximation
    reg = regular_module(M.algebra)
    if M.is_zero():
        return False
    appr = left_approximation(reg, M)
    return appr.map.is_mono()


# -- Ext^1 classes and their realizations ----------------------------

def ext1_classes(X, Y):
    """Canonical coset representatives of Ext^1(X, Y) as maps from the
    first syzygy of X to Y."""
    if X.is_zero() or Y.is_zero():
        return []
    res = minimal_resolution(X)
    if res.length < 1:
        return []
    K, incl = kernel(res.augmentation)
    space = hom_space(K, Y)
    if not space.basis:
        return []
    f = X.algebra.field
    # image of restriction Hom(P0, Y) -> Hom(K, Y), in Hom(K, Y) coordinates
    dim0 = _hom_from_projectives_dim(res.summands[0], Y)
    restrictions = []
    for t in range(dim0):
        coords = [f.zero] * dim0
        coords[t] = f.one
        restrictions.append(_map_from_tuple(res, 0, Y, coords).compose(incl))
    try:
        img = space.matrix(restrictions)
    except ValueError:
        raise RuntimeError("restriction left Hom(K, Y)")
    _, sect = quotient_basis(len(space.basis), column_space(img))
    return [space.combine(sect.col(c)) for c in range(sect.cols)]


def realize_extension(X, Y, h):
    """The pushout extension 0 -> Y -> E -> X -> 0 of the class of
    h: syzygy(X) -> Y.  Returns (E, incl_Y, proj_X)."""
    res = minimal_resolution(X)
    P0 = res.modules[0]
    K, incl = kernel(res.augmentation)
    alg = X.algebra
    S, incls, prjs = direct_sum(alg, [P0, Y])
    t_map = incls[0].compose(incl) - incls[1].compose(h)
    E, eproj = cokernel(t_map)
    iY = eproj.compose(incls[1])
    # the augmentation P0 (+) Y -> X (zero on Y) factors through E
    g = res.augmentation.compose(prjs[0])
    comps = []
    for i in range(alg.m + 1):
        amap_comps = {}
        for v in alg.quiver.vertices:
            sol = solve_matrix(eproj.component(i, v).transpose(),
                               g.component(i, v).transpose())
            if sol is None:
                raise RuntimeError("extension projection does not factor")
            amap_comps[v] = sol.transpose()
        comps.append(AMap(E.levels[i], X.levels[i], amap_comps, check=False))
    from .replicated import RMap
    pX = RMap(E, X, comps, check=False)
    return E, iY, pX
