"""Projective covers, minimal resolutions, Ext groups, injective envelopes,
syzygies and cosyzygies over a replicated algebra, and the projectivity and
injectivity tests read off the top and the socle."""

from __future__ import annotations

from .linalg import Mat, column_space, quotient_basis, rank, solve_matrix
from .replicated import (RMap, block_map, cokernel, direct_sum,
                         generator_action, hom_space, image_subspaces,
                         injective, kernel, map_from_projectives, projective,
                         quotient_with_sections, radical_subspaces,
                         regular_module, socle_subspaces, summand_offsets,
                         summands_of)


class Resolution:
    """A minimal projective resolution ... -> P_1 -> P_0 -> M -> 0.

    ``modules[k]`` is P_k, the direct sum of the P(v, i) labelled (v, i) in
    ``summands[k]``, in that order.  ``maps[k]`` is d_{k+1}: P_{k+1} -> P_k
    and ``augmentation`` is P_0 -> M.  ``syzygy`` is (K, incl, cover) for
    K = ker(augmentation), its inclusion into P_0 and its projective cover
    P_1 -> K (so maps[0] = incl o cover), or None when M is projective.

    A map out of P_k is determined by its images of the generators of the
    summands (Hom(P(v, i), N) = N at (i, v)); concatenated in summand order
    they are its generator coordinates, in which Ext is computed.
    """

    def __init__(self, M):
        self.module = M
        self.modules = []
        self.maps = []            # maps[k]: P_{k+1} -> P_k
        self.summands = []
        self.augmentation = None
        self.syzygy = None

    @property
    def length(self):
        return len(self.modules) - 1


def projective_cover(M):
    """The projective cover (P, epi, labels) of a nonzero module: one
    P(v, i), labelled (v, i) in the order of the direct sum P, per basis
    vector of top(M) at (i, v), its generator sent to the unit vector at a
    row of M at (i, v) that is not a pivot row of rad M's echelon basis
    there (the section of ``quotient_basis``).  Those unit vectors span a
    complement of rad M, so neither rad M nor top M is built as a module."""
    alg = M.algebra
    rad = radical_subspaces(M)
    labels = []
    groups = []
    for (i, v), d in M.support.items():
        _, lifts = quotient_basis(d, rad[(i, v)])
        if lifts.cols:
            labels.extend([(v, i)] * lifts.cols)
            groups.append((v, i, lifts))
    if not labels:
        raise ValueError("projective cover of the zero module")
    P, _, _ = direct_sum(alg, [projective(alg, v, i) for (v, i) in labels])
    epi = map_from_projectives(P, M, groups)
    if not epi.is_epi():
        raise RuntimeError("lifted cover map is not surjective")
    return P, epi, labels


def minimal_resolution(M):
    """Minimal projective resolution; must terminate within 2m+1 steps."""
    if "resolution" in M.cache:
        return M.cache["resolution"]
    res = Resolution(M)
    K, incl = M, None
    while not K.is_zero():
        if len(res.modules) > 2 * M.algebra.m + 1:
            raise RuntimeError("resolution exceeded the global dimension bound")
        P, epi, labels = projective_cover(K)
        res.modules.append(P)
        res.summands.append(labels)
        if incl is None:
            res.augmentation = epi
        else:
            if res.syzygy is None:
                res.syzygy = (K, incl, epi)
            res.maps.append(incl.compose(epi))
        K, incl = kernel(epi)
    M.cache["resolution"] = res
    return res


def pd(M):
    """Projective dimension (0 for the zero module by convention); that of
    a recorded direct sum is the largest of its summands'."""
    parts = summands_of(M)
    if parts[0] is not M:
        return max(pd(X) for X in parts)
    return minimal_resolution(M).length if not M.is_zero() else 0


def _at_generators(f, labels):
    """The images under f: P -> N of the generators of P's summands
    P(v, i), labelled in ``labels``, as columns of N at (i, v)."""
    parts = summands_of(f.source)
    cuts = {(v, i): summand_offsets(parts, i, v) for (v, i) in set(labels)}
    return [f.comps[(i, v)].submatrix_cols([cuts[(v, i)][l]])
            for l, (v, i) in enumerate(labels)]


def _ext_differential(res, k, N):
    """Matrix of g -> g o d_k: Hom(P_{k-1}, N) -> Hom(P_k, N) in generator
    coordinates.  d_k is read at the generators of P_k only: the block of
    a target summand P(v, i) and a source summand P(w, j) is the generator
    action of the P(w, j) part of d_k's image of the generator of P(v, i)."""
    src, tgt = res.summands[k - 1], res.summands[k]
    parts = summands_of(res.modules[k - 1])
    col_off = [0]
    for (w, j) in src:
        col_off.append(col_off[-1] + N.dims(j, w))
    out = Mat.zeros(sum(N.dims(i, v) for (v, i) in tgt), col_off[-1],
                    N.algebra.field)
    cuts = {(v, i): summand_offsets(parts, i, v) for (v, i) in set(tgt)}
    r0 = 0
    for (v, i), x in zip(tgt, _at_generators(res.maps[k - 1], tgt)):
        rows = cuts[(v, i)]
        for c, (w, j) in enumerate(src):
            piece = [x.data[t][0] for t in range(rows[c], rows[c + 1])]
            if not any(piece):
                continue
            block = sum((a.scale(e) for e, a in
                         zip(piece, generator_action(N, w, j, i, v)) if e),
                        Mat.zeros(N.dims(i, v), N.dims(j, w), N.algebra.field))
            for r, row in enumerate(block.data):
                out.data[r0 + r][col_off[c]:col_off[c + 1]] = row
        r0 += N.dims(i, v)
    return out


def ext(i, M, N):
    """dim Ext^i(M, N), read off the table of ``ext_table``."""
    if i < 0:
        raise ValueError("negative Ext degree")
    table = ext_table(M, N)
    return table[i] if i < len(table) else 0


def ext_table(M, N):
    """[dim Ext^i(M, N) for i = 0..pd M] from a minimal projective
    resolution of M, memoized on M per target module like the Hom memo.
    With r_k the rank of g -> g o d_k (r_0 = r_{pd M + 1} = 0),
    Ext^i = dim Hom(P_i, N) - r_i - r_{i+1}; each d_k is built once.
    Ext is additive: the table of a recorded direct sum is the entrywise
    sum of its summands' tables, and the sum itself is never resolved."""
    memo = M.cache.setdefault("ext", {})
    table = memo.get(N)
    if table is not None:
        return table
    parts = summands_of(M)
    if M.is_zero() or N.is_zero():
        table = []
    elif parts[0] is not M:
        table = [0] * (pd(M) + 1)
        for X in parts:
            for i, e in enumerate(ext_table(X, N)):
                table[i] += e
    else:
        res = minimal_resolution(M)
        r = [0] + [rank(_ext_differential(res, k, N))
                   for k in range(1, res.length + 1)] + [0]
        table = [sum(N.dims(j, v) for (v, j) in res.summands[i])
                 - r[i] - r[i + 1] for i in range(res.length + 1)]
    memo[N] = table
    return table


def is_projective(M):
    """True when M is projective: its projective cover, one P(v, i) per
    basis vector of top(M) at (i, v), has the dimension of M."""
    rad = radical_subspaces(M)
    return M.total_dim == sum(
        (d - rad[(i, v)].dim) * projective(M.algebra, v, i).total_dim
        for (i, v), d in M.support.items())


def is_injective(M):
    """True when M is injective: its injective envelope, one I(v, i) per
    basis vector of soc(M) at (i, v), has the dimension of M."""
    return M.total_dim == sum(injective(M.algebra, v, i).total_dim
                              for v, i, _ in envelope_copies(M))


def syzygy(M):
    """Kernel of the projective cover."""
    if M.is_zero():
        return M
    _, epi, _ = projective_cover(M)
    K, _ = kernel(epi)
    return K


def envelope_copies(M):
    """The summands of the injective envelope of M in the order of its
    direct sum: (v, i, r) for each pivot row r of soc M's echelon basis at
    (i, v), cells in order; copy (v, i, r) of I(v, i) takes the coordinate
    functional at row r.  Kept in ``M.cache``."""
    if "envelope" not in M.cache:
        soc = socle_subspaces(M)
        M.cache["envelope"] = [(v, i, r) for (i, v), sub in soc.items()
                               for r in sub.pivot_rows]
    return M.cache["envelope"]


def injective_envelope(M):
    """The injective envelope (E, mono) of a nonzero module, E the direct
    sum of the copies of ``envelope_copies`` in that order.

    Hom(M, I(v, i)) is D(M at (i, v)): the basis of I(v, i) at (lev, w)
    lists that of P(w, lev) at (i, v), so the map of the coordinate
    functional at row r of M at (i, v) has, at (lev, w), the rows r of the
    generator actions of P(w, lev) at (i, v).  The socle's echelon basis is
    the identity at its pivot rows, so the map is mono on soc M, hence on
    M."""
    alg = M.algebra
    picks = envelope_copies(M)
    if not picks:
        raise ValueError("injective envelope of the zero module")
    E, _, _ = direct_sum(alg, [injective(alg, v, i) for v, i, _ in picks])
    mono = RMap(M, E, {
        (lev, w): Mat(E.dims(lev, w), d,
                      [a.data[r][:] for v, i, r in picks
                       for a in generator_action(M, w, lev, i, v)], alg.field)
        for (lev, w), d in M.support.items()}, check=False)
    if not mono.is_mono():
        raise RuntimeError("injective envelope map is not injective")
    return E, mono


def cosyzygy(M):
    """Cokernel of the injective envelope inclusion."""
    if M.is_zero():
        return M
    _, mono = injective_envelope(M)
    C, _ = cokernel(mono)
    return C


def is_faithful(M):
    """Faithfulness via the regular module embedding into a power of M:
    the minimal left add(M)-approximation of the algebra is injective."""
    from .approx import left_approximation
    from .krullschmidt import basic_summands
    if M.is_zero():
        return False
    appr = left_approximation(regular_module(M.algebra), basic_summands(M))
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
    K, _, cover = res.syzygy
    space = hom_space(K, Y)
    if not space.basis:
        return []
    # h -> h o cover embeds Hom(K, Y) in Hom(P_1, Y), and there the
    # restrictions of Hom(P_0, Y) to K are the image of d_1: solving gives
    # that image in Hom(K, Y) coordinates
    gens = _at_generators(cover, res.summands[1])
    embed = Mat.hstack(
        [Mat.vstack([h.comps[(i, v)] * x
                     for (v, i), x in zip(res.summands[1], gens)
                     if (i, v) in h.comps])
         for h in space.basis], field=X.algebra.field)
    img = solve_matrix(embed, _ext_differential(res, 1, Y))
    if img is None:
        raise RuntimeError("restriction left Hom(K, Y)")
    _, sect = quotient_basis(len(space.basis), column_space(img))
    return [space.combine(sect.col(c)) for c in range(sect.cols)]


def realize_extension(X, Y, h):
    """The pushout extension 0 -> Y -> E -> X -> 0 of the class of
    h: syzygy(X) -> Y.  Returns (E, incl_Y, proj_X)."""
    res = minimal_resolution(X)
    K, incl = res.syzygy[:2] if res.syzygy else kernel(res.augmentation)
    alg = X.algebra
    S, incls, projs = direct_sum(alg, [res.modules[0], Y])
    subs = image_subspaces(block_map(K, S, [[incl], [h.scale(-1)]]))
    E, eproj, sections = quotient_with_sections(S, subs)
    iY = eproj.compose(incls[1])
    # g = (augmentation, 0) vanishes on the image: it is g o section on E
    g = res.augmentation.compose(projs[0])
    pX = RMap(E, X, {c: g.comps[c] * s for c, s in sections.items()
                     if c in g.comps}, check=False)
    if not (pX.compose(eproj) - g).is_zero():
        raise RuntimeError("the augmentation does not factor through E")
    return E, iY, pX
