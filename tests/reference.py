"""Reference implementations that only the tests use.

None of this is reached by the command line or the benchmark: the AR
translate and its almost split sequences and AR quiver, the Hom builder of
the base quiver, a few predicates, the block-diagonal matrix, the grouping
of the tilting oracle by its almost complete parts, the representations of
the base quiver (``Rep``) that the Hom builder reads, the simple one and
their path actions, and a module's structure maps and levels read on the
full grid, as modules stored them before they stored only their support.
They stay as independent checks of the library:
``translate`` against ``translate_inverse``, ``hom_basis`` against
``hom_basis_r``, ``all_of_kind`` (Krull-Schmidt plus an isomorphism search)
against the dimension counts ``is_projective`` and ``is_injective``,
``block_diag`` against the structure maps of ``direct_sum``, and
``_base_rep_faithful`` (the path actions, vectorized) against the
approximation test of ``classify_duplicated``.  Not a test module: pytest
collects nothing here.
"""

from __future__ import annotations

from reptilt.approx import left_approximation, right_approximation
from reptilt.arknit import enumerate_indecomposables
from reptilt.field import QQ
from reptilt.homological import (_at_generators, cosyzygy, ext1_classes,
                                 is_projective, minimal_resolution,
                                 realize_extension)
from reptilt.krullschmidt import (basic_summands, end_radical_basis,
                                  is_isomorphic, try_split)
from reptilt.linalg import Mat, column_space, kernel_basis, rank
from reptilt.replicated import (RMap, SummandMaps, _layout, block_map,
                                direct_sum, hom_basis_r, hom_space,
                                identity_rmap, injective, kernel,
                                map_from_projectives, projective,
                                radical_subspaces, summand_offsets,
                                summands_of, zero_rmap)
from reptilt.tilting import certify


# -- block-diagonal matrices --------------------------------------------

def block_diag(mats, field=QQ):
    """The block-diagonal matrix of ``mats``, each block copied in at the
    sums of the shapes before it: the reference for the structure maps of
    ``direct_sum``."""
    mats = list(mats)
    f = mats[0].field if mats else field
    out = Mat.zeros(sum(m.rows for m in mats), sum(m.cols for m in mats), f)
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            out.data[r0 + i][c0:c0 + m.cols] = m.data[i][:]
        r0 += m.rows
        c0 += m.cols
    return out


# -- base-quiver representations and the full grid of a module -------

class Rep:
    """A representation of the base quiver: a dim at every vertex and a
    matrix of shape dims[w] x dims[u] for every arrow a: u -> w, the zero
    matrix where ``maps`` gives none.  The form the base-quiver Hom
    reference reads."""

    def __init__(self, quiver, dims, maps, field=QQ):
        self.quiver = quiver
        self.field = field
        self.dims = {v: dims.get(v, 0) for v in quiver.vertices}
        self.maps = {}
        for a in quiver.arrows:
            m = maps.get(a.name)
            self.maps[a.name] = m if m is not None else Mat.zeros(
                self.dims[a.target], self.dims[a.source], field)


def simple_rep(v, quiver, field=QQ):
    return Rep(quiver, {v: 1}, {}, field)


def path_action(rep, p):
    """Composite of the arrow maps of ``rep`` along the path p: its
    component s(p) -> t(p)."""
    m = Mat.identity(rep.dims[p.source], rep.field)
    for name in p.arrows:
        m = rep.maps[name] * m
    return m


def structure_map(M, key):
    """The structure map ``key`` of M, keyed as ``RModule.maps`` keys it,
    with the zero matrix of its cells where M stores none."""
    src, tgt = _layout(M.algebra)[key]
    x = M.maps.get(key)
    return x if x is not None else Mat.zeros(M.dims(*tgt), M.dims(*src),
                                             M.algebra.field)


def level_rep(M, i):
    """Level i of M as a base-quiver representation."""
    q = M.algebra.quiver
    return Rep(q, {v: M.dims(i, v) for v in q.vertices},
               {a.name: structure_map(M, (i, a.name)) for a in q.arrows},
               M.algebra.field)


# -- base-quiver morphisms and Hom ------------------------------------

class AMap:
    """A morphism of representations (one matrix per vertex)."""

    def __init__(self, source, target, components, check=True):
        self.source = source
        self.target = target
        self.components = {}
        for v in source.quiver.vertices:
            c = components.get(v)
            if c is None:
                c = Mat.zeros(target.dims[v], source.dims[v], source.field)
            self.components[v] = c
        if check:
            self.validate()

    def validate(self):
        for v in self.source.quiver.vertices:
            c = self.components[v]
            if (c.rows, c.cols) != (self.target.dims[v], self.source.dims[v]):
                raise ValueError("component at %r has wrong shape" % (v,))
        for a in self.source.quiver.arrows:
            lhs = self.target.maps[a.name] * self.components[a.source]
            rhs = self.components[a.target] * self.source.maps[a.name]
            if lhs != rhs:
                raise ValueError("map does not commute with arrow %s" % a.name)


def _unknown_layout(M, N):
    """Offsets for vectorized morphism unknowns f_v (N.dims[v] x M.dims[v])."""
    offsets = {}
    total = 0
    for v in M.quiver.vertices:
        offsets[v] = total
        total += N.dims[v] * M.dims[v]
    return offsets, total


def _vec_to_amap(M, N, offsets, vec):
    comps = {}
    for v in M.quiver.vertices:
        r, c = N.dims[v], M.dims[v]
        base = offsets[v]
        comps[v] = Mat(r, c, [[vec[base + i * c + j] for j in range(c)]
                              for i in range(r)], M.field)
    return AMap(M, N, comps, check=False)


def hom_basis(M, N):
    """Canonical basis of Hom(M, N) for representations of the same quiver."""
    if M.quiver is not N.quiver and M.quiver.to_json() != N.quiver.to_json():
        raise ValueError("quiver mismatch")
    offsets, total = _unknown_layout(M, N)
    rows = []
    f = M.field
    zero = f.zero
    for a in M.quiver.arrows:
        u, w = a.source, a.target
        Na, Ma = N.maps[a.name], M.maps[a.name]
        # N_a f_u - f_w M_a = 0, entrywise (i in N.dims[w], j in M.dims[u])
        for i in range(N.dims[w]):
            for j in range(M.dims[u]):
                row = [zero] * total
                cu = M.dims[u]
                for k in range(N.dims[u]):
                    if Na.data[i][k]:
                        row[offsets[u] + k * cu + j] = Na.data[i][k]
                cw = M.dims[w]
                for l in range(M.dims[w]):
                    if Ma.data[l][j]:
                        idx = offsets[w] + i * cw + l
                        row[idx] = row[idx] - Ma.data[l][j]
                rows.append(row)
    sys = Mat(len(rows), total, rows, f) if rows else Mat.zeros(0, total, f)
    ker = kernel_basis(sys)
    return [_vec_to_amap(M, N, offsets, ker.basis.col(k))
            for k in range(ker.dim)]


# -- predicates over the replicated algebra ---------------------------

def hom_dim(M, N):
    return len(hom_basis_r(M, N))


def all_of_kind(parts, kind):
    """True when each indecomposable in ``parts`` is isomorphic to some
    ``kind(alg, v, i)``, for ``kind`` = ``projective`` or ``injective``."""
    return all(any(is_isomorphic(p, kind(p.algebra, v, i))
                   for v in p.algebra.quiver.vertices
                   for i in range(p.algebra.m + 1))
               for p in parts)


def is_tilting(M):
    """Tilting test with dual certificates; disagreement is fatal."""
    return certify(M.algebra, basic_summands(M)) is not None


def almost_complete(oracle):
    """Each almost complete part T_bar of the oracle's tilting modules, by
    the frozenset of T_bar's parts, the key of ``Catalog``: (T_bar's
    parts, its partners in oracle order).
    The census step of CI reads it as well."""
    out = {}
    for record in oracle:
        parts = [X for X, _ in record.pieces]
        for drop, X in enumerate(parts):
            rest = parts[:drop] + parts[drop + 1:]
            out.setdefault(frozenset(rest), (rest, []))[1].append(X)
    return out


def _inclusions(M):
    """(indecomposable summand, inclusion into M) pairs: a recorded direct
    sum through the inclusions of its summands, any other module through
    ``try_split``."""
    if M.is_zero():
        return []
    if "summands" in M.cache:
        split = zip(M.cache["summands"], SummandMaps(M, True))
    else:
        split = try_split(M)
        if split is None:
            return [(M, identity_rmap(M))]
    return [(sub, incl.compose(subincl)) for part, incl in split
            for sub, subincl in _inclusions(part)]


def decompose_with_maps(M):
    """(parts, inclusions, projections) realizing M as the direct sum."""
    pairs = _inclusions(M)
    parts = [p for p, _ in pairs]
    incls = [incl for _, incl in pairs]
    S, _, projs = direct_sum(M.algebra, parts)
    iso = block_map(S, M, [incls])
    if not iso.is_iso():
        raise RuntimeError("decomposition does not reassemble to the module")
    back = hom_space(M, S)
    sol = hom_space(M, M).solve([iso.compose(h) for h in back.basis],
                                [identity_rmap(M)])
    inv = back.combine(sol.col(0))
    return parts, incls, [p.compose(inv) for p in projs]


def _base_rep_faithful(rep):
    """Faithfulness over the base path algebra: the path actions are
    linearly independent in (+) Hom(N_u, N_w) (zero annihilator)."""
    q = rep.quiver
    field = rep.field
    offsets = {}
    total = 0
    for u in q.vertices:
        for w in q.vertices:
            offsets[(u, w)] = total
            total += rep.dims[u] * rep.dims[w]
    m = Mat.zeros(max(total, 1), len(q.paths), field)
    for j, p in enumerate(q.paths):
        mat = path_action(rep, p)
        off = offsets[(p.source, p.target)]
        k = 0
        for row in mat.data:
            for x in row:
                m.data[off + k][j] = x
                k += 1
    return rank(m) == len(q.paths)


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


def contains_matrix(space, cols):
    """True if every column of ``cols`` lies in the Subspace ``space``."""
    return rank(Mat.hstack([space.basis, cols])) == space.dim


def is_radical_valued(f):
    """True when the image of f lies in the radical of its target."""
    rad = radical_subspaces(f.target)
    return all(contains_matrix(rad[c], column_space(m).basis)
               for c, m in f.comps.items())


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


# -- AR translation, almost split sequences, the AR quiver ------------

def iota_path_map(alg, p):
    """The map I(t(p), m) -> I(s(p), m) between the level-m injectives
    induced by the path p (dual of left multiplication): r* -> x* when
    r = (x then p)."""
    src = injective(alg, p.target, alg.m)
    tgt = injective(alg, p.source, alg.m)
    comps = {}
    for u in alg.quiver.vertices:
        rs = alg.quiver.paths_between(u, p.target)
        index = {x.arrows: k for k, x in
                 enumerate(alg.quiver.paths_between(u, p.source))}
        m = Mat.zeros(len(index), len(rs), alg.field)
        for c, r in enumerate(rs):
            cut = len(r.arrows) - len(p.arrows)
            if cut >= 0 and r.arrows[cut:] == p.arrows:
                m.data[index[r.arrows[:cut]]][c] = alg.field.one
        comps[(alg.m, u)] = m
    return RMap(src, tgt, comps, check=False)


def _nu_block(alg, coords, v, i, w, j):
    """nu of the map P(v,i) -> P(w,j) sending the generator to ``coords``
    in P(w,j) at (i,v), as a map I(v,i) -> I(w,j)."""
    if i < alg.m:
        gen = Mat.column(coords, alg.field)
        return map_from_projectives(projective(alg, v, i + 1),
                                    injective(alg, w, j), [(v, i + 1, gen)])
    # source I(v,m) is the embedded base injective; only j = m can be hit
    if j < alg.m:
        if any(coords):
            raise RuntimeError("impossible Nakayama block")
        return zero_rmap(injective(alg, v, alg.m), injective(alg, w, j))
    paths = alg.quiver.paths_between(w, v)
    return sum((iota_path_map(alg, p).scale(c)
                for c, p in zip(coords, paths) if c),
               zero_rmap(injective(alg, v, alg.m), injective(alg, w, alg.m)))


def translate(M):
    """The AR translation: kernel of nu applied to a minimal projective
    presentation P1 -> P0, read at the generators of P1."""
    alg = M.algebra
    res = minimal_resolution(M)
    if res.length == 0:
        raise ValueError("translation of a projective module")
    nu0, nu1 = (direct_sum(alg, [injective(alg, v, i) for (v, i) in labels])[0]
                for labels in res.summands[:2])
    gens = _at_generators(res.maps[0], res.summands[1])
    parts = summands_of(res.modules[0])

    def coords(k, l):
        v, i = res.summands[1][l]
        cut = summand_offsets(parts, i, v)
        return [gens[l].data[r][0] for r in range(cut[k], cut[k + 1])]

    total = block_map(nu1, nu0, [
        [_nu_block(alg, coords(k, l), v, i, w, j)
         for l, (v, i) in enumerate(res.summands[1])]
        for k, (w, j) in enumerate(res.summands[0])])
    K, _ = kernel(total)
    return K


def almost_split_sequence(N):
    """The almost split sequence ending at a non-projective indecomposable,
    realized from the unique extension class: (tau N, E, N, incl, proj)."""
    t = translate(N)
    classes = ext1_classes(N, t)
    if len(classes) != 1:
        raise RuntimeError("expected a one-dimensional extension space, got %d"
                           % len(classes))
    E, iY, pX = realize_extension(N, t, classes[0])
    S, _, _ = direct_sum(N.algebra, [t, N])
    if is_isomorphic(E, S):
        raise RuntimeError("almost split candidate splits")
    return t, E, N, iY, pX


def _rad_basis(X, Y):
    """Basis of rad(X, Y) for indecomposables X, Y."""
    if X.dim_grid() == Y.dim_grid() and is_isomorphic(X, Y):
        if X is Y:
            return end_radical_basis(X)
        # align through an isomorphism so rad is computed in Hom(X, Y)
        iso = next(h for h in hom_basis_r(X, Y) if h.is_iso())
        return [iso.compose(r) for r in end_radical_basis(X)]
    return hom_basis_r(X, Y)


def verify_right_almost_split(pX, nodes):
    """Every radical map X -> N from an enumerated indecomposable factors
    through the almost split epi pX: E -> N."""
    N = pX.target
    E = pX.source
    for X in nodes:
        rad = _rad_basis(X, N)
        if not rad:
            continue
        through = [pX.compose(b) for b in hom_basis_r(X, E)]
        if hom_space(X, N).solve(through, rad) is None:
            return False
    return True


class ARQuiver:
    """Nodes, irreducible-map multiplicities, and the translation."""

    def __init__(self, algebra, nodes, arrows, translation):
        self.algebra = algebra
        self.nodes = nodes
        self.arrows = arrows           # {(i, j): multiplicity}
        self.translation = translation  # {j: i} meaning tau(nodes[j]) = nodes[i]


def ar_quiver(alg):
    """Knit the AR quiver of a representation-finite replicated algebra."""
    nodes = enumerate_indecomposables(alg)

    def rad(i, j):
        if i == j:
            return end_radical_basis(nodes[i])
        return hom_basis_r(nodes[i], nodes[j])

    arrows = {}
    n = len(nodes)
    for i in range(n):
        for j in range(n):
            rb = rad(i, j)
            if not rb:
                continue
            sq = [g2.compose(g1) for k in range(n)
                  for g1 in rad(i, k) for g2 in rad(k, j)]
            space = hom_space(nodes[i], nodes[j])
            mult = rank(space.matrix(rb)) - rank(space.matrix(sq))
            if mult:
                arrows[(i, j)] = mult
    translation = {}
    for j, N in enumerate(nodes):
        if is_projective(N):
            continue
        t = translate(N)
        translation[j] = next(i for i, X in enumerate(nodes)
                              if t.dim_grid() == X.dim_grid()
                              and is_isomorphic(t, X))
    return ARQuiver(alg, nodes, arrows, translation)
