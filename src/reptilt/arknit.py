"""Auslander-Reiten translation via the Nakayama functor, enumeration of
indecomposables for representation-finite instances, and the AR quiver."""

from __future__ import annotations

from .homological import (cokernel, ext1_classes, injective_envelope_with_data,
                          minimal_resolution, realize_extension)
from .krullschmidt import (all_of_kind, end_radical_basis, is_indecomposable,
                           is_isomorphic)
from .linalg import Mat, rank
from .replicated import (RMap, block_map, blocks, direct_sum, hom_basis_r,
                         hom_space, injective, kernel, map_from_projective,
                         projective, zero_rmap)


def iota_path_map(alg, p):
    """The map I(t(p), m) -> I(s(p), m) between the level-m injectives
    induced by the path p (dual of left multiplication): r* -> x* when
    r = (x then p)."""
    src = injective(alg, p.target, alg.m)
    tgt = injective(alg, p.source, alg.m)
    comps = {}
    for u in alg.quiver.vertices:
        rs = src.levels[alg.m].path_basis[u]
        index = {x.arrows: k
                 for k, x in enumerate(tgt.levels[alg.m].path_basis[u])}
        m = Mat.zeros(len(index), len(rs), alg.field)
        for c, r in enumerate(rs):
            cut = len(r.arrows) - len(p.arrows)
            if cut >= 0 and r.arrows[cut:] == p.arrows:
                m.data[index[r.arrows[:cut]]][c] = alg.field.one
        comps[(alg.m, u)] = m
    return RMap(src, tgt, comps, check=False)


def _nu_block(alg, f, v, i, w, j):
    """nu of a map P(v,i) -> P(w,j), as a map I(v,i) -> I(w,j)."""
    coords = [f.component(i, v).data[r][0]
              for r in range(f.component(i, v).rows)]
    if i < alg.m:
        return map_from_projective(alg, v, i + 1, injective(alg, w, j), coords)
    # source I(v,m) is the embedded base injective; only j = m can be hit
    if j < alg.m:
        if any(coords):
            raise RuntimeError("impossible Nakayama block")
        return zero_rmap(injective(alg, v, alg.m), injective(alg, w, j))
    paths = alg.base_projective(w).path_basis[v]
    return sum((iota_path_map(alg, p).scale(c)
                for c, p in zip(coords, paths) if c),
               zero_rmap(injective(alg, v, alg.m), injective(alg, w, alg.m)))


def translate(M):
    """The AR translation: kernel of nu applied to a minimal projective
    presentation."""
    alg = M.algebra
    res = minimal_resolution(M)
    if res.length == 0:
        raise ValueError("translation of a projective module")
    nu0, nu1 = (direct_sum(alg, [injective(alg, v, i) for (v, i) in labels])[0]
                for labels in res.summands[:2])
    d1 = blocks(res.maps[0])
    total = block_map(nu1, nu0, [
        [_nu_block(alg, d1[k][l], v, i, w, j)
         for l, (v, i) in enumerate(res.summands[1])]
        for k, (w, j) in enumerate(res.summands[0])])
    K, _ = kernel(total)
    return K


def _nu_inverse_block(alg, h, v, i, w, j):
    """nu-inverse of a map I(v,i) -> I(w,j), as a map P(v,i) -> P(w,j)."""
    if i < alg.m:
        comp = h.component(i + 1, v)
        coords = [comp.data[r][0] for r in range(comp.rows)]
        return map_from_projective(alg, v, i, projective(alg, w, j), coords)
    if j < alg.m:
        if not h.is_zero():
            raise RuntimeError("impossible inverse Nakayama block")
        return zero_rmap(projective(alg, v, alg.m), projective(alg, w, j))
    # decompose h over the path-induced maps I(v,m) -> I(w,m)
    paths = alg.base_projective(w).path_basis[v]
    iotas = [iota_path_map(alg, p) for p in paths]
    space = hom_space(injective(alg, v, alg.m), injective(alg, w, alg.m))
    sol = space.solve(iotas, [h])
    if sol is None:
        raise RuntimeError("level-m injective map is not path-induced")
    return map_from_projective(alg, v, alg.m, projective(alg, w, alg.m),
                               sol.col(0))


def translate_inverse(M):
    """The inverse AR translation: cokernel of nu-inverse applied to a
    minimal injective copresentation."""
    alg = M.algebra
    E0, mono, labels0 = injective_envelope_with_data(M)
    C, cproj = cokernel(mono)
    if C.is_zero():
        raise ValueError("inverse translation of an injective module")
    E1, mono1, labels1 = injective_envelope_with_data(C)
    g = blocks(mono1.compose(cproj))
    p0 = direct_sum(alg, [projective(alg, v, i) for (v, i) in labels0])[0]
    p1 = direct_sum(alg, [projective(alg, w, j) for (w, j) in labels1])[0]
    total = block_map(p0, p1, [
        [_nu_inverse_block(alg, g[k][l], v, i, w, j)
         for l, (v, i) in enumerate(labels0)]
        for k, (w, j) in enumerate(labels1)])
    C2, _ = cokernel(total)
    return C2


def is_dynkin(quiver):
    """Underlying graph is of type A, D or E."""
    n = len(quiver.vertices)
    if len(quiver.arrows) != n - 1:
        return False
    deg = {v: 0 for v in quiver.vertices}
    seen = set()
    for a in quiver.arrows:
        key = frozenset((a.source, a.target))
        if key in seen or len(key) == 1:
            return False
        seen.add(key)
        deg[a.source] += 1
        deg[a.target] += 1
    if any(d > 3 for d in deg.values()):
        return False
    branch = [v for v, d in deg.items() if d == 3]
    if not branch:
        return True                      # type A
    if len(branch) > 1:
        return False
    # arm lengths from the branch vertex
    adj = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        adj[a.source].append(a.target)
        adj[a.target].append(a.source)
    b = branch[0]
    arms = []
    for start in adj[b]:
        length, prev, cur = 1, b, start
        while True:
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return True                      # type D
    return arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4])   # E6, E7, E8


def enumerate_indecomposables(alg):
    """All indecomposables of a representation-finite replicated algebra,
    as the closure of the projectives under inverse translation."""
    if not is_dynkin(alg.quiver):
        raise ValueError("enumeration requires a Dynkin base quiver")
    nodes = []

    def known(M):
        return any(M.dim_grid() == N.dim_grid() and is_isomorphic(M, N)
                   for N in nodes)

    queue = [projective(alg, v, i) for i, v in alg.cells]
    while queue:
        M = queue.pop(0)
        if known(M):
            continue
        if not is_indecomposable(M):
            raise RuntimeError("orbit produced a decomposable module")
        nodes.append(M)
        if not all_of_kind([M], injective):
            queue.append(translate_inverse(M))
    nodes.sort(key=lambda N: (N.total_dim, N.dim_grid().key()))
    return nodes


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
        if all_of_kind([N], projective):
            continue
        t = translate(N)
        translation[j] = next(i for i, X in enumerate(nodes)
                              if t.dim_grid() == X.dim_grid()
                              and is_isomorphic(t, X))
    return ARQuiver(alg, nodes, arrows, translation)
