"""Representations of the base quiver: morphism spaces, projectives,
injectives, and the dual-of-algebra tensor functor.

Left modules over the path algebra are quiver representations: an arrow
a: u -> w acts as a matrix of shape dims[w] x dims[u].
"""

from __future__ import annotations

from .field import QQ
from .linalg import (Mat, Subspace, column_space, kernel_basis, quotient_basis,
                     rank)
from .quiver import Path


class Rep:
    """A finite-dimensional representation of an acyclic quiver."""

    def __init__(self, quiver, dims, maps, field=QQ, check=True):
        self.quiver = quiver
        self.dims = {v: int(dims.get(v, 0)) for v in quiver.vertices}
        self.field = field
        self.maps = {}
        for a in quiver.arrows:
            m = maps.get(a.name)
            if m is None:
                m = Mat.zeros(self.dims[a.target], self.dims[a.source], field)
            self.maps[a.name] = m
        if check:
            for a in quiver.arrows:
                m = self.maps[a.name]
                if (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                    raise ValueError("map for arrow %s has shape %dx%d, want %dx%d"
                                     % (a.name, m.rows, m.cols,
                                        self.dims[a.target], self.dims[a.source]))

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def is_zero(self):
        return self.total_dim == 0

    def __repr__(self):
        return "Rep(%s)" % ({v: d for v, d in self.dims.items() if d},)

    def path_action(self, p):
        """Composite of arrow maps along path p: component s(p) -> t(p)."""
        m = Mat.identity(self.dims[p.source], self.field)
        for name in p.arrows:
            m = self.maps[name] * m
        return m


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

    def compose(self, other):
        """self o other (apply other first)."""
        assert other.target is self.source or other.target.dims == self.source.dims
        return AMap(other.source, self.target,
                    {v: self.components[v] * other.components[v]
                     for v in self.source.quiver.vertices}, check=False)

    def __add__(self, other):
        return AMap(self.source, self.target,
                    {v: self.components[v] + other.components[v]
                     for v in self.source.quiver.vertices}, check=False)

    def __sub__(self, other):
        return AMap(self.source, self.target,
                    {v: self.components[v] - other.components[v]
                     for v in self.source.quiver.vertices}, check=False)

    def scale(self, c):
        return AMap(self.source, self.target,
                    {v: self.components[v].scale(c)
                     for v in self.source.quiver.vertices}, check=False)

    def is_zero(self):
        return all(m.is_zero() for m in self.components.values())

    def total_rank(self):
        return sum(rank(m) for m in self.components.values())

    def is_mono(self):
        return self.total_rank() == self.source.total_dim

    def is_epi(self):
        return self.total_rank() == self.target.total_dim

    def is_iso(self):
        return (self.source.total_dim == self.target.total_dim
                and self.is_mono())

    def __repr__(self):
        return "AMap(%r -> %r)" % (self.source, self.target)


def zero_amap(source, target):
    return AMap(source, target, {}, check=False)


def identity_amap(m):
    return AMap(m, m, {v: Mat.identity(m.dims[v], m.field)
                       for v in m.quiver.vertices}, check=False)


# -- Hom spaces -------------------------------------------------------

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


# -- structural representations --------------------------------------

def projective_rep(v, quiver, field=QQ):
    """The projective at v: path basis = paths with source v."""
    basis = {w: [p for p in quiver.paths_from(v) if p.target == w]
             for w in quiver.vertices}
    dims = {w: len(basis[w]) for w in quiver.vertices}
    maps = {}
    for a in quiver.arrows:
        u, w = a.source, a.target
        m = Mat.zeros(dims[w], dims[u], field)
        index_w = {p: i for i, p in enumerate(basis[w])}
        for j, p in enumerate(basis[u]):
            ext = Path(p.source, w, p.arrows + (a.name,))
            m.data[index_w[ext]][j] = field.one
        maps[a.name] = m
    rep = Rep(quiver, dims, maps, field, check=False)
    rep.path_basis = basis
    return rep


def injective_rep(v, quiver, field=QQ):
    """The injective at v: dual basis = functionals on paths with target v."""
    basis = {w: [p for p in quiver.paths_into(v) if p.source == w]
             for w in quiver.vertices}
    dims = {w: len(basis[w]) for w in quiver.vertices}
    maps = {}
    for a in quiver.arrows:
        u, w = a.source, a.target
        m = Mat.zeros(dims[w], dims[u], field)
        index_w = {p: i for i, p in enumerate(basis[w])}
        for j, p in enumerate(basis[u]):
            # a . p* = (p minus leading arrow)* when p starts with a
            if p.arrows and p.arrows[0] == a.name:
                stripped = Path(w, p.target, p.arrows[1:])
                m.data[index_w[stripped]][j] = field.one
        maps[a.name] = m
    rep = Rep(quiver, dims, maps, field, check=False)
    rep.path_basis = basis
    return rep


def simple_rep(v, quiver, field=QQ):
    return Rep(quiver, {v: 1}, {}, field, check=False)


def zero_rep(quiver, field=QQ):
    return Rep(quiver, {}, {}, field, check=False)


# -- the functor DA (x)_A -  ------------------------------------------

class DualTensorData:
    """Canonical model of DA (x)_A M for a representation M.

    The ambient space at vertex w has basis (p, j) over paths p with source w
    and basis indices j of M at t(p); the canonical echelon quotient by the
    bimodule relations gives the representation ``rep`` together with
    projection/section matrices per vertex.
    """

    def __init__(self, M):
        quiver = M.quiver
        f = M.field
        self.M = M
        self.amb_basis = {}
        self.amb_index = {}
        self.proj = {}
        self.sect = {}
        for w in quiver.vertices:
            basis = []
            for p in quiver.paths_from(w):
                for j in range(M.dims[p.target]):
                    basis.append((p, j))
            self.amb_basis[w] = basis
            self.amb_index[w] = {bj: i for i, bj in enumerate(basis)}
        rel_cols = {w: [] for w in quiver.vertices}
        for a in quiver.arrows:
            u, u2 = a.source, a.target
            Ma = M.maps[a.name]
            for p in quiver.paths:
                if p.target != u2:
                    continue
                w = p.source
                amb = self.amb_index[w]
                n_amb = len(self.amb_basis[w])
                for j in range(M.dims[u]):
                    col = [f.zero] * n_amb
                    # (p* . a) (x) m_j  =  q* (x) m_j  when p = (q then a)
                    if p.arrows and p.arrows[-1] == a.name:
                        q = Path(w, u, p.arrows[:-1])
                        col[amb[(q, j)]] = col[amb[(q, j)]] + f.one
                    # minus p* (x) (a . m_j)
                    for k in range(M.dims[u2]):
                        if Ma.data[k][j]:
                            col[amb[(p, k)]] = col[amb[(p, k)]] - Ma.data[k][j]
                    if any(col):
                        rel_cols[w].append(col)
        dims = {}
        for w in quiver.vertices:
            n_amb = len(self.amb_basis[w])
            if rel_cols[w]:
                relmat = Mat(n_amb, len(rel_cols[w]),
                             [[rel_cols[w][c][r] for c in range(len(rel_cols[w]))]
                              for r in range(n_amb)], f)
                sub = column_space(relmat)
            else:
                sub = Subspace(n_amb, Mat.zeros(n_amb, 0, f), [])
            proj, sect = quotient_basis(n_amb, sub)
            self.proj[w] = proj
            self.sect[w] = sect
            dims[w] = proj.rows
        maps = {}
        for b in quiver.arrows:
            w, w2 = b.source, b.target
            amb_src = self.amb_basis[w]
            amb_tgt_index = self.amb_index[w2]
            big = Mat.zeros(len(self.amb_basis[w2]), len(amb_src), f)
            for j, (p, mj) in enumerate(amb_src):
                # b . p* = (p minus leading arrow)* when p starts with b
                if p.arrows and p.arrows[0] == b.name:
                    q = Path(w2, p.target, p.arrows[1:])
                    big.data[amb_tgt_index[(q, mj)]][j] = f.one
            maps[b.name] = self.proj[w2] * big * self.sect[w]
        self.rep = Rep(quiver, dims, maps, f, check=False)


def dual_tensor_data(M):
    if not hasattr(M, "_dual_tensor"):
        M._dual_tensor = DualTensorData(M)
    return M._dual_tensor


def dual_tensor(M):
    """The representation DA (x)_A M."""
    return dual_tensor_data(M).rep


def dual_tensor_map(f):
    """Functorial action of DA (x)_A - on a morphism."""
    M, N = f.source, f.target
    dM, dN = dual_tensor_data(M), dual_tensor_data(N)
    comps = {}
    for w in M.quiver.vertices:
        big = Mat.zeros(len(dN.amb_basis[w]), len(dM.amb_basis[w]), M.field)
        idxN = dN.amb_index[w]
        for j, (p, mj) in enumerate(dM.amb_basis[w]):
            fc = f.components[p.target]
            for k in range(N.dims[p.target]):
                if fc.data[k][mj]:
                    big.data[idxN[(p, k)]][j] = fc.data[k][mj]
        comps[w] = dN.proj[w] * big * dM.sect[w]
    return AMap(dM.rep, dN.rep, comps, check=False)


def projective_connector(v, quiver, field=QQ):
    """The canonical isomorphism DA (x)_A (A e_v) -> D(e_v A).

    Sends the class of p* (x) q (q a path from v) to the functional r* with
    p = (r then q), when such r exists.
    """
    P = projective_rep(v, quiver, field)
    I = injective_rep(v, quiver, field)
    dP = dual_tensor_data(P)
    comps = {}
    for w in quiver.vertices:
        amb = dP.amb_basis[w]
        iv_basis = I.path_basis[w]
        iv_index = {p: i for i, p in enumerate(iv_basis)}
        pairing = Mat.zeros(len(iv_basis), len(amb), field)
        for j, (p, qj) in enumerate(amb):
            q = P.path_basis[p.target][qj]  # path v -> t(p)
            nq = len(q.arrows)
            if nq == 0:
                r = p
            elif len(p.arrows) >= nq and p.arrows[-nq:] == q.arrows:
                r = Path(p.source, v, p.arrows[:-nq])
            else:
                continue
            if r.target == v:
                pairing.data[iv_index[r]][j] = field.one
        comps[w] = pairing * dP.sect[w]
    return AMap(dP.rep, I, comps, check=False)
