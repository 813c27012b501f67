"""Representations of the base quiver: morphisms, Hom spaces, projectives,
injectives and simples.

Left modules over the path algebra are quiver representations: an arrow
a: u -> w acts as a matrix of shape dims[w] x dims[u].
"""

from __future__ import annotations

from .field import QQ
from .linalg import Mat, kernel_basis
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
            for name in sorted(set(maps) - set(self.maps), key=str):
                raise ValueError("no arrow named %r in the quiver" % (name,))
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
