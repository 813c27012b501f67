"""Representations of the base quiver: projectives and injectives.

Left modules over the path algebra are quiver representations: an arrow
a: u -> w acts as a matrix of shape dims[w] x dims[u].
"""

from __future__ import annotations

from .field import QQ
from .linalg import Mat
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

    def __repr__(self):
        return "Rep(%s)" % ({v: d for v, d in self.dims.items() if d},)


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
