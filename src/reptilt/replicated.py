"""The m-replicated algebra of a hereditary path algebra and its modules.

The replicated algebra is the triangular matrix algebra with m + 1 copies of
A on the diagonal and DA below it, so a module is a tuple of base-quiver
representations M_0..M_m (one per level) together with connectors
phi_j: DA (x)_A M_{j+1} -> M_j.  A connector is stored as the action of the
basis of DA: one matrix per path p: w -> u of the base quiver, from
(M_{j+1})_u to (M_j)_w, the image of p* (x) x.  Level 0 is the copy whose
projectives stay projective over the replicated algebra; connectors point
downward, so a projective-injective P(v,i) has its top at level i and its
socle at level i-1.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from types import MappingProxyType

from .field import QQ
from .hereditary import (Rep, injective_rep, projective_rep, simple_rep,
                         zero_rep)
from .linalg import (Mat, column_space, kernel_basis, quotient_basis, rank,
                     solve_matrix)
from .quiver import Path


class ReplicatedAlgebra:
    """The m-replicated algebra of the path algebra of an acyclic quiver."""

    def __init__(self, quiver, m, field=QQ):
        if m < 1:
            raise ValueError("replication degree must be >= 1")
        self.quiver = quiver
        self.m = m
        self.field = field
        self.n = len(quiver.vertices)
        self.delta = (m + 1) * self.n
        # the (level, vertex) pairs, levels 0..m and vertices in quiver order
        self.cells = [(i, v) for i in range(m + 1) for v in quiver.vertices]
        dim_a = len(quiver.paths)
        self.dim = (m + 1) * dim_a + m * dim_a
        self._base_proj = {}
        self._base_inj = {}
        self.cache = {}

    def base_projective(self, v):
        if v not in self._base_proj:
            self._base_proj[v] = projective_rep(v, self.quiver, self.field)
        return self._base_proj[v]

    def base_injective(self, v):
        if v not in self._base_inj:
            self._base_inj[v] = injective_rep(v, self.quiver, self.field)
        return self._base_inj[v]

    def __repr__(self):
        return "ReplicatedAlgebra(%r, m=%d)" % (self.quiver.vertices, self.m)


class RModule:
    """A module over a replicated algebra: level representations plus
    downward connectors, ``connectors[j][p]`` the action of p* from level
    j + 1 to level j.  A missing path acts as zero."""

    def __init__(self, algebra, levels, connectors, check=True):
        self.algebra = algebra
        self.levels = list(levels)
        if len(self.levels) != algebra.m + 1:
            raise ValueError("expected %d levels" % (algebra.m + 1))
        if len(connectors) != algebra.m:
            raise ValueError("expected %d connectors" % algebra.m)
        f = algebra.field
        self.connectors = [
            {p: conn[p] if p in conn else
             Mat.zeros(lo.dims[p.source], hi.dims[p.target], f)
             for p in algebra.quiver.paths}
            for conn, lo, hi in zip(connectors, self.levels, self.levels[1:])]
        self.cache = {}
        if check:
            self.validate()

    def validate(self):
        """The module axioms: the shape of each structure map, the right
        rule (p* a = (p minus a)* when p ends with a, else 0), the left rule
        (a p* = (p minus a)* when p starts with a, else 0) and DA.DA = 0."""
        for src, tgt, key, x in _structure_maps(self, every=True):
            want = (self.dims(*tgt), self.dims(*src))
            if (x.rows, x.cols) != want:
                raise ValueError("%s has shape %dx%d, want %dx%d"
                                 % ((_structure_name(key), x.rows, x.cols)
                                    + want))
        quiver = self.algebra.quiver
        for j, conn in enumerate(self.connectors):
            lo, hi = self.levels[j], self.levels[j + 1]
            for a in quiver.arrows:
                for p in quiver.paths_into(a.target):
                    got = conn[p] * hi.maps[a.name]
                    if p.arrows[-1:] == (a.name,):
                        q = Path(p.source, a.source, p.arrows[:-1])
                        ok = got == conn[q]
                    else:
                        ok = got.is_zero()
                    if not ok:
                        raise ValueError("connector %d breaks the right rule "
                                         "at path %s and arrow %s"
                                         % (j, _path_name(p), a.name))
                for p in quiver.paths_from(a.source):
                    got = lo.maps[a.name] * conn[p]
                    if p.arrows[:1] == (a.name,):
                        q = Path(a.target, p.target, p.arrows[1:])
                        ok = got == conn[q]
                    else:
                        ok = got.is_zero()
                    if not ok:
                        raise ValueError("connector %d breaks the left rule "
                                         "at arrow %s and path %s"
                                         % (j, a.name, _path_name(p)))
        for j in range(1, self.algebra.m):
            lower, upper = self.connectors[j - 1], self.connectors[j]
            for p in quiver.paths:
                for q in quiver.paths_from(p.target):
                    if not (lower[p] * upper[q]).is_zero():
                        raise ValueError("connector composite does not "
                                         "vanish at %d" % j)

    @property
    def total_dim(self):
        return sum(l.total_dim for l in self.levels)

    def is_zero(self):
        return self.total_dim == 0

    def dims(self, i, v):
        return self.levels[i].dims[v]

    def dim_grid(self):
        """The module's DimGrid, built once: no module's dims change after
        it is constructed."""
        grid = self.cache.get("dim_grid")
        if grid is None:
            grid = self.cache["dim_grid"] = DimGrid(
                {(i, v): d for i, v in self.algebra.cells
                 if (d := self.levels[i].dims[v])})
        return grid

    def __repr__(self):
        return "RModule(%s)" % self.dim_grid()


def _path_name(p):
    return ".".join(p.arrows) if p.arrows else "e%s" % (p.source,)


def _structure_maps(M, paths=None, every=False):
    """Each structure map of M as (source cell, target cell, key, matrix):
    first each arrow a at each level i, key (i, a.name), then each connector
    p* from (j + 1, t(p)) to (j, s(p)), key (j, p), for p in ``paths`` (every
    path by default), only those between two nonzero cells unless ``every``.
    The only code that knows how the maps are laid out; ``_module_from_maps``
    is its inverse.  The cells and keys depend only on the algebra, so they
    are built once per algebra and choice of paths."""
    alg = M.algebra
    memo = ("structure maps", None if paths is None else tuple(paths))
    layout = alg.cache.get(memo)
    if layout is None:
        quiver = alg.quiver
        layout = alg.cache[memo] = (
            [((i, a.source), (i, a.target), (i, a.name))
             for i in range(alg.m + 1) for a in quiver.arrows],
            [((j + 1, p.target), (j, p.source), (j, p))
             for j in range(alg.m)
             for p in (quiver.paths if paths is None else paths)])
    arrows, connectors = layout
    support = M.dim_grid().entries
    for src, tgt, key in arrows:
        if every or (src in support and tgt in support):
            yield src, tgt, key, M.levels[key[0]].maps[key[1]]
    for src, tgt, key in connectors:
        if every or (src in support and tgt in support):
            yield src, tgt, key, M.connectors[key[0]][key[1]]


def _structure_name(key):
    i, x = key
    if isinstance(x, Path):
        return "connector %d at path %s" % (i, _path_name(x))
    return "arrow %s at level %d" % (x, i)


def _module_from_maps(alg, dims, maps):
    """The unchecked RModule with ``dims[(i, v)]`` at each cell and the
    structure maps ``maps``, keyed as ``_structure_maps`` keys them; a
    missing key is zero."""
    levels = [{} for _ in range(alg.m + 1)]
    conns = [{} for _ in range(alg.m)]
    for (i, x), mat in maps.items():
        (conns if isinstance(x, Path) else levels)[i][x] = mat
    quiver = alg.quiver
    return RModule(alg, [Rep(quiver, {v: dims[(i, v)] for v in quiver.vertices},
                             lmaps, alg.field, check=False)
                         for i, lmaps in enumerate(levels)],
                   conns, check=False)


class DimGrid:
    """Canonical printable signature of a module: (level, vertex) -> dim.
    Read-only, so one grid can be shared by every caller of
    ``RModule.dim_grid``."""

    __slots__ = ("entries", "_key")

    def __init__(self, entries):
        self.entries = MappingProxyType(
            {k: int(d) for k, d in entries.items() if d})
        self._key = tuple(sorted((i, str(v), d)
                                 for (i, v), d in self.entries.items()))

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, DimGrid) and self.entries == other.entries

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        if not self.entries:
            return "0"
        levels = sorted({i for i, _ in self.entries})
        parts = []
        for i in levels:
            at = {v: d for (j, v), d in self.entries.items() if j == i}
            inner = ",".join("%s:%d" % (v, at[v])
                             for v in sorted(at, key=str))
            parts.append("L%d{%s}" % (i, inner))
        return "|".join(parts)

    def __repr__(self):
        return "DimGrid(%s)" % self


class RMap:
    """A morphism of replicated-algebra modules: one matrix per (level,
    vertex), ``comps[(i, v)]`` from the source at (i, v) to the target
    there, kept in ``cells`` order.  A missing cell is zero."""

    def __init__(self, source, target, comps, check=True):
        self.source = source
        self.target = target
        f = source.algebra.field
        self.comps = {c: comps[c] if c in comps else
                      Mat.zeros(target.dims(*c), source.dims(*c), f)
                      for c in source.algebra.cells}
        if check:
            self.validate()

    def validate(self):
        """The shape of each cell and commutation with each structure map:
        the arrows at each level and the connector matrices.  A map x from
        cell s to cell t gives an equation from M at s to N at t, empty
        when either is zero."""
        M, N = self.source, self.target
        for (i, v), c in self.comps.items():
            want = (N.dims(i, v), M.dims(i, v))
            if (c.rows, c.cols) != want:
                raise ValueError("component at level %d, vertex %r has shape "
                                 "%dx%d, want %dx%d"
                                 % ((i, v, c.rows, c.cols) + want))
        for (src, tgt, key, x), (*_, y) in zip(_structure_maps(M, every=True),
                                               _structure_maps(N, every=True)):
            if (M.dims(*src) and N.dims(*tgt)
                    and y * self.comps[src] != self.comps[tgt] * x):
                raise ValueError("map does not commute with %s"
                                 % _structure_name(key))

    def component(self, i, v):
        return self.comps[(i, v)]

    def compose(self, other):
        return RMap(other.source, self.target,
                    {c: m * other.comps[c] for c, m in self.comps.items()},
                    check=False)

    def __add__(self, other):
        return RMap(self.source, self.target,
                    {c: m + other.comps[c] for c, m in self.comps.items()},
                    check=False)

    def __sub__(self, other):
        return RMap(self.source, self.target,
                    {c: m - other.comps[c] for c, m in self.comps.items()},
                    check=False)

    def scale(self, c):
        return RMap(self.source, self.target,
                    {cell: m.scale(c) for cell, m in self.comps.items()},
                    check=False)

    def is_zero(self):
        return all(m.is_zero() for m in self.comps.values())

    def total_rank(self):
        return sum(rank(m) for m in self.comps.values())

    def is_mono(self):
        return self.total_rank() == self.source.total_dim

    def is_epi(self):
        return self.total_rank() == self.target.total_dim

    def is_iso(self):
        return (self.source.total_dim == self.target.total_dim
                and self.is_mono())

    def __repr__(self):
        return "RMap(%s -> %s)" % (self.source.dim_grid(), self.target.dim_grid())


def zero_rmap(M, N):
    return RMap(M, N, {}, check=False)


def identity_rmap(M):
    f = M.algebra.field
    return RMap(M, M, {c: Mat.identity(M.dims(*c), f)
                       for c in M.algebra.cells}, check=False)


# -- structural modules ----------------------------------------------

def zero_module(alg):
    z = [zero_rep(alg.quiver, alg.field) for _ in range(alg.m + 1)]
    return RModule(alg, z, [{}] * alg.m, check=False)


def embed_level(alg, rep, i):
    """Place a base representation at level i with zero connectors."""
    if not 0 <= i <= alg.m:
        raise ValueError("level out of range")
    levels = [zero_rep(alg.quiver, alg.field) for _ in range(alg.m + 1)]
    levels[i] = rep
    return RModule(alg, levels, [{}] * alg.m, check=False)


def projective(alg, v, i):
    """P(v, i): for i=0 the level-0 copy of A e_v; for i>=1 the
    projective-injective with top at level i and socle at level i-1."""
    if not 0 <= i <= alg.m:
        raise ValueError("level out of range")
    key = ("proj", v, i)
    if key in alg.cache:
        return alg.cache[key]
    if i == 0:
        mod = embed_level(alg, alg.base_projective(v), 0)
    else:
        levels = [zero_rep(alg.quiver, alg.field) for _ in range(alg.m + 1)]
        levels[i] = P = alg.base_projective(v)
        levels[i - 1] = I = alg.base_injective(v)
        conns = [{} for _ in range(alg.m)]
        # p* sends the basis path q of A e_v to r* when p = (r then q)
        for p in alg.quiver.paths:
            phi = Mat.zeros(I.dims[p.source], P.dims[p.target], alg.field)
            index = {r: k for k, r in enumerate(I.path_basis[p.source])}
            for c, q in enumerate(P.path_basis[p.target]):
                cut = len(p.arrows) - len(q.arrows)
                if cut >= 0 and p.arrows[cut:] == q.arrows:
                    k = index.get(Path(p.source, v, p.arrows[:cut]))
                    if k is not None:
                        phi.data[k][c] = alg.field.one
            conns[i - 1][p] = phi
        mod = RModule(alg, levels, conns, check=False)
    alg.cache[key] = mod
    return mod


def injective(alg, v, i):
    """I(v, i): equals P(v, i+1) below the top level; at level m it is the
    embedded base injective."""
    if not 0 <= i <= alg.m:
        raise ValueError("level out of range")
    if i < alg.m:
        return projective(alg, v, i + 1)
    key = ("inj", v, i)
    if key not in alg.cache:
        alg.cache[key] = embed_level(alg, alg.base_injective(v), alg.m)
    return alg.cache[key]


def simple(alg, v, i):
    key = ("simple", v, i)
    if key not in alg.cache:
        if not 0 <= i <= alg.m:
            raise ValueError("level out of range")
        alg.cache[key] = embed_level(alg, simple_rep(v, alg.quiver, alg.field), i)
    return alg.cache[key]


def regular_module(alg):
    """The algebra as a module over itself: direct sum of all P(v, i),
    levels m..0 with the vertices reversed (this order numbers the tilting
    quiver)."""
    key = ("regular",)
    if key not in alg.cache:
        mods = [projective(alg, v, i) for i in reversed(range(alg.m + 1))
                for v in reversed(alg.quiver.vertices)]
        alg.cache[key] = direct_sum(alg, mods)[0]
    return alg.cache[key]


# -- direct sums ------------------------------------------------------

def summands_of(M):
    """The modules M was built from by ``direct_sum``, or [M]."""
    return list(M.cache.get("summands") or [M])


def summand_offsets(mods, i, v):
    """Where each of ``mods`` starts in their direct sum at (level i,
    vertex v), followed by the total dimension there."""
    out = [0]
    for M in mods:
        out.append(out[-1] + M.levels[i].dims[v])
    return out


def direct_sum(alg, mods):
    """(S, inclusions, projections) for S the direct sum of ``mods``.  S
    records them in ``S.cache["summands"]``, so Krull-Schmidt splits S along
    them; each map is built when first read (``SummandMaps``)."""
    mods = list(mods)
    if not mods:
        return zero_module(alg), [], []
    cuts = {(i, v): summand_offsets(mods, i, v) for i, v in alg.cells}
    maps = {}   # summand k's nonzero maps, each at k's offsets; zero elsewhere
    for k, M in enumerate(mods):
        for src, tgt, key, x in _structure_maps(M):
            if key not in maps:
                maps[key] = Mat.zeros(cuts[tgt][-1], cuts[src][-1], alg.field)
            c0 = cuts[src][k]
            for r, row in enumerate(x.data, cuts[tgt][k]):
                maps[key].data[r][c0:c0 + x.cols] = row
    S = _module_from_maps(alg, {c: cut[-1] for c, cut in cuts.items()}, maps)
    S.cache["summands"] = mods
    return S, SummandMaps(S, True), SummandMaps(S, False)


class SummandMaps(Sequence):
    """The inclusions (``into``) or projections of the summands of a direct
    sum S, each built by ``summand_map`` when first read, then kept.  S does
    not refer to the sequence, so dropping it frees the maps it built."""

    def __init__(self, S, into):
        self._sum, self._into, self._maps = S, into, {}

    def __len__(self):
        return len(self._sum.cache["summands"])

    def __getitem__(self, k):
        k = range(len(self))[k]
        if k not in self._maps:
            self._maps[k] = summand_map(self._sum, k, self._into)
        return self._maps[k]


def summand_map(S, k, into):
    """The inclusion (``into``) or the projection of summand k of the
    recorded direct sum S: the identity block at k, zero blocks elsewhere."""
    parts = summands_of(S)
    grid = [identity_rmap(X) if l == k else
            zero_rmap(parts[k], X) if into else zero_rmap(X, parts[k])
            for l, X in enumerate(parts)]
    if into:
        return block_map(parts[k], S, [[b] for b in grid])
    return block_map(S, parts[k], [grid])


def block_map(source, target, grid):
    """The map (+)_l T_l -> (+)_k U_k with block (k, l) grid[k][l]: T_l ->
    U_k, laid out as ``direct_sum`` lays out the sums.  The layout is read
    off the blocks (the targets of a row, the sources of a column), so a
    recorded sum may stand as one block."""
    alg = source.algebra
    comps = {}
    for i, v in alg.cells:
        data = []
        for row in grid:
            mats = [b.comps[(i, v)] for b in row]
            data.extend(sum((m.data[r] for m in mats), [])
                        for r in range(mats[0].rows))
        comps[(i, v)] = Mat(target.levels[i].dims[v], source.levels[i].dims[v],
                            data, alg.field)
    return RMap(source, target, comps, check=False)


# -- sub and quotient modules ----------------------------------------

def _all_subspaces(M, subspaces):
    """``subspaces``, with the zero subspace at each missing (level, vertex)."""
    f = M.algebra.field
    return {c: subspaces.get(c) or column_space(Mat.zeros(M.dims(*c), 0, f))
            for c in M.algebra.cells}


def submodule(M, subspaces):
    """Submodule spanned by vertex-level subspaces (must be closed under
    arrows and connectors).  Returns (S, inclusion)."""
    subs = _all_subspaces(M, subspaces)
    maps = {}
    for src, tgt, key, x in _structure_maps(M):
        maps[key] = subs[tgt].coords(x * subs[src].basis)
        if maps[key] is None:
            raise ValueError("subspaces not closed under %s"
                             % _structure_name(key))
    S = _module_from_maps(M.algebra, {c: sub.dim for c, sub in subs.items()},
                          maps)
    return S, RMap(S, M, {c: sub.basis for c, sub in subs.items()},
                   check=False)


def quotient_module(M, subspaces):
    """Quotient by a submodule given as vertex-level subspaces.
    Returns (Q, projection)."""
    return quotient_with_sections(M, subspaces)[:2]


def quotient_with_sections(M, subspaces):
    """(Q, projection, sections) for ``quotient_module``: ``sections[(i,
    v)]`` is a right inverse of the projection's matrix at (level i, vertex
    v), the lift of Q there that spans a complement of the subspace."""
    proj, sect = {}, {}
    for c, sub in _all_subspaces(M, subspaces).items():
        proj[c], sect[c] = quotient_basis(M.dims(*c), sub)
    Q = _module_from_maps(M.algebra, {c: p.rows for c, p in proj.items()},
                          {key: proj[tgt] * x * sect[src]
                           for src, tgt, key, x in _structure_maps(M)})
    return Q, RMap(M, Q, proj, check=False), sect


def kernel(f):
    """Kernel of an RMap.  Returns (K, inclusion)."""
    return submodule(f.source, kernel_subspaces(f))


def kernel_subspaces(f):
    return {c: kernel_basis(m) for c, m in f.comps.items()}


def image_subspaces(f):
    return {c: column_space(m) for c, m in f.comps.items()}


def image(f):
    """Image of an RMap as a submodule of the target.  Returns (I, inclusion)."""
    return submodule(f.target, image_subspaces(f))


def cokernel(f):
    """Cokernel of an RMap.  Returns (C, projection)."""
    return quotient_module(f.target, image_subspaces(f))


# -- radical, socle, top ---------------------------------------------

def radical_subspaces(M):
    """rad M at each (level, vertex): the column space of the structure
    maps into it, the arrow images within the level and the connector
    matrices from the level above, the zero subspace where there are none.
    Only the connectors of the paths from a source to a sink are needed:
    any other q extends to q.a or b.q, and Phi_q = Phi_{q.a} M_a lies in
    the image of Phi_{q.a}, or Phi_q = M_b Phi_{b.q} in the image of M_b."""
    f = M.algebra.field
    into = {}
    for _, tgt, _, x in _structure_maps(M, M.algebra.quiver.maximal_paths):
        into.setdefault(tgt, []).append(x)
    return _all_subspaces(M, {c: column_space(Mat.hstack(xs, field=f))
                              for c, xs in into.items()})


def radical(M):
    """rad M as a submodule.  Returns (R, inclusion)."""
    return submodule(M, radical_subspaces(M))


def socle_subspaces(M):
    """soc M at each (level, vertex): the kernel of the structure maps out
    of it, the arrows within the level and the connector matrices p* down
    to the level below (the action of P(w, i) at level i - 1), the whole
    space where there are none.  Only the connectors of the paths from a
    source to a sink are needed: any other q extends to q.a or b.q, and
    Phi_q = Phi_{q.a} M_a or Phi_q = M_b Phi_{b.q} kills what they kill."""
    f = M.algebra.field
    out = {}
    for src, _, _, x in _structure_maps(M, M.algebra.quiver.maximal_paths):
        out.setdefault(src, []).append(x)
    return {c: kernel_basis(Mat.vstack(out[c], field=f)) if c in out
            else column_space(Mat.identity(M.dims(*c), f))
            for c in M.algebra.cells}


def socle(M):
    """soc M as a submodule.  Returns (S, inclusion)."""
    return submodule(M, socle_subspaces(M))


def top(M):
    """M / rad M with its projection.  Returns (T, projection)."""
    return quotient_module(M, radical_subspaces(M))


# -- Hom over the replicated algebra ---------------------------------

def rmap_vector(g):
    """The entries of g level by level, vertex by vertex, row-major: the
    unknowns of the Hom systems solved by ``_hom_basis_r``."""
    return [x for m in g.comps.values() for row in m.data for x in row]


class HomSpace:
    """Hom(M, N) with its canonical basis.

    The basis is the reduced column echelon basis of the solution space of
    the Hom system in ``rmap_vector`` coordinates, so basis element k is the
    only one with a nonzero entry (a one) at ``pivots[k]``, and the
    coordinates of a map are its entries at the pivots.
    """

    __slots__ = ("source", "target", "offsets", "ambient", "vectors",
                 "pivots", "basis")

    def __init__(self, source, target, offsets, ambient, vectors, pivots):
        self.source = source
        self.target = target
        self.offsets = offsets      # cell -> where its block starts
        self.ambient = ambient      # length of rmap_vector of a map M -> N
        self.vectors = vectors      # the basis in rmap_vector, one list each
        self.pivots = pivots
        self.basis = [self._map(vec) for vec in vectors]   # list of RMap

    def _map(self, vec):
        """The map M -> N whose ``rmap_vector`` is ``vec``."""
        M, N = self.source, self.target
        f = M.algebra.field
        comps = {}
        for (i, v), pos in self.offsets.items():
            r, c = N.levels[i].dims[v], M.levels[i].dims[v]
            comps[(i, v)] = Mat(r, c, [vec[pos + a * c:pos + (a + 1) * c]
                                       for a in range(r)], f)
        return RMap(M, N, comps, check=False)

    def _combination(self, coeffs):
        """``rmap_vector`` of sum_k coeffs[k] basis[k] (field elements)."""
        out = [self.source.algebra.field.zero] * self.ambient
        for c, vec in zip(coeffs, self.vectors):
            if c:
                for k, x in enumerate(vec):
                    if x:
                        out[k] = out[k] + c * x
        return out

    def combine(self, coeffs):
        """The map sum_k coeffs[k] basis[k]."""
        if len(coeffs) != len(self.basis):
            raise ValueError("%d coefficients for a Hom space of dimension %d"
                             % (len(coeffs), len(self.basis)))
        field = self.source.algebra.field
        return self._map(self._combination([field.of(c) for c in coeffs]))

    def coords(self, g):
        """Coordinates of g in the basis.  Raises ValueError when g is not a
        module map M -> N, checked by recombining the coordinates."""
        vec = rmap_vector(g)
        if len(vec) == self.ambient:
            coeffs = [vec[p] for p in self.pivots]
            if self._combination(coeffs) == vec:
                return coeffs
        raise ValueError("map is not in Hom(%s, %s)"
                         % (self.source.dim_grid(), self.target.dim_grid()))

    def solve(self, maps, targets):
        """X with sum_k X[k][j] maps[k] == targets[j] for every j (free
        unknowns zero, as in ``solve_matrix``), or None when some target is
        not in the span of ``maps``.  All maps lie in this Hom space."""
        return solve_matrix(self.matrix(maps), self.matrix(targets))

    def matrix(self, maps):
        """The dim Hom x len(maps) matrix whose columns are the coordinates
        of ``maps``."""
        cols = [self.coords(g) for g in maps]
        return Mat(len(self.basis), len(cols),
                   [[col[r] for col in cols] for r in range(len(self.basis))],
                   self.source.algebra.field)


def hom_space(M, N):
    """The HomSpace of Hom(M, N), memoized on M per target module."""
    if N.algebra is not M.algebra:
        raise ValueError("modules over different algebras")
    memo = M.cache.setdefault("hom", {})
    space = memo.get(N)
    if space is None:
        space = memo[N] = _hom_basis_r(M, N)
    return space


def hom_basis_r(M, N):
    """Canonical basis of Hom(M, N) over the replicated algebra."""
    return hom_space(M, N).basis


def _commutation_rows(x_n, x_m, src, tgt, offsets, total, zero):
    """The nonzero rows of x_n f_src - f_tgt x_m = 0, for x acting from
    (level, vertex) ``src`` to ``tgt`` as x_m on M and x_n on N, in the
    ``rmap_vector`` unknowns of a map f: M -> N laid out at ``offsets``."""
    m_src, m_tgt = x_m.cols, x_m.rows
    rows = []
    for r in range(x_n.rows):
        for c in range(m_src):
            row = [zero] * total
            for k, e in enumerate(x_n.data[r]):
                if e:
                    row[offsets[src] + k * m_src + c] = e
            for l in range(m_tgt):
                e = x_m.data[l][c]
                if e:
                    idx = offsets[tgt] + r * m_tgt + l
                    row[idx] = row[idx] - e
            if any(row):
                rows.append(row)
    return rows


def _hom_basis_r(M, N):
    """Solve the Hom system for maps M -> N; returns their HomSpace.  A map
    commutes with every arrow at every level and with every connector
    matrix p*.  Connector rows are needed only for the paths from a source
    to a sink: any other q extends to q.a or b.q, and Phi_q = Phi_{q.a} M_a
    or Phi_q = M_b Phi_{b.q} carries the commutation through the arrows."""
    alg = M.algebra
    f = alg.field
    offsets = {}
    total = 0
    for i, v in alg.cells:
        offsets[(i, v)] = total
        total += N.levels[i].dims[v] * M.levels[i].dims[v]
    rows = []
    paths = alg.quiver.maximal_paths
    for (src, tgt, _, x_m), (*_, x_n) in zip(
            _structure_maps(M, paths, every=True),
            _structure_maps(N, paths, every=True)):
        if M.dims(*src) and N.dims(*tgt):
            rows += _commutation_rows(x_n, x_m, src, tgt, offsets, total,
                                      f.zero)
    ker = kernel_basis(Mat(len(rows), total, rows, f))
    return HomSpace(M, N, offsets, total,
                    [ker.basis.col(k) for k in range(ker.dim)], ker.pivot_rows)


# -- maps out of projectives -----------------------------------------

def generator_action(M, v, i, lev, w):
    """The matrices A_b, one per basis vector b of P(v, i) at (lev, w), with
    A_b * x == g_x(b) for g_x: P(v, i) -> M the map sending the canonical
    generator to x in M at (i, v).  Memoized in ``M.cache["action"]``."""
    memo = M.cache.setdefault("action", {})
    key = (v, i, lev, w)
    if key not in memo:
        alg = M.algebra
        if lev == i:
            # the paths from v to w act on x through the arrow maps
            memo[key] = [M.levels[i].path_action(p)
                         for p in alg.base_projective(v).path_basis[w]]
        elif lev == i - 1:
            # the functionals r* on the paths r: w -> v act on x through
            # the connector
            memo[key] = [M.connectors[i - 1][r]
                         for r in alg.base_injective(v).path_basis[w]]
        else:
            memo[key] = []
    return memo[key]


def map_from_projectives(P, M, gens):
    """The map P -> M for P the direct sum of the P(v, i) of ``gens``, a
    list of (v, i, X) with X a matrix at M's (i, v): the copies of P(v, i),
    one per column of X in order, send their generators to those columns.
    Each generator action is applied to all of X in one product.  At each
    (level, vertex) the columns are generator-major and action-minor, the
    layout ``block_map`` gives to the maps of the single generators."""
    alg = M.algebra
    comps = {}
    for lev, w in alg.cells:
        rows = [[] for _ in range(M.dims(lev, w))]
        for v, i, X in gens:
            images = [a * X for a in generator_action(M, v, i, lev, w)]
            if images:
                for r, row in enumerate(rows):
                    for entries in zip(*[y.data[r] for y in images]):
                        row.extend(entries)
        comps[(lev, w)] = Mat(M.dims(lev, w), P.dims(lev, w), rows, alg.field)
    return RMap(P, M, comps, check=False)


# -- serialization ----------------------------------------------------

def _mat_to_json(m):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[str(x) for x in row] for row in m.data]}


def _mat_from_json(obj, field):
    data = [[field.of(x) for x in row] for row in obj["entries"]]
    return Mat(obj["rows"], obj["cols"], data, field)


def rmodule_to_json(M):
    """Levels as dims and arrow matrices; each connector as one matrix per
    path, in ``quiver.paths`` order."""
    alg = M.algebra
    out = {"m": alg.m, "levels": [], "connectors": []}
    for rep in M.levels:
        out["levels"].append({
            "dims": [[str(v), rep.dims[v]] for v in alg.quiver.vertices],
            "maps": {a.name: _mat_to_json(rep.maps[a.name])
                     for a in alg.quiver.arrows}})
    for conn in M.connectors:
        out["connectors"].append([_mat_to_json(conn[p])
                                  for p in alg.quiver.paths])
    return out


def rmodule_from_json(alg, obj):
    if isinstance(obj, str):
        obj = json.loads(obj)
    if obj["m"] != alg.m:
        raise ValueError("replication degree mismatch")
    levels = []
    vkey = {str(v): v for v in alg.quiver.vertices}
    for lev in obj["levels"]:
        dims = {vkey[v]: d for v, d in lev["dims"]}
        maps = {name: _mat_from_json(mj, alg.field)
                for name, mj in lev["maps"].items()}
        levels.append(Rep(alg.quiver, dims, maps, alg.field))
    paths = alg.quiver.paths
    conns = []
    for cj in obj["connectors"]:
        if len(cj) != len(paths):
            raise ValueError("a connector needs one matrix per path (%d), "
                             "got %d" % (len(paths), len(cj)))
        conns.append({p: _mat_from_json(mj, alg.field)
                      for p, mj in zip(paths, cj)})
    return RModule(alg, levels, conns, check=True)
