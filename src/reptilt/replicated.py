"""The m-replicated algebra of a hereditary path algebra and its modules.

The replicated algebra is the triangular matrix algebra with m + 1 copies of
A on the diagonal and DA below it.  A module is stored as its support: the
dims at its nonzero cells (level i, vertex v) and, between two of them, the
arrow maps of each level and the connectors phi_j: DA (x)_A M_{j+1} -> M_j.
A connector is stored as the action of the basis of DA: one matrix per path
p: w -> u of the base quiver, from (j + 1, u) to (j, w), the image of p* (x)
x.  Level 0 is the copy whose projectives stay projective over the
replicated algebra; connectors point downward, so a projective-injective
P(v,i) has its top at level i and its socle at level i-1.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from functools import partial, reduce
from types import MappingProxyType, SimpleNamespace

from .field import QQ
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
        self.cache = {}

    def base_projective(self, v):
        """The projective A e_v of the base algebra, a level-0 module:
        P(v, 0)."""
        return projective(self, v, 0)

    def base_injective(self, v):
        """The injective D(e_v A) of the base algebra, a level-0 module: the
        socle level of P(v, 1), whose basis at w is the functionals r* on
        the paths r: w -> v."""
        key = ("base inj", v)
        if key not in self.cache:
            self.cache[key] = _path_module(
                self, {(0, w): self.quiver.paths_between(w, v)
                       for w in self.quiver.vertices},
                partial(_projective_action, 1))
        return self.cache[key]

    def __repr__(self):
        return "ReplicatedAlgebra(%r, m=%d)" % (self.quiver.vertices, self.m)


class RModule:
    """A module over a replicated algebra: the dim ``support[(i, v)]`` of
    each nonzero cell, in ``cells`` order, and ``maps`` between two of them,
    keyed as ``_layout`` keys them; a missing key is zero.  With ``check``,
    a map given at a zero cell is dropped once its shape is checked."""

    def __init__(self, algebra, dims, maps, check=True):
        self.algebra = algebra
        self.support = {c: dims[c] for c in algebra.cells if dims.get(c)}
        self.maps = maps
        self.cache = {}
        if check:
            self.validate()
            self.maps = {key: x for key, x in maps.items() if all(
                c in self.support for c in _layout(algebra)[key])}

    def validate(self):
        """The module axioms: the shape of each structure map, the right
        rule (p* a = (p minus a)* when p ends with a, else 0), the left rule
        (a p* = (p minus a)* when p starts with a, else 0) and DA.DA = 0."""
        ends = _layout(self.algebra)
        for key, x in self.maps.items():
            if key not in ends:
                raise ValueError("no structure map %r" % (key,))
            want = tuple(self.dims(*c) for c in reversed(ends[key]))
            if (x.rows, x.cols) != want:
                raise ValueError("%s has shape %dx%d, want %dx%d"
                                 % ((_structure_name(key), x.rows, x.cols)
                                    + want))
        quiver = self.algebra.quiver
        get = self.maps.get
        for j in range(self.algebra.m):
            for a in quiver.arrows:
                for p in quiver.paths_into(a.target):
                    want = (get((j, Path(p.source, a.source, p.arrows[:-1])))
                            if p.arrows[-1:] == (a.name,) else None)
                    if not _agree(get((j, p)), get((j + 1, a.name)), want):
                        raise ValueError("connector %d breaks the right rule "
                                         "at path %s and arrow %s"
                                         % (j, _path_name(p), a.name))
                for p in quiver.paths_from(a.source):
                    want = (get((j, Path(a.target, p.target, p.arrows[1:])))
                            if p.arrows[:1] == (a.name,) else None)
                    if not _agree(get((j, a.name)), get((j, p)), want):
                        raise ValueError("connector %d breaks the left rule "
                                         "at arrow %s and path %s"
                                         % (j, a.name, _path_name(p)))
        for j in range(1, self.algebra.m):
            for p in quiver.paths:
                for q in quiver.paths_from(p.target):
                    if not _agree(get((j - 1, p)), get((j, q)), None):
                        raise ValueError("connector composite does not "
                                         "vanish at %d" % j)

    @property
    def total_dim(self):
        return sum(self.support.values())

    def is_zero(self):
        return not self.support

    def dims(self, i, v):
        return self.support.get((i, v), 0)

    @property
    def levels(self):
        """``levels[i].dims[v]``, for the benchmark tracer until ROADMAP item
        3's benchmark change moves the tracer onto library counters."""
        vs = self.algebra.quiver.vertices
        return [SimpleNamespace(dims={v: self.dims(i, v) for v in vs})
                for i in range(self.algebra.m + 1)]

    def dim_grid(self):
        """The module's DimGrid, built once: no module's dims change after
        it is constructed."""
        grid = self.cache.get("dim_grid")
        if grid is None:
            grid = self.cache["dim_grid"] = DimGrid(self.support)
        return grid

    def __repr__(self):
        return "RModule(%s)" % self.dim_grid()


def _path_name(p):
    return ".".join(p.arrows) if p.arrows else "e%s" % (p.source,)


def _layout(alg, paths=None):
    """key -> (source cell, target cell) of each structure map: arrow a at
    level i, key (i, a.name), and connector p* from (j + 1, t(p)) to (j,
    s(p)), key (j, p), for p in ``paths`` (all by default).  The only code
    that knows the layout; built once per algebra and choice of paths."""
    memo = ("structure maps", None if paths is None else tuple(paths))
    if memo not in alg.cache:
        quiver = alg.quiver
        alg.cache[memo] = {(i, a.name): ((i, a.source), (i, a.target))
                           for i in range(alg.m + 1) for a in quiver.arrows}
        alg.cache[memo].update(
            ((j, p), ((j + 1, p.target), (j, p.source))) for j in range(alg.m)
            for p in (quiver.paths if paths is None else paths))
    return alg.cache[memo]


def _structure_maps(M, paths=None):
    """Each map M stores as (source cell, target cell, key, matrix), the
    connectors only for p in ``paths`` (every path by default)."""
    layout = _layout(M.algebra, paths)
    for key, x in M.maps.items():
        ends = layout.get(key)
        if ends is not None:
            yield ends[0], ends[1], key, x


def _map_pairs(M, N, paths=None):
    """(source cell, target cell, key, x on M, x on N), None where x is not
    stored, for each map M or N stores from a cell where M is nonzero to
    one where N is: the equations of a map M -> N that are not 0 = 0."""
    layout = _layout(M.algebra, paths)
    for key in {**M.maps, **N.maps}:
        ends = layout.get(key)
        if ends is not None and ends[0] in M.support and ends[1] in N.support:
            yield ends[0], ends[1], key, M.maps.get(key), N.maps.get(key)


def _structure_name(key):
    i, x = key
    if isinstance(x, Path):
        return "connector %d at path %s" % (i, _path_name(x))
    return "arrow %s at level %d" % (x, i)


def _agree(x, y, want):
    """x * y == want, None standing for a zero matrix."""
    got = None if x is None or y is None else x * y
    if got is None or want is None:
        return all(z is None or z.is_zero() for z in (got, want))
    return got == want


class DimGrid:
    """Canonical printable signature of a module: (level, vertex) -> dim.
    Read-only, so one grid can be shared by every caller of
    ``RModule.dim_grid``."""

    __slots__ = ("entries", "_key")

    def __init__(self, entries):
        self.entries = MappingProxyType(entries)   # the nonzero cells
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
    """A morphism of replicated-algebra modules: ``comps[(i, v)]``, from
    the source at (level i, vertex v) to the target there, at each cell
    where both are nonzero, in ``cells`` order; a missing one is zero."""

    def __init__(self, source, target, comps, check=True):
        self.source = source
        self.target = target
        self.comps = comps
        if check:
            self.validate()
        f = source.algebra.field
        self.comps = {c: comps.get(c) or
                      Mat.zeros(target.dims(*c), source.dims(*c), f)
                      for c in _shared_cells(source, target)}

    def validate(self):
        """The shape of each component and commutation with each structure
        map of ``_map_pairs``: y f_s = f_t x for x from cell s to cell t."""
        M, N = self.source, self.target
        for (i, v), c in self.comps.items():
            want = (N.dims(i, v), M.dims(i, v))
            if (c.rows, c.cols) != want:
                raise ValueError("component at level %d, vertex %r has shape "
                                 "%dx%d, want %dx%d"
                                 % ((i, v, c.rows, c.cols) + want))
        comps = self.comps
        for src, tgt, key, x, y in _map_pairs(M, N):
            rhs = None if x is None or tgt not in comps else comps[tgt] * x
            if not _agree(y, comps.get(src), rhs):
                raise ValueError("map does not commute with %s"
                                 % _structure_name(key))

    def compose(self, other):
        return RMap(other.source, self.target,
                    {c: m * other.comps[c] for c, m in self.comps.items()
                     if c in other.comps},
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


def _shared_cells(M, N):
    """The cells where M and N are both nonzero, in ``cells`` order."""
    return [c for c in M.support if c in N.support]


def zero_rmap(M, N):
    return RMap(M, N, {}, check=False)


def identity_rmap(M):
    return RMap(M, M, {c: Mat.identity(d, M.algebra.field)
                       for c, d in M.support.items()}, check=False)


# -- structural modules ----------------------------------------------

def zero_module(alg):
    return RModule(alg, {}, {}, check=False)


def _path_module(alg, basis, act):
    """The module with basis ``basis[c]``, a list of paths, at each cell c,
    on which the structure map ``key`` sends b to the basis element whose
    arrows are ``act(key, b)``, or to 0 when that is None: the arrows of a
    trivial path are (), a basis element too."""
    maps = {}
    for key, (src, tgt) in _layout(alg).items():
        if basis.get(src) and basis.get(tgt):
            index = {b.arrows: r for r, b in enumerate(basis[tgt])}
            x = maps[key] = Mat.zeros(len(basis[tgt]), len(basis[src]),
                                      alg.field)
            for c, b in enumerate(basis[src]):
                image = act(key, b)
                if image is not None:
                    x.data[index[image]][c] = alg.field.one
    return RModule(alg, {c: len(b) for c, b in basis.items()}, maps,
                   check=False)


def _projective_action(i, key, b):
    """``act`` of P(v, i) for ``_path_module``: an arrow at level i extends
    the path b; an arrow a at level i - 1 sends b* to (b minus a)* when b
    starts with a; the connector p* sends the path s to r* when p = (r then
    s)."""
    lev, y = key
    if isinstance(y, Path):
        cut = len(y) - len(b)
        return y.arrows[:cut] if y.arrows[cut:] == b.arrows else None
    if lev == i:
        return b.arrows + (y,)
    return b.arrows[1:] if b.arrows[:1] == (y,) else None


def embed_level(alg, X, i):
    """The level-0 module X moved to level i, with zero connectors."""
    if not 0 <= i <= alg.m:
        raise ValueError("level out of range")
    if any(lev for lev, _ in X.support):
        raise ValueError("embed_level moves a level-0 module, not %s"
                         % X.dim_grid())
    return RModule(alg, {(i, v): d for (_, v), d in X.support.items()},
                   {(i, a): x for (_, a), x in X.maps.items()}, check=False)


def projective(alg, v, i):
    """P(v, i): for i=0 the level-0 copy of A e_v, whose basis at w is the
    paths from v to w; for i>=1 the projective-injective with top A e_v at
    level i and socle D(e_v A) at level i-1."""
    if not 0 <= i <= alg.m:
        raise ValueError("level out of range")
    key = ("proj", v, i)
    if key not in alg.cache:
        q = alg.quiver
        basis = {(i, w): q.paths_between(v, w) for w in q.vertices}
        if i:
            basis.update(((i - 1, w), q.paths_between(w, v))
                         for w in q.vertices)
        alg.cache[key] = _path_module(alg, basis,
                                      partial(_projective_action, i))
    return alg.cache[key]


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
        alg.cache[key] = RModule(alg, {(i, v): 1}, {}, check=False)
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
        out.append(out[-1] + M.dims(i, v))
    return out


def direct_sum(alg, mods):
    """(S, inclusions, projections) for S the direct sum of ``mods``.  S
    records them in ``S.cache["summands"]``, so Krull-Schmidt splits S along
    them; each map is built when first read (``SummandMaps``)."""
    mods = list(mods)
    if not mods:
        return zero_module(alg), [], []
    dims, starts = {}, []   # starts[k][c]: where summand k starts at c
    for M in mods:
        starts.append({c: dims.get(c, 0) for c in M.support})
        dims.update((c, at + M.support[c]) for c, at in starts[-1].items())
    maps = {}   # summand k's maps, each at k's offsets; zero elsewhere
    for M, at in zip(mods, starts):
        for src, tgt, key, x in _structure_maps(M):
            if key not in maps:
                maps[key] = Mat.zeros(dims[tgt], dims[src], alg.field)
            c0 = at[src]
            for r, row in enumerate(x.data, at[tgt]):
                maps[key].data[r][c0:c0 + x.cols] = row
    S = RModule(alg, dims, maps, check=False)
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
    comps = {}
    for c in _shared_cells(source, target):
        data = []
        for row in grid:
            mats = [b.comps[c] for b in row if c in b.comps]
            if mats:
                data.extend(sum((m.data[r] for m in mats), [])
                            for r in range(mats[0].rows))
        comps[c] = Mat(target.dims(*c), source.dims(*c), data,
                       source.algebra.field)
    return RMap(source, target, comps, check=False)


# -- sub and quotient modules ----------------------------------------

def submodule(M, subspaces):
    """Submodule spanned by vertex-level subspaces, zero at a missing cell
    (must be closed under arrows and connectors).  Returns (S, inclusion)."""
    subs = {c: sub for c, sub in subspaces.items() if sub.dim}
    maps = {}
    for src, tgt, key, x in _structure_maps(M):
        if src in subs:
            y = x * subs[src].basis
            if tgt in subs:
                y = maps[key] = subs[tgt].coords(y)
            if y is None or tgt not in subs and not y.is_zero():
                raise ValueError("subspaces not closed under %s"
                                 % _structure_name(key))
    S = RModule(M.algebra, {c: sub.dim for c, sub in subs.items()}, maps,
                check=False)
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
    for c, d in M.support.items():
        proj[c], sect[c] = quotient_basis(d, subspaces.get(c) or column_space(
            Mat.zeros(d, 0, M.algebra.field)))
    Q = RModule(M.algebra, {c: p.rows for c, p in proj.items()},
                {key: proj[tgt] * x * sect[src]
                 for src, tgt, key, x in _structure_maps(M)
                 if proj[src].rows and proj[tgt].rows}, check=False)
    return Q, RMap(M, Q, proj, check=False), sect


def kernel(f):
    """Kernel of an RMap.  Returns (K, inclusion)."""
    return submodule(f.source, kernel_subspaces(f))


def kernel_subspaces(f):
    return {c: kernel_basis(f.comps.get(c) or
                            Mat.zeros(0, d, f.source.algebra.field))
            for c, d in f.source.support.items()}


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
    return {c: column_space(Mat.hstack(into[c], field=f) if c in into
                            else Mat.zeros(d, 0, f))
            for c, d in M.support.items()}


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
    return {c: kernel_basis(Mat.vstack(out[c], field=f) if c in out
                            else Mat.zeros(0, d, f))
            for c, d in M.support.items()}


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
        self.offsets = offsets      # shared cell -> where its block starts
        self.ambient = ambient      # length of rmap_vector of a map M -> N
        self.vectors = vectors      # the basis in rmap_vector, one list each
        self.pivots = pivots
        self.basis = [self._map(vec) for vec in vectors]   # list of RMap

    def _map(self, vec):
        """The map M -> N whose ``rmap_vector`` is ``vec``."""
        M, N = self.source, self.target
        f = M.algebra.field
        comps = {}
        for c, pos in self.offsets.items():
            r, k = N.support[c], M.support[c]
            comps[c] = Mat(r, k, [vec[pos + a * k:pos + (a + 1) * k]
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
        space = memo[N] = (_hom_basis_r(M, N) if _shared_cells(M, N)
                           else HomSpace(M, N, {}, 0, [], []))
    return space


def hom_basis_r(M, N):
    """Canonical basis of Hom(M, N) over the replicated algebra."""
    return hom_space(M, N).basis


def _commutation_rows(x_n, x_m, src, tgt, shape, offsets, total, zero):
    """The nonzero rows of x_n f_src - f_tgt x_m = 0, x from ``src`` to
    ``tgt`` (None for zero, ``shape`` (dim N at tgt, dim M at src)), in the
    ``rmap_vector`` unknowns of a map f: M -> N laid out at ``offsets``."""
    n_tgt, m_src = shape
    rows = []
    for r in range(n_tgt):
        for c in range(m_src):
            row = [zero] * total
            for k, e in enumerate(x_n.data[r] if x_n is not None else ()):
                if e:
                    row[offsets[src] + k * m_src + c] = e
            for l in range(x_m.rows if x_m is not None else 0):
                e = x_m.data[l][c]
                if e:
                    idx = offsets[tgt] + r * x_m.rows + l
                    row[idx] = row[idx] - e
            if any(row):
                rows.append(row)
    return rows


def _hom_basis_r(M, N):
    """Solve the Hom system for maps M -> N; returns their HomSpace.  A map
    commutes with every arrow and connector matrix p* of ``_map_pairs``.
    Connector rows are needed only for the paths from a source to a sink:
    any other q extends to q.a or b.q, and Phi_q = Phi_{q.a} M_a or Phi_q =
    M_b Phi_{b.q} carries the commutation through the arrows."""
    alg = M.algebra
    f = alg.field
    offsets = {}
    total = 0
    for c in _shared_cells(M, N):
        offsets[c] = total
        total += N.support[c] * M.support[c]
    rows = []
    for src, tgt, _, x_m, x_n in _map_pairs(M, N, alg.quiver.maximal_paths):
        rows += _commutation_rows(x_n, x_m, src, tgt,
                                  (N.dims(*tgt), M.dims(*src)), offsets,
                                  total, f.zero)
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
            steps = [[(i, a) for a in p.arrows]
                     for p in alg.quiver.paths_between(v, w)]
        elif lev == i - 1:
            # the functionals r* on the paths r: w -> v act on x through
            # the connector
            steps = [[(i - 1, r)] for r in alg.quiver.paths_between(w, v)]
        else:
            steps = []
        # the composite of the maps along each step, zero if one is missing
        rows, cols = M.dims(lev, w), M.dims(i, v)
        memo[key] = [reduce(lambda a, k: M.maps[k] * a, keys,
                            Mat.identity(cols, alg.field))
                     if all(k in M.maps for k in keys)
                     else Mat.zeros(rows, cols, alg.field) for keys in steps]
    return memo[key]


def map_from_projectives(P, M, gens):
    """The map P -> M for P the direct sum of the P(v, i) of ``gens``, a
    list of (v, i, X) with X a matrix at M's (i, v): the copies of P(v, i),
    one per column of X in order, send their generators to those columns.
    Each generator action is applied to all of X in one product.  At each
    (level, vertex) the columns are generator-major and action-minor, the
    layout ``block_map`` gives to the maps of the single generators."""
    comps = {}
    for lev, w in _shared_cells(P, M):
        rows = [[] for _ in range(M.dims(lev, w))]
        for v, i, X in gens:
            images = [a * X for a in generator_action(M, v, i, lev, w)]
            for r, row in enumerate(rows):
                for entries in zip(*[y.data[r] for y in images]):
                    row.extend(entries)
        comps[(lev, w)] = Mat(M.dims(lev, w), P.dims(lev, w), rows,
                              M.algebra.field)
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
    path, in ``quiver.paths`` order.  A map M does not store is zero."""
    alg, quiver = M.algebra, M.algebra.quiver
    mats = {key: _mat_to_json(M.maps.get(key) or
                              Mat.zeros(M.dims(*tgt), M.dims(*src), alg.field))
            for key, (src, tgt) in _layout(alg).items()}
    return {"m": alg.m,
            "levels": [{"dims": [[str(v), M.dims(i, v)]
                                 for v in quiver.vertices],
                        "maps": {a.name: mats[(i, a.name)]
                                 for a in quiver.arrows}}
                       for i in range(alg.m + 1)],
            "connectors": [[mats[(j, p)] for p in quiver.paths]
                           for j in range(alg.m)]}


def rmodule_from_json(alg, obj):
    """The module ``rmodule_to_json`` wrote, checked as ``RModule`` checks
    it: each dim must be an integer >= 0, given once."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    paths, conns = alg.quiver.paths, obj["connectors"]
    if ((obj["m"], len(obj["levels"]), len(conns)) != (alg.m, alg.m + 1, alg.m)
            or any(len(cj) != len(paths) for cj in conns)):
        raise ValueError("expected m = %d: %d levels and %d connectors of one "
                         "matrix per path (%d)" % (alg.m, alg.m + 1, alg.m,
                                                   len(paths)))
    vkey = {str(v): v for v in alg.quiver.vertices}
    dims, maps = {}, {}
    for i, lev in enumerate(obj["levels"]):
        for v, d in lev["dims"]:
            if type(d) is not int or d < 0 or (i, vkey[v]) in dims:
                raise ValueError("dim %s at level %d, vertex %s: give one "
                                 "integer >= 0" % (json.dumps(d), i, v))
            dims[(i, vkey[v])] = d
        maps.update(((i, name), _mat_from_json(mj, alg.field))
                    for name, mj in lev["maps"].items())
    for j, cj in enumerate(conns):
        maps.update(((j, p), _mat_from_json(mj, alg.field))
                    for p, mj in zip(paths, cj))
    return RModule(alg, dims, maps, check=True)
