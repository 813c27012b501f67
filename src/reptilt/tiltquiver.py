"""The tilting quiver: vertices are basic tilting modules, arrows are
single-summand exchanges witnessed by short exact sequences."""

from __future__ import annotations

import json

from .krullschmidt import basic_summands, is_indecomposable, is_isomorphic
from .tilting import (TiltingRecord, _down_step, _ext_orthogonal, _up_step,
                      certify)


class Catalog:
    """One per algebra, in ``alg.cache``: the canonical representative of
    each isomorphism class of indecomposables met so far, bucketed by dim
    grid, and the verdict of ``certify`` on each set of parts it has run
    on.  Once ``indecomposables`` has enumerated every indecomposable (a
    Dynkin base), a module that matches none of them is an internal
    error."""

    def __init__(self, alg):
        self.algebra = alg
        self.by_grid = {}
        self.verdicts = {}
        self.nodes = None

    @staticmethod
    def of(alg):
        catalog = alg.cache.get(("catalog",))
        if catalog is None:
            catalog = alg.cache[("catalog",)] = Catalog(alg)
        return catalog

    def canonical(self, M):
        bucket = self.by_grid.setdefault(M.dim_grid().key(), [])
        for N in bucket:
            if is_isomorphic(M, N):
                return N
        if self.nodes is not None:
            raise RuntimeError("module %s matches no enumerated "
                               "indecomposable" % M.dim_grid())
        bucket.append(M)
        return M

    def indecomposables(self):
        """Every indecomposable, canonical; enumerated once, after which
        the catalog is complete."""
        if self.nodes is None:
            from .arknit import enumerate_indecomposables
            self.nodes = [self.canonical(N)
                          for N in enumerate_indecomposables(self.algebra)]
        return self.nodes

    def is_tilting(self, parts):
        """Whether (+) parts is tilting; ``certify``, with both of its
        certificates, runs once per set of canonical parts."""
        key = Registry.parts_key(parts)
        verdict = self.verdicts.get(key)
        if verdict is None:
            verdict = certify(self.algebra, parts) is not None
            self.verdicts[key] = verdict
        return verdict

    def tilting_sets(self, chosen=()):
        """Each set of ``alg.delta`` pairwise Ext-orthogonal nodes that
        contains ``chosen`` and is tilting, in node order.  ``chosen`` is
        Ext-orthogonal; its modules are replaced by their nodes."""
        nodes = self.indecomposables()
        chosen = [self.canonical(X) for X in chosen]
        pool = [X for X in nodes if not any(X is Y for Y in chosen)]
        target = self.algebra.delta

        def orthogonal(X, Y):
            return _ext_orthogonal(X, Y) and _ext_orthogonal(Y, X)

        def extend(chosen, start):
            if len(chosen) == target:
                if self.is_tilting(chosen):
                    yield chosen
                return
            if len(chosen) + (len(pool) - start) < target:
                return
            for idx in range(start, len(pool)):
                X = pool[idx]
                if all(orthogonal(X, Y) for Y in [X] + chosen):
                    yield from extend(chosen + [X], idx + 1)

        return extend(chosen, 0)


class Registry:
    """A walk's view of its algebra's Catalog.  The walk keeps its own
    records, so a record lists its parts in the order the walk found
    them."""

    def __init__(self, alg):
        self.catalog = Catalog.of(alg)
        self.records = {}

    def canonical(self, M):
        return self.catalog.canonical(M)

    @staticmethod
    def parts_key(parts):
        """Identity key for a multiset of canonical representatives."""
        return tuple(sorted(id(p) for p in parts))


def record_key(record):
    """Canonical vertex key: the sorted multiset of summand DimGrids."""
    return tuple(sorted(str(X.dim_grid()) for X, _ in record.pieces))


def records_isomorphic(r1, r2):
    if record_key(r1) != record_key(r2):
        return False
    rest = [X for X, _ in r2.pieces]
    for X, _ in r1.pieces:
        hit = next((i for i, Y in enumerate(rest) if is_isomorphic(X, Y)),
                   None)
        if hit is None:
            return False
        rest.pop(hit)
    return True


class TiltingQuiverGraph:
    def __init__(self, vertices, arrows, exhausted):
        self.vertices = vertices       # list of TiltingRecord
        self.arrows = arrows           # list of (i, j, witness dict)
        self.exhausted = exhausted


def _record_from_parts(alg, parts, registry):
    parts = [registry.canonical(X) for X in parts]
    ckey = registry.parts_key(parts)
    record = registry.records.get(ckey)
    if record is None:
        if not registry.catalog.is_tilting(parts):
            raise RuntimeError("exchange produced a non-tilting module")
        record = registry.records[ckey] = TiltingRecord(alg, parts)
    return record


def mutate_all(record, registry=None):
    """All exchange neighbors of a tilting module.

    Returns a list of (neighbor record, direction, witness): direction
    "in" means the arrow points neighbor -> record, "out" the reverse,
    following the exact-sequence orientation 0 -> X -> E -> Y -> 0
    giving (rest (+) X) -> (rest (+) Y).
    """
    alg = record.algebra
    registry = registry or Registry(alg)
    parts = [registry.canonical(X) for X, _ in record.pieces]
    out = []
    for idx, X in enumerate(parts):
        rest = parts[:idx] + parts[idx + 1:]
        down = _down_step(rest, X)
        if down is not None:
            K = registry.canonical(down[0])
            if any(K is r for r in rest) or not is_indecomposable(K):
                raise RuntimeError("down-exchange produced a non-complement")
            neighbor = _record_from_parts(alg, rest + [K], registry)
            # witness 0 -> K -> B -> X -> 0: arrow (rest+K) -> (rest+X)
            out.append((neighbor, "in", down[1]))
        up = _up_step(rest, X)
        if up is not None:
            C = registry.canonical(up[0])
            if any(C is r for r in rest) or not is_indecomposable(C):
                raise RuntimeError("up-exchange produced a non-complement")
            neighbor = _record_from_parts(alg, rest + [C], registry)
            # witness 0 -> X -> B -> C -> 0: arrow (rest+X) -> (rest+C)
            out.append((neighbor, "out", up[1]))
    return out


def explore(seed=None, algebra=None, max_vertices=None):
    """BFS closure of the tilting quiver under mutation.

    ``exhausted`` is set only when the frontier empties within
    ``max_vertices``; in that case the vertex set is all tilting modules
    (connectivity).
    """
    if seed is None:
        from .replicated import regular_module
        parts = basic_summands(regular_module(algebra))
    else:
        algebra = seed.algebra
        parts = [X for X, _ in seed.pieces]
    registry = Registry(algebra)
    seed = _record_from_parts(algebra, parts, registry)
    vertices = [seed]
    index_of = {registry.parts_key([X for X, _ in seed.pieces]): 0}
    arrows = []
    arrow_set = set()
    exhausted = True
    vidx = 0                             # vertices[vidx:] is the frontier
    while vidx < len(vertices):
        for neighbor, direction, witness in mutate_all(vertices[vidx],
                                                       registry):
            nkey = registry.parts_key([X for X, _ in neighbor.pieces])
            nidx = index_of.get(nkey)
            if nidx is None:
                if (max_vertices is not None
                        and len(vertices) >= max_vertices):
                    exhausted = False
                    continue
                vertices.append(neighbor)
                nidx = len(vertices) - 1
                index_of[nkey] = nidx
            edge = (nidx, vidx) if direction == "in" else (vidx, nidx)
            if edge not in arrow_set:
                arrow_set.add(edge)
                arrows.append((edge[0], edge[1], witness))
        vidx += 1
    return TiltingQuiverGraph(vertices, arrows, exhausted)


def exhaustive_tilting_oracle(alg):
    """All basic tilting modules, by checking every delta-sized
    ext-orthogonal subset of the algebra's enumerated indecomposables."""
    return [TiltingRecord(alg, parts)
            for parts in Catalog.of(alg).tilting_sets()]


def graph_to_json(graph):
    data = {
        "vertices": [
            {"key": list(record_key(rec)),
             "pds": sorted(p for _, p in rec.pieces)}
            for rec in graph.vertices
        ],
        "arrows": [
            {"from": i, "to": j,
             "witness": {"sub": str(w["sub"].dim_grid()),
                         "mid": str(w["mid"].dim_grid()),
                         "quot": str(w["quot"].dim_grid())}}
            for (i, j, w) in sorted(graph.arrows, key=lambda a: (a[0], a[1]))
        ],
        "exhausted": graph.exhausted,
    }
    return json.dumps(data, indent=2, sort_keys=True)


def export_dot(graph):
    lines = ["digraph tilting {"]
    for i, rec in enumerate(graph.vertices):
        label = "|".join(record_key(rec))
        lines.append('  v%d [label="%s"];' % (i, label))
    for (i, j, _) in sorted(graph.arrows, key=lambda a: (a[0], a[1])):
        lines.append("  v%d -> v%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"
