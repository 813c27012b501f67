"""The tilting quiver: vertices are basic tilting modules, arrows are
single-summand exchanges witnessed by short exact sequences."""

from __future__ import annotations

import json

from .krullschmidt import is_indecomposable, is_isomorphic
from .tilting import (_down_step, _ext_orthogonal, _up_step, certify,
                      certify_tilting)


class Registry:
    """Canonical representatives per isomorphism class, so homological
    caches attached to module instances are shared."""

    def __init__(self):
        self.by_grid = {}
        self.records = {}

    def canonical(self, M):
        key = M.dim_grid().key()
        bucket = self.by_grid.setdefault(key, [])
        for N in bucket:
            if is_isomorphic(M, N):
                return N
        bucket.append(M)
        return M

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
    cached = registry.records.get(ckey)
    if cached is not None:
        return cached
    record = certify(alg, parts)
    if record is None:
        raise RuntimeError("exchange produced a non-tilting module")
    registry.records[ckey] = record
    return record


def mutate_all(record, registry=None):
    """All exchange neighbors of a tilting module.

    Returns a list of (neighbor record, direction, witness): direction
    "in" means the arrow points neighbor -> record, "out" the reverse,
    following the exact-sequence orientation 0 -> X -> E -> Y -> 0
    giving (rest (+) X) -> (rest (+) Y).
    """
    registry = registry or Registry()
    alg = record.algebra
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
    registry = Registry()
    if seed is None:
        from .replicated import regular_module
        seed = certify_tilting(regular_module(algebra))
    seed = _record_from_parts(seed.algebra,
                              [X for X, _ in seed.pieces], registry)
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
    ext-orthogonal subset of the enumerated indecomposables."""
    from .arknit import enumerate_indecomposables
    nodes = enumerate_indecomposables(alg)
    n = len(nodes)
    target = alg.delta
    records = []

    def orthogonal(X, Y):
        return _ext_orthogonal(X, Y) and _ext_orthogonal(Y, X)

    def extend(chosen, start):
        if len(chosen) == target:
            # certify asserts that both certificates agree
            record = certify(alg, chosen)
            if record is not None:
                records.append(record)
            return
        if len(chosen) + (n - start) < target:
            return
        for idx in range(start, n):
            X = nodes[idx]
            if all(orthogonal(X, Y) for Y in [X] + chosen):
                extend(chosen + [X], idx + 1)

    extend([], 0)
    return records


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
