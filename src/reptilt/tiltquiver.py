"""The tilting quiver: vertices are basic tilting modules, arrows are
single-summand exchanges witnessed by short exact sequences."""

from __future__ import annotations

import json

from .krullschmidt import basic_summands, same_classes
from .tilting import Catalog, TiltingRecord


# perfbench's tracer patches and reads ``Registry.canonical``
Registry = Catalog


def record_key(record):
    """Canonical vertex key: the sorted multiset of summand DimGrids."""
    return tuple(sorted(str(X.dim_grid()) for X, _ in record.pieces))


def records_isomorphic(r1, r2):
    return record_key(r1) == record_key(r2) and same_classes(
        [X for X, _ in r1.pieces], [X for X, _ in r2.pieces])


class TiltingQuiverGraph:
    def __init__(self, vertices, arrows, exhausted):
        self.vertices = vertices       # list of TiltingRecord
        self.arrows = arrows           # list of (i, j, witness dict)
        self.exhausted = exhausted


def _record_from_parts(alg, parts, records):
    """The walk's record of the tilting module (+) parts, parts canonical;
    ``records`` holds the walk's records by the frozenset of their parts."""
    ckey = frozenset(parts)
    record = records.get(ckey)
    if record is None:
        if not Catalog.of(alg).is_tilting(parts):
            raise RuntimeError("exchange produced a non-tilting module")
        record = records[ckey] = TiltingRecord(alg, parts)
    return record


def mutate_all(record, records=None):
    """All exchange neighbors of a tilting module: across each summand X,
    its neighbours in the complement chain of the rest.

    Returns a list of (neighbor record, direction, witness): direction
    "in" means the arrow points neighbor -> record, "out" the reverse,
    following the exact-sequence orientation 0 -> X -> E -> Y -> 0
    giving (rest (+) X) -> (rest (+) Y).  A neighbor's record is taken
    from, or put in, the walk's ``records``.
    """
    alg = record.algebra
    catalog = Catalog.of(alg)
    records = {} if records is None else records
    parts = [catalog.canonical(X) for X, _ in record.pieces]
    out = []
    for idx, X in enumerate(parts):
        rest = parts[:idx] + parts[idx + 1:]
        nodes, witnesses = catalog.fan(rest, X)
        k = nodes.index(X)
        # below X: 0 -> Y -> B -> X -> 0, arrow (rest+Y) -> (rest+X);
        # above X: 0 -> X -> B -> Y -> 0, arrow (rest+X) -> (rest+Y)
        for j, direction in ((k - 1, "in"), (k + 1, "out")):
            if 0 <= j < len(nodes):
                neighbor = _record_from_parts(alg, rest + [nodes[j]],
                                              records)
                out.append((neighbor, direction, witnesses[min(j, k)]))
    return out


def explore(seed=None, algebra=None, max_vertices=None):
    """BFS closure of the tilting quiver under mutation.

    ``exhausted`` is set only when the frontier empties within
    ``max_vertices``; in that case the vertex set is all tilting modules
    (connectivity).  The walk keeps its own records, so a record lists its
    parts in the order the walk found them.  An arrow is recorded once,
    from its source: both of its ends read the same memoized fan, so they
    see the same witness.
    """
    if seed is None:
        from .replicated import regular_module
        parts = basic_summands(regular_module(algebra))
    else:
        algebra = seed.algebra
        parts = [X for X, _ in seed.pieces]
    catalog = Catalog.of(algebra)
    records = {}
    seed = _record_from_parts(
        algebra, [catalog.canonical(X) for X in parts], records)
    vertices = [seed]
    index_of = {frozenset(X for X, _ in seed.pieces): 0}
    arrows = []
    exhausted = True
    vidx = 0                             # vertices[vidx:] is the frontier
    while vidx < len(vertices):
        for neighbor, direction, witness in mutate_all(vertices[vidx],
                                                       records):
            nkey = frozenset(X for X, _ in neighbor.pieces)
            nidx = index_of.get(nkey)
            if nidx is None:
                if (max_vertices is not None
                        and len(vertices) >= max_vertices):
                    exhausted = False
                    continue
                vertices.append(neighbor)
                nidx = len(vertices) - 1
                index_of[nkey] = nidx
            if direction == "out":
                arrows.append((vidx, nidx, witness))
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
