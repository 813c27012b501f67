import json
from pathlib import Path

import pytest

from reptilt.catalog import duplicated, kronecker_quiver, linear_quiver
from reptilt.field import _mpq
from reptilt.homological import minimal_resolution
from reptilt.quiver import Quiver
from reptilt.replicated import (ReplicatedAlgebra, RMap, _structure_maps,
                                direct_sum, hom_basis_r)
from reptilt.tilting import Catalog, complement_fan
from reptilt.tiltquiver import (exhaustive_tilting_oracle, explore, export_dot,
                                graph_to_json, mutate_all, record_key,
                                records_isomorphic)

from reference import almost_complete

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def one_vertex_graph():
    alg = duplicated(Quiver([1], []))
    return explore(algebra=alg)


@pytest.fixture(scope="module")
def a2():
    return duplicated(linear_quiver(2))


@pytest.fixture(scope="module")
def a2_graph(a2):
    return explore(algebra=a2)


def test_one_vertex_graph_shape(one_vertex_graph):
    g = one_vertex_graph
    assert g.exhausted
    assert len(g.vertices) == 2
    assert len(g.arrows) == 1


def test_duplicated_a2_graph_equals_oracle(a2, a2_graph):
    oracle = exhaustive_tilting_oracle(a2)
    assert a2_graph.exhausted
    assert len(a2_graph.vertices) == len(oracle) == 9
    for record in oracle:
        assert any(records_isomorphic(record, v) for v in a2_graph.vertices)


def test_explore_from_each_oracle_record(a2):
    # the seeded walk of the benchmark: from any vertex it closes up on the
    # whole quiver, and the seed is vertex 0
    def key(record):
        return Catalog.parts_key([X for X, _ in record.pieces])

    oracle = exhaustive_tilting_oracle(a2)
    for record in oracle:
        graph = explore(seed=record)
        assert graph.exhausted
        assert (len(graph.vertices), len(graph.arrows)) == (9, 11)
        assert key(graph.vertices[0]) == key(record)
        assert set(map(key, graph.vertices)) == set(map(key, oracle))


def test_arrows_are_single_exchanges(a2_graph):
    for (i, j, witness) in a2_graph.arrows:
        src = [X for X, _ in a2_graph.vertices[i].pieces]
        dst = [X for X, _ in a2_graph.vertices[j].pieces]
        shared = sum(1 for X in src if any(X is Y for Y in dst))
        assert shared == len(src) - 1
        # the exchange sequence runs sub -> mid -> quot
        assert witness["incl"].is_mono()
        assert witness["proj"].is_epi()
        assert (witness["mid"].total_dim
                == witness["sub"].total_dim + witness["quot"].total_dim)


def test_mutation_is_reversible(a2_graph):
    index = {id(v): k for k, v in enumerate(a2_graph.vertices)}
    neighbor_sets = {}
    for k, v in enumerate(a2_graph.vertices):
        neighbor_sets[k] = set()
        for nb, _, _ in mutate_all(v):
            hit = next(kk for kk, w in enumerate(a2_graph.vertices)
                       if records_isomorphic(nb, w))
            neighbor_sets[k].add(hit)
    for k, nbrs in neighbor_sets.items():
        for j in nbrs:
            assert k in neighbor_sets[j]


def test_kronecker_partial_exploration():
    alg = duplicated(kronecker_quiver())
    g = explore(algebra=alg, max_vertices=8)
    assert not g.exhausted
    assert len(g.vertices) == 8


def test_pd_at_most_one_subgraph_connected(a2_graph):
    low = [k for k, v in enumerate(a2_graph.vertices)
           if all(p <= 1 for _, p in v.pieces)]
    assert low
    edges = {(i, j) for i, j, _ in a2_graph.arrows}
    component = {low[0]}
    frontier = [low[0]]
    while frontier:
        k = frontier.pop()
        for i, j in edges:
            for a, b in ((i, j), (j, i)):
                if a == k and b in low and b not in component:
                    component.add(b)
                    frontier.append(b)
    assert component == set(low)


def test_json_export_is_deterministic(a2_graph):
    text1 = graph_to_json(a2_graph)
    text2 = graph_to_json(a2_graph)
    assert text1 == text2
    data = json.loads(text1)
    assert len(data["vertices"]) == 9
    assert data["exhausted"] is True
    assert all(set(a) == {"from", "to", "witness"} for a in data["arrows"])


def test_dot_export_golden(one_vertex_graph, a2_graph):
    text = export_dot(one_vertex_graph)
    lines = text.strip().splitlines()
    assert lines[0] == "digraph tilting {"
    assert lines[-1] == "}"
    assert sum(1 for l in lines if "->" in l) == 1
    # byte-for-byte exports, vertex numbering included
    for name, graph in (("one_vertex", one_vertex_graph),
                        ("duplicated_a2", a2_graph)):
        stem = GOLDEN / ("tilting_quiver_%s" % name)
        assert graph_to_json(graph) == stem.with_suffix(".json").read_text()
        assert export_dot(graph) == stem.with_suffix(".dot").read_text()


def test_vertex_keys_are_sorted_multisets(a2_graph):
    for v in a2_graph.vertices:
        key = record_key(v)
        assert list(key) == sorted(key)


def test_m2_graph_matches_oracle():
    alg = ReplicatedAlgebra(Quiver([1], []), 2)
    g = explore(algebra=alg)
    oracle = exhaustive_tilting_oracle(alg)
    assert g.exhausted
    assert len(g.vertices) == len(oracle)
    for record in oracle:
        assert any(records_isomorphic(record, v) for v in g.vertices)


@pytest.mark.parametrize("m, calls, arrows", [(1, 61, 11), (2, 231, 33)])
def test_bfs_walks_each_almost_complete_part_once(m, calls, arrows,
                                                  monkeypatch):
    # a fan of n complements takes n + 1 exchange steps, of which the
    # n - 1 that succeed are its arrows, so a BFS that walks each fan once
    # makes one successful step per arrow; complement_fan then reads the
    # fans the BFS walked and steps no more
    import reptilt.tilting
    exchange = reptilt.tilting.exchange
    made = []

    def counted(parts, X, up):
        step = exchange(parts, X, up)
        made.append(step is not None)
        return step
    monkeypatch.setattr(reptilt.tilting, "exchange", counted)
    alg = ReplicatedAlgebra(linear_quiver(2), m)
    graph = explore(algebra=alg)
    assert (len(made), sum(made), len(graph.arrows)) == (calls, arrows,
                                                         arrows)
    del made[:]
    for rest, expected in almost_complete(
            exhaustive_tilting_oracle(alg)).values():
        fan = complement_fan(direct_sum(alg, rest)[0])
        assert {X for X, _ in fan.complements} == set(expected)
    assert made == []


def test_oracle_then_bfs_certify_each_vertex_once(monkeypatch):
    import reptilt.tilting
    certify = reptilt.tilting.certify
    calls = []

    def counted(alg, parts):
        calls.append(parts)
        return certify(alg, parts)
    monkeypatch.setattr(reptilt.tilting, "certify", counted)
    alg = duplicated(linear_quiver(2))
    oracle = exhaustive_tilting_oracle(alg)
    graph = explore(algebra=alg)
    assert len(oracle) == len(graph.vertices) == 9
    assert len(calls) == 9


@pytest.mark.parametrize("n", [2, 3])
def test_bfs_json_is_the_same_after_the_oracle(n):
    # the BFS keeps its own part order when the oracle has already
    # certified every vertex, so its numbering does not change
    alone = graph_to_json(explore(algebra=duplicated(linear_quiver(n))))
    alg = duplicated(linear_quiver(n))
    exhaustive_tilting_oracle(alg)
    assert graph_to_json(explore(algebra=alg)) == alone
    if n == 2:
        golden = GOLDEN / "tilting_quiver_duplicated_a2.json"
        assert alone == golden.read_text()


def _matrices(x):
    """The matrices of a map (its cells), of a module (its structure maps)
    or of each value of an exchange witness."""
    if isinstance(x, dict):
        return [m for y in x.values() for m in _matrices(y)]
    if isinstance(x, RMap):
        return list(x.comps.values())
    return [m for *_, m in _structure_maps(x)]


def test_rational_entries_are_ints_or_exact_rationals(a2_graph):
    """Exactness over QQ: every entry of the tilting-quiver records and
    exchange witnesses of duplicated A2, of the Hom bases between their
    parts and of the parts' minimal resolutions is an int or the exact
    rational type, never a float."""
    parts = list({id(X): X for record in a2_graph.vertices
                  for X, _ in record.pieces}.values())
    mats = [m for *_, witness in a2_graph.arrows for m in _matrices(witness)]
    for X in parts:
        mats += _matrices(X)
        res = minimal_resolution(X)
        for d in res.maps + [res.augmentation]:
            mats += _matrices(d)
        for Y in parts:
            for h in hom_basis_r(X, Y):
                mats += _matrices(h)
    kinds = {type(x) for m in mats for row in m.data for x in row}
    assert int in kinds and kinds <= {int, _mpq}
