"""End-to-end acceptance checks.  Each test prints one PASS/FAIL line."""

import random

import pytest

from reptilt.arknit import enumerate_indecomposables
from reptilt.catalog import (d4_almost_complete_pd1, d4_almost_complete_pd2,
                             duplicated, kronecker_almost_complete_pd1,
                             kronecker_almost_complete_pd2,
                             kronecker_almost_complete_pd3, kronecker_quiver,
                             linear_quiver)
from reptilt.homological import (injective_envelope, is_faithful,
                                 is_projective, minimal_resolution, pd)
from reptilt.krullschmidt import basic_summands, decompose, is_isomorphic
from reptilt.quiver import Quiver
from reptilt.replicated import (ReplicatedAlgebra, direct_sum, injective,
                                projective)
from reptilt.tilting import (complement_fan, complete_partial_tilting,
                             is_partial_tilting)
from reptilt.tiltquiver import (exhaustive_tilting_oracle, explore,
                                records_isomorphic)

from reference import almost_complete, is_radical_valued


def report(n, ok, detail):
    line = "ACCEPTANCE %d: %s — %s" % (n, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def small_algebras():
    return [duplicated(linear_quiver(2)),
            duplicated(linear_quiver(3)),
            ReplicatedAlgebra(linear_quiver(2), 2)]


@pytest.fixture(scope="module")
def oracles(small_algebras):
    return [exhaustive_tilting_oracle(alg) for alg in small_algebras]


@pytest.fixture(scope="module")
def graphs(small_algebras):
    return [explore(algebra=alg) for alg in small_algebras]


def test_criterion_1_first_fan():
    alg, T = d4_almost_complete_pd1()
    fan = complement_fan(T)
    grids = [str(X.dim_grid()) for X, _ in fan.complements]
    ok = (len(fan.complements) == 3 and fan.pds == [1, 1, 2]
          and grids == ["L0{1:1,3:1,4:1,5:1}", "L0{2:1}", "L1{1:1,2:1}"])
    report(1, ok, "four-subspace pd-1 fan: %s pds %s" % (grids, fan.pds))


def test_criterion_2_second_fan():
    alg, T = d4_almost_complete_pd2()
    fan = complement_fan(T)
    X3 = fan.complements[-1][0]
    X2 = next(X for X, p in fan.complements if p == 2)
    E, _ = injective_envelope(X2)
    parts = decompose(E)
    ok = (len(fan.complements) == 4 and fan.pds == [0, 1, 2, 3]
          and str(X3.dim_grid()) == "L1{1:5,2:2,3:2,4:2,5:2}"
          and len(parts) == 3
          and all(is_isomorphic(q, injective(alg, 1, 1)) for q in parts)
          and not is_projective(E))
    report(2, ok, "four-subspace pd-2 fan: pds %s, E(X_2) = 3 copies of the "
                  "level-1 sink injective, not projective" % (fan.pds,))


def test_criterion_3_kronecker_fans():
    alg3, T3 = kronecker_almost_complete_pd3()
    fan3 = complement_fan(T3)
    alg1, T1 = kronecker_almost_complete_pd1()
    fan1 = complement_fan(T1)
    alg2, T2 = kronecker_almost_complete_pd2()
    fan2 = complement_fan(T2)
    mixed = [X for X in basic_summands(T2)
             if not is_projective(X)]
    ok = (fan3.pds == [1, 2, 3]
          and fan1.pds == [1, 1, 2] and 3 not in fan1.pds
          and fan2.pds == [1, 2, 2] and 3 not in fan2.pds
          and len(mixed) == 1
          # the non-projective summand is the level-1 embedded base
          # projective (the printed level-0 socle is a typo; see the
          # decisions ledger)
          and str(mixed[0].dim_grid()) == "L1{1:2,2:1}")
    report(3, ok, "kronecker fans: %s / %s / %s, pd-2 fixture summand %s"
           % (fan3.pds, fan1.pds, fan2.pds, str(mixed[0].dim_grid())))


def test_criterion_4_certificate_agreement(small_algebras):
    # is_tilting raises on any delta-criterion/coresolution disagreement,
    # and the oracle runs it on every Ext-orthogonal delta-sized subset
    counts = []
    for alg in small_algebras:
        counts.append(len(exhaustive_tilting_oracle(alg)))
    ok = counts == [9, 52, 22]
    report(4, ok, "certificates agree on every exhaustively enumerated "
                  "candidate subset; tilting counts %s" % (counts,))


def test_criterion_5_completion(small_algebras):
    alg = small_algebras[0]
    nodes = enumerate_indecomposables(alg)
    orth = {}
    for a in range(len(nodes)):
        for b in range(a, len(nodes)):
            M, _, _ = direct_sum(alg, [nodes[a], nodes[b]])
            orth[(a, b)] = is_partial_tilting(M)
    subsets = [[]]
    for idx in range(len(nodes)):
        if not orth[(idx, idx)]:
            continue
        subsets += [s + [idx] for s in subsets
                    if all(orth[(min(i, idx), max(i, idx))] for i in s)]
    checked = 0
    for subset in subsets:
        parts = [nodes[i] for i in subset]
        M, _, _ = direct_sum(alg, parts)
        record = complete_partial_tilting(M)
        assert len(record.pieces) == alg.delta
        for X in parts:
            assert any(is_isomorphic(X, Y) for Y, _ in record.pieces)
        checked += 1
    report(5, checked > len(nodes),
           "all %d partial tilting modules complete to certified tilting "
           "modules" % checked)


def test_criterion_6_complement_distribution(small_algebras, oracles):
    checked = 0
    for alg, oracle in [(small_algebras[0], oracles[0]),
                        (small_algebras[2], oracles[2])]:
        m = alg.m
        for rest, partners in almost_complete(oracle).values():
            T_bar, _, _ = direct_sum(alg, rest)
            if pd(T_bar) > m or not is_faithful(T_bar):
                continue
            fan = complement_fan(T_bar, seed=partners[0])
            low = [p for _, p in fan.complements if p <= m]
            assert len(low) == m + 1, str(fan.pds)
            chain = fan.pds[:m + 1]
            if chain[0] == 0:
                assert chain == list(range(m + 1)), str(chain)
            else:
                t = pd(T_bar)
                js = [j for j in range(t)
                      if chain[j] == j + 1
                      and (j + 1 > m or chain[j + 1] == j + 1)]
                assert len(js) == 1, str(chain)
                j = js[0]
                assert all(chain[i] == i + 1 for i in range(j + 1))
                assert all(chain[i] == i for i in range(j + 1, m + 1))
            checked += 1
    report(6, checked > 0,
           "%d faithful low-pd almost complete modules match the "
           "m+1-complement distribution patterns" % checked)


def test_criterion_7_connectivity(small_algebras, oracles, graphs):
    ok = True
    details = []
    for alg, oracle, graph in zip(small_algebras, oracles, graphs):
        ok = ok and graph.exhausted and len(graph.vertices) == len(oracle)
        for record in oracle:
            ok = ok and any(records_isomorphic(record, v)
                            for v in graph.vertices)
        low = [k for k, v in enumerate(graph.vertices)
               if all(p <= 1 for _, p in v.pieces)]
        edges = {(i, j) for i, j, _ in graph.arrows}
        component = {low[0]}
        frontier = [low[0]]
        while frontier:
            k = frontier.pop()
            for i, j in edges:
                for a, b in ((i, j), (j, i)):
                    if a == k and b in low and b not in component:
                        component.add(b)
                        frontier.append(b)
        ok = ok and component == set(low)
        details.append("%d=%d" % (len(graph.vertices), len(oracle)))
    report(7, ok, "BFS equals oracle with connected pd<=1 subgraph: %s"
           % ", ".join(details))


def test_criterion_8_global_dimension_witnesses(small_algebras):
    kron = duplicated(kronecker_quiver())
    witness = pd(injective(kron, 1, 1))
    ok = witness == 2 * kron.m + 1 == 3
    for alg in small_algebras:
        bound = 2 * alg.m + 1
        ok = ok and all(pd(X) <= bound
                        for X in enumerate_indecomposables(alg))
    report(8, ok, "pd witness %d over the duplicated Kronecker algebra; "
                  "Dynkin fixtures stay within 2m+1" % witness)


def test_criterion_9_structural_invariants(small_algebras, oracles):
    ok = True
    fixtures = small_algebras + [duplicated(kronecker_quiver()),
                                 duplicated(Quiver(
                                     [1, 2, 3, 4, 5],
                                     [("a2", 2, 1), ("a3", 3, 1),
                                      ("a4", 4, 1), ("a5", 5, 1)]))]
    for alg in fixtures:
        for v in alg.quiver.vertices:
            for i in range(alg.m):
                ok = ok and is_isomorphic(injective(alg, v, i),
                                          projective(alg, v, i + 1))
    for alg, oracle in zip(small_algebras, oracles):
        for record in oracle:
            for v in alg.quiver.vertices:
                for i in range(1, alg.m + 1):
                    P = projective(alg, v, i)
                    ok = ok and any(is_isomorphic(P, X)
                                    for X, _ in record.pieces)
    for alg in small_algebras[:1] + small_algebras[2:]:
        for X in enumerate_indecomposables(alg):
            res = minimal_resolution(X)
            ok = ok and all(is_radical_valued(d) for d in res.maps)
    rng = random.Random(987654321)
    pools = [(alg, enumerate_indecomposables(alg))
             for alg in (small_algebras[0], small_algebras[2])]
    for _ in range(100):
        alg, nodes = pools[rng.randrange(len(pools))]
        chosen = [nodes[rng.randrange(len(nodes))]
                  for _ in range(rng.randint(1, 4))]
        M, _, _ = direct_sum(alg, chosen)
        parts = decompose(M)
        M2, _, _ = direct_sum(alg, parts)
        parts2 = decompose(M2)
        key = sorted(str(X.dim_grid()) for X in chosen)
        ok = (ok and sorted(str(X.dim_grid()) for X in parts) == key
              and sorted(str(X.dim_grid()) for X in parts2) == key)
    report(9, ok, "level isos, projective-injective membership, radical "
                  "differentials, and 100 deterministic decompositions hold")
