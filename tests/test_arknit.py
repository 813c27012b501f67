import hashlib
import json

import pytest

from reptilt.catalog import (dtilde4_quiver, duplicated, kronecker_quiver,
                             linear_quiver)
from reptilt.quiver import Quiver
from reptilt.arknit import (enumerate_indecomposables, is_dynkin,
                            translate_inverse)
from reptilt.homological import cosyzygy, syzygy
from reptilt.krullschmidt import is_isomorphic
from reptilt.replicated import (ReplicatedAlgebra, injective, projective,
                                rmodule_from_json, rmodule_to_json, simple)
from reptilt.tilting import Catalog

from reference import (almost_split_sequence, ar_quiver, translate,
                       verify_right_almost_split)


@pytest.fixture(scope="module")
def a2():
    return duplicated(linear_quiver(2))


@pytest.fixture(scope="module")
def a2_nodes(a2):
    return enumerate_indecomposables(a2)


def contains(nodes, M):
    return any(is_isomorphic(M, N) for N in nodes)


def test_dynkin_guard():
    assert is_dynkin(linear_quiver(4))
    assert not is_dynkin(kronecker_quiver())
    assert not is_dynkin(dtilde4_quiver())   # degree-4 branch vertex
    d4 = Quiver([1, 2, 3, 4], [("a", 2, 1), ("b", 3, 1), ("c", 4, 1)])
    assert is_dynkin(d4)
    # D~5: two branch vertices, 2 and 5
    assert not is_dynkin(Quiver([1, 2, 3, 4, 5, 6], [
        ("a", 1, 2), ("b", 3, 2), ("c", 2, 5), ("d", 4, 5), ("e", 6, 5)]))
    # three arms of the given lengths, arrows pointing to the branch vertex
    # 0: D5, D6, E6, E7 and E8, then E~6, E~7 and E~8
    for arms, dynkin in [
            ((1, 1, 2), True), ((1, 1, 3), True), ((1, 2, 2), True),
            ((1, 2, 3), True), ((1, 2, 4), True),
            ((2, 2, 2), False), ((1, 3, 3), False), ((1, 2, 5), False)]:
        arrows, n = [], 0
        for length in arms:
            arrows += [("a%d" % (n + k), n + k, n + k - 1 if k > 1 else 0)
                       for k in range(1, length + 1)]
            n += length
        assert is_dynkin(Quiver(list(range(n + 1)), arrows)) is dynkin, arms


def test_enumeration_refuses_non_dynkin():
    with pytest.raises(ValueError):
        enumerate_indecomposables(duplicated(kronecker_quiver()))


def test_one_vertex_base_has_three_indecomposables():
    alg = duplicated(Quiver([1], []))
    nodes = enumerate_indecomposables(alg)
    assert len(nodes) == 3


def test_duplicated_a2_node_list(a2, a2_nodes):
    assert len(a2_nodes) == 9
    # all embedded base indecomposables at both levels
    for i in (0, 1):
        for v in (1, 2):
            assert contains(a2_nodes, simple(a2, v, i))
    # every projective and injective appears
    for v in (1, 2):
        for i in (0, 1):
            assert contains(a2_nodes, projective(a2, v, i))
            assert contains(a2_nodes, injective(a2, v, i))


@pytest.mark.parametrize("vertices, arrows, m, count, digest", [
    ([1, 2, 3], [("a1", 2, 1), ("a2", 3, 2)], 2, 30,
     "009a0261ecbec8d2214d75b8c5e6b83948742453ffc320b2a89a1ad662c92ef4"),
    ([1, 2, 3, 4], [("a", 2, 1), ("b", 3, 1), ("c", 4, 1)], 1, 36,
     "2a9fa7751ea0ebad5c4412ace70d779f26b509b95a1b2d60cfe0da08f8ddbbaf"),
], ids=["A3_m2", "D4_m1"])
def test_enumeration_bytes_are_pinned(vertices, arrows, m, count, digest):
    # the bases of every node, as serialized: a change of basis in tau^-
    # changes the bytes the tilting quiver prints
    alg = ReplicatedAlgebra(Quiver(vertices, arrows), m)
    nodes = enumerate_indecomposables(alg)
    assert len(nodes) == count
    data = json.dumps([rmodule_to_json(N) for N in nodes], sort_keys=True)
    assert hashlib.sha256(data.encode()).hexdigest() == digest


def test_enumeration_computes_each_socle_once(monkeypatch):
    # is_injective and then translate_inverse read the injective envelope
    # of each non-injective node, so both need its socle
    import reptilt.homological
    asked = []
    socle_subspaces = reptilt.homological.socle_subspaces

    def counted(M):
        asked.append(M)
        return socle_subspaces(M)
    monkeypatch.setattr(reptilt.homological, "socle_subspaces", counted)
    alg = ReplicatedAlgebra(
        Quiver([1, 2, 3, 4], [("a", 2, 1), ("b", 3, 1), ("c", 4, 1)]), 1)
    assert len(enumerate_indecomposables(alg)) == 36
    # ``asked`` keeps every module alive, so no two share an id
    assert len(asked) >= 36
    assert len({id(M) for M in asked}) == len(asked)


def test_catalog_refuses_a_repeated_enumeration(monkeypatch):
    # the enumeration keeps no list of seen modules: its tau^- orbits are
    # disjoint, and the catalog is where a repeat is caught
    import reptilt.arknit
    alg = duplicated(linear_quiver(2))
    nodes = enumerate_indecomposables(alg)
    assert not any(is_isomorphic(M, N)
                   for k, M in enumerate(nodes) for N in nodes[:k])

    def repeat_one(alg):
        return nodes + [rmodule_from_json(alg, rmodule_to_json(nodes[3]))]
    monkeypatch.setattr(reptilt.arknit, "enumerate_indecomposables",
                        repeat_one)
    with pytest.raises(RuntimeError, match="enumeration"):
        Catalog.of(alg).indecomposables()


def test_closure_adds_nothing(a2, a2_nodes):
    for N in a2_nodes:
        others = []
        if not N.is_zero():
            others.append(syzygy(N))
            others.append(cosyzygy(N))
        is_proj = any(is_isomorphic(N, projective(a2, v, i))
                      for v in (1, 2) for i in (0, 1))
        is_inj = any(is_isomorphic(N, injective(a2, v, i))
                     for v in (1, 2) for i in (0, 1))
        if not is_proj:
            others.append(translate(N))
        if not is_inj:
            others.append(translate_inverse(N))
        for M in others:
            if M.is_zero():
                continue
            from reptilt.krullschmidt import decompose
            for part in decompose(M):
                assert contains(a2_nodes, part)


def test_translation_round_trip(a2, a2_nodes):
    for N in a2_nodes:
        is_proj = any(is_isomorphic(N, projective(a2, v, i))
                      for v in (1, 2) for i in (0, 1))
        is_inj = any(is_isomorphic(N, injective(a2, v, i))
                     for v in (1, 2) for i in (0, 1))
        if not is_proj:
            t = translate(N)
            assert is_isomorphic(translate_inverse(t), N)
        if not is_inj:
            t = translate_inverse(N)
            assert is_isomorphic(translate(t), N)


def test_translate_guards(a2):
    with pytest.raises(ValueError):
        translate(projective(a2, 1, 1))
    with pytest.raises(ValueError):
        translate_inverse(injective(a2, 1, 1))


def test_base_almost_split_sequence(a2):
    # embedded copy of the base sequence 0 -> S_1 -> P_2 -> S_2 -> 0
    t, E, N, iY, pX = almost_split_sequence(simple(a2, 2, 0))
    assert is_isomorphic(t, simple(a2, 1, 0))
    assert is_isomorphic(E, projective(a2, 2, 0))
    assert iY.is_mono() and pX.is_epi()


def test_almost_split_sequences_verified(a2, a2_nodes):
    for N in a2_nodes:
        is_proj = any(is_isomorphic(N, projective(a2, v, i))
                      for v in (1, 2) for i in (0, 1))
        if is_proj:
            continue
        t, E, _, iY, pX = almost_split_sequence(N)
        # dimension additivity and exactness
        assert E.total_dim == t.total_dim + N.total_dim
        assert pX.compose(iY).is_zero()
        assert verify_right_almost_split(pX, a2_nodes)


def test_ar_quiver_mesh_symmetry(a2):
    arq = ar_quiver(a2)
    assert len(arq.nodes) == 9
    for (i, j), mult in arq.arrows.items():
        if j in arq.translation:
            assert arq.arrows.get((arq.translation[j], i)) == mult


def test_ar_quiver_m2_one_vertex():
    alg = ReplicatedAlgebra(Quiver([1], []), 2)
    nodes = enumerate_indecomposables(alg)
    # m=2 one-vertex is the A_3 quiver with zero composite: the five
    # interval modules of length at most two
    assert len(nodes) == 5
