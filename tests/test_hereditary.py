import pytest

from reptilt.linalg import Mat, rank
from reptilt.quiver import Path, Quiver
from reptilt.replicated import (ReplicatedAlgebra, embed_level, projective,
                                zero_module)

from reference import (AMap, Rep, block_diag, hom_basis, level_rep,
                       simple_rep, structure_map)


def kronecker():
    return Quiver([1, 2], [("a", 2, 1), ("b", 2, 1)])


def a2():
    return Quiver([1, 2], [("a", 2, 1)])


def base_projective_rep(v, q):
    """The projective A e_v of the base algebra as a representation."""
    return level_rep(ReplicatedAlgebra(q, 1).base_projective(v), 0)


def base_injective_rep(v, q):
    """The injective D(e_v A) of the base algebra as a representation."""
    return level_rep(ReplicatedAlgebra(q, 1).base_injective(v), 0)


def test_quiver_rejects_cycle():
    with pytest.raises(ValueError):
        Quiver([1, 2], [("a", 1, 2), ("b", 2, 1)])


def test_quiver_rejects_disconnected():
    with pytest.raises(ValueError):
        Quiver([1, 2], [])


def test_quiver_json_roundtrip():
    q = kronecker()
    q2 = Quiver.from_json(q.to_json())
    assert q2.to_json() == q.to_json()


def test_paths_between_follow_paths_order():
    # the Kronecker pair a, b: 2 -> 1 in the order of ``paths``, which
    # fixes the basis of P(2) at 1 and of I(1) at 2
    q = kronecker()
    a, b = Path(2, 1, ("a",)), Path(2, 1, ("b",))
    assert q.paths_between(2, 1) == [a, b]
    assert [p for p in q.paths if (p.source, p.target) == (2, 1)] == [a, b]
    assert q.paths_between(1, 1) == [Path(1, 1, ())]
    assert q.paths_between(1, 2) == []
    for u in q.vertices:
        for w in q.vertices:
            assert q.paths_between(u, w) == [
                p for p in q.paths if (p.source, p.target) == (u, w)]


def test_projective_dims_kronecker():
    q = kronecker()
    assert base_projective_rep(2, q).dims == {1: 2, 2: 1}
    assert base_projective_rep(1, q).dims == {1: 1, 2: 0}


def test_injective_dims_kronecker():
    q = kronecker()
    assert base_injective_rep(1, q).dims == {1: 1, 2: 2}
    assert base_injective_rep(2, q).dims == {1: 0, 2: 1}


def test_simple_rep_indicator():
    q = kronecker()
    assert simple_rep(2, q).dims == {1: 0, 2: 1}


def test_hom_projective_endo_is_one_dimensional():
    q = kronecker()
    p2 = base_projective_rep(2, q)
    assert len(hom_basis(p2, p2)) == 1


def test_hom_distinct_simples_zero():
    q = kronecker()
    assert len(hom_basis(simple_rep(1, q), simple_rep(2, q))) == 0


def test_hom_simple_into_projective():
    q = kronecker()
    assert len(hom_basis(simple_rep(1, q), base_projective_rep(2, q))) == 2


def test_hom_additive_in_direct_sums():
    q = kronecker()
    p2 = base_projective_rep(2, q)
    s1 = simple_rep(1, q)
    # hom(S1, P2 (+) P2) via a doubled rep
    doubled = Rep(q, {1: 4, 2: 2},
                  {n: block_diag([p2.maps[n], p2.maps[n]])
                   for n in ("a", "b")})
    assert len(hom_basis(s1, doubled)) == 2 * len(hom_basis(s1, p2))


def connector_image_dims(M):
    """At each vertex w, the rank of the level-1 to level-0 connector
    matrices of M stacked over the paths from w: the dims of DA (x) M_1
    as it lands in level 0."""
    q = M.algebra.quiver
    return {w: rank(Mat.hstack([structure_map(M, (0, p))
                                for p in q.paths_from(w)]))
            for w in q.vertices}


def test_dual_tensor_of_projectives():
    q = kronecker()
    alg = ReplicatedAlgebra(q, 1)
    assert connector_image_dims(projective(alg, 1, 1)) == {1: 1, 2: 2}
    assert connector_image_dims(projective(alg, 2, 1)) == {1: 0, 2: 1}
    assert connector_image_dims(embed_level(alg, zero_module(alg), 1)) == {
        1: 0, 2: 0}


def test_dual_tensor_dim_counts_paths_into_vertex():
    q = kronecker()
    alg = ReplicatedAlgebra(q, 1)
    for v in q.vertices:
        dims = connector_image_dims(projective(alg, v, 1))
        assert sum(dims.values()) == len(q.paths_into(v))


def test_projective_connector_is_iso():
    # the connector of P(v, 1) maps DA (x) A e_v onto D(e_v A) = I(v), and
    # both sides have dimension #paths w -> v at each w
    for q in (kronecker(), a2()):
        alg = ReplicatedAlgebra(q, 1)
        for v in q.vertices:
            P = projective(alg, v, 1)
            P.validate()
            assert ({w: P.dims(0, w) for w in q.vertices}
                    == base_injective_rep(v, q).dims)
            assert connector_image_dims(P) == {
                w: len([p for p in q.paths_from(w) if p.target == v])
                for w in q.vertices}


def test_amap_rejects_noncommuting():
    q = a2()
    p2 = base_projective_rep(2, q)
    # identity at vertex 1, zero at vertex 2: not a module endomorphism of P2
    with pytest.raises(ValueError):
        AMap(p2, p2, {1: Mat.identity(1), 2: Mat.zeros(1, 1)})
    # but S1 -> P2 hitting the socle commutes
    s1 = simple_rep(1, q)
    AMap(s1, p2, {1: Mat.from_rows([[1]]), 2: Mat.zeros(1, 0)}).validate()
