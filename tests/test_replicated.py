import gc
import hashlib
import json
import random
import weakref

import pytest

from reptilt import replicated
from reptilt.catalog import (dtilde4_quiver, duplicated, general_position_rep,
                             kronecker_quiver, linear_quiver)
from reptilt.field import QQ, PrimeField
from reptilt.krullschmidt import decompose, is_isomorphic
from reptilt.linalg import Mat, kernel_basis, rank
from reptilt.quiver import Path
from reptilt.homological import cosyzygy, minimal_resolution
from reptilt.replicated import (RMap, ReplicatedAlgebra, block_map,
                                cokernel, direct_sum, embed_level, hom_basis_r,
                                hom_space, identity_rmap, injective, kernel,
                                map_from_projectives, projective, radical,
                                regular_module, rmap_vector, rmodule_from_json,
                                rmodule_to_json, simple, socle, summands_of,
                                top, zero_rmap)

from reference import (block_diag, hom_basis as base_hom_basis, level_rep,
                       structure_map)


def dgrid(M):
    return M.dim_grid().entries


def connector_maps(M):
    """Every connector matrix of M, a zero one where M stores none."""
    return {k: structure_map(M, k) for k in replicated._layout(M.algebra)
            if isinstance(k[1], Path)}


def test_projective_injective_kronecker():
    alg = duplicated(kronecker_quiver())
    p11 = projective(alg, 1, 1)
    assert dgrid(p11) == {(0, 1): 1, (0, 2): 2, (1, 1): 1}
    p11.validate()
    p21 = projective(alg, 2, 1)
    assert dgrid(p21) == {(0, 2): 1, (1, 1): 2, (1, 2): 1}
    p21.validate()


def test_projective_dtilde4():
    alg = duplicated(dtilde4_quiver())
    p11 = projective(alg, 1, 1)
    assert dgrid(p11) == {(0, v): 1 for v in range(1, 6)} | {(1, 1): 1}
    p11.validate()


def test_projective_level_zero_is_embedded_base_projective():
    alg = duplicated(kronecker_quiver())
    p = projective(alg, 2, 0)
    assert dgrid(p) == {(0, 1): 2, (0, 2): 1}


def test_base_modules_are_level_0_modules():
    alg = ReplicatedAlgebra(kronecker_quiver(), 2)
    for v in alg.quiver.vertices:
        assert alg.base_projective(v) is projective(alg, v, 0)
        assert alg.base_injective(v) is alg.base_injective(v)
        assert dgrid(injective(alg, v, 2)) == {
            (2, w): d for (_, w), d in dgrid(alg.base_injective(v)).items()}
        alg.base_injective(v).validate()


# sha256 of the sorted JSON of each family of modules that the enumeration
# does not build, one digest per family in ``cells`` order: the same over
# QQ and GF(101), since every entry is 0 or 1
FAMILY_DIGESTS = {
    ("kronecker", 1): {
        "P": "9d00af65aba7c5c66112eef712c40111b824a08977bd6d2427c6d97ee2986f72",
        "I": "69650c83478fcff593cda259a3b97a2af0b5c4485f114058c357e200162a864a",
        "base P": "a0400fbd877f38490d462476b68c6552"
                  "a3646ed01f4ad5ec773f382f76245c19",
        "base I": "04847a649ade721705ba671d286acd0e"
                  "2c5bcd7b88adcb21f13ca7607398364f",
    },
    ("dtilde4", 2): {
        "P": "293620a2203ef2c9f4ff19a8a7f249bc550d254c411172341c42ddbca0ae99f5",
        "I": "849fefa58b39463656af625f2717c84a007411e92acce0894fdaa5c920ba876f",
        "base P": "41fa6336915771d0ee0a54f76dc4f1a4"
                  "b9addca4d81bb4d510c050714bbccf73",
        "base I": "6c44504a8af268a3d58176242614b235"
                  "26b283aff99ebc9e84fdc537e948b3e5",
        "general": "a99a95ac26fff4fbd433c6e4432d5c95"
                   "d7e3188563105193fa14dd3447f14cff",
    },
}


@pytest.mark.parametrize("name,m", list(FAMILY_DIGESTS),
                         ids=["kronecker-m1", "dtilde4-m2"])
@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["q", "fp101"])
def test_modules_outside_the_enumeration_keep_their_bytes(name, m, field):
    # the Dynkin pins of test_arknit do not reach a tame base, the base
    # modules embedded at each level or the general-position modules
    quiver = {"kronecker": kronecker_quiver, "dtilde4": dtilde4_quiver}[name]
    alg = ReplicatedAlgebra(quiver(), m, field)
    families = {
        "P": [projective(alg, v, i) for i, v in alg.cells],
        "I": [injective(alg, v, i) for i, v in alg.cells],
        "base P": [embed_level(alg, alg.base_projective(v), i)
                   for i, v in alg.cells],
        "base I": [embed_level(alg, alg.base_injective(v), i)
                   for i, v in alg.cells],
    }
    if name == "dtilde4":
        general = [general_position_rep(alg, v) for v in (2, 3, 4, 5)]
        families["general"] = [embed_level(alg, X, i)
                               for i in range(m + 1) for X in general]
    got = {}
    for family, mods in families.items():
        data = json.dumps([rmodule_to_json(M) for M in mods], sort_keys=True)
        got[family] = hashlib.sha256(data.encode()).hexdigest()
    assert got == FAMILY_DIGESTS[(name, m)]


def test_embed_level_moves_only_a_level_0_module():
    alg = ReplicatedAlgebra(kronecker_quiver(), 2)
    P = alg.base_projective(2)
    assert dgrid(embed_level(alg, P, 2)) == {(2, 1): 2, (2, 2): 1}
    for i in (-1, 3):
        with pytest.raises(ValueError, match="level out of range"):
            embed_level(alg, P, i)
    for X in (simple(alg, 1, 1), projective(alg, 2, 1)):
        with pytest.raises(ValueError, match="level-0 module"):
            embed_level(alg, X, 0)


def test_projective_out_of_range():
    alg = duplicated(kronecker_quiver())
    with pytest.raises(ValueError):
        projective(alg, 1, 2)


def test_injective_top_level():
    alg = duplicated(kronecker_quiver())
    i11 = injective(alg, 1, 1)
    assert dgrid(i11) == {(1, 1): 1, (1, 2): 2}


def test_injective_below_top_equals_next_projective():
    alg = ReplicatedAlgebra(linear_quiver(2), 2)
    assert injective(alg, 1, 0) is projective(alg, 1, 1)
    assert injective(alg, 2, 1) is projective(alg, 2, 2)


def test_simple_module():
    alg = duplicated(kronecker_quiver())
    assert dgrid(simple(alg, 2, 1)) == {(1, 2): 1}


def test_regular_module_dimension_identity():
    alg = duplicated(kronecker_quiver())
    reg = regular_module(alg)
    assert alg.dim == 12
    assert reg.total_dim == 12
    reg.validate()


def test_m2_projectives_composite_vanishing():
    alg = ReplicatedAlgebra(kronecker_quiver(), 2)
    for v in (1, 2):
        for i in range(3):
            projective(alg, v, i).validate()
    regular_module(alg).validate()


def test_embed_level_fullness():
    alg = duplicated(kronecker_quiver())
    q = alg.quiver
    p2 = alg.base_projective(2)
    i1 = alg.base_injective(1)
    for i in (0, 1):
        a = embed_level(alg, p2, i)
        b = embed_level(alg, i1, i)
        assert len(hom_basis_r(a, b)) == len(base_hom_basis(
            level_rep(p2, 0), level_rep(i1, 0)))
        assert len(hom_basis_r(a, a)) == len(base_hom_basis(
            level_rep(p2, 0), level_rep(p2, 0)))


def test_hom_from_projective_is_component_dim():
    alg = duplicated(kronecker_quiver())
    M = projective(alg, 1, 1)
    for v in (1, 2):
        for i in (0, 1):
            assert len(hom_basis_r(projective(alg, v, i), M)) == M.dims(i, v)


def test_map_from_projective_is_valid_and_spans():
    alg = duplicated(kronecker_quiver())
    M = projective(alg, 1, 1)
    for (v, i) in [(1, 0), (2, 0), (1, 1), (2, 1)]:
        d = M.dims(i, v)
        for j in range(d):
            x = [0] * d
            x[j] = 1
            f = map_from_projectives(projective(alg, v, i), M,
                                     [(v, i, Mat.column(x, alg.field))])
            f.validate()


def test_cokernel_of_zero_map():
    alg = duplicated(kronecker_quiver())
    M = projective(alg, 1, 1)
    from reptilt.replicated import zero_module
    C, proj = cokernel(zero_rmap(zero_module(alg), M))
    assert dgrid(C) == dgrid(M)
    C.validate()


def test_top_of_projective_is_simple():
    alg = duplicated(kronecker_quiver())
    for v in (1, 2):
        for i in (0, 1):
            T, _ = top(projective(alg, v, i))
            assert dgrid(T) == {(i, v): 1}


def test_socle_of_projective_injective():
    alg = duplicated(kronecker_quiver())
    S, _ = socle(projective(alg, 1, 1))
    assert dgrid(S) == {(0, 1): 1}
    S2, _ = socle(projective(alg, 2, 1))
    assert dgrid(S2) == {(0, 2): 1}


def test_radical_of_semisimple_is_zero():
    alg = duplicated(kronecker_quiver())
    S, incls, _ = direct_sum(alg, [simple(alg, 1, 0), simple(alg, 2, 1)])
    R, _ = radical(S)
    assert R.is_zero()


def test_radical_of_projective_injective():
    alg = duplicated(kronecker_quiver())
    R, incl = radical(projective(alg, 1, 1))
    assert dgrid(R) == {(0, 1): 1, (0, 2): 2}
    R.validate()
    incl.validate()


def test_kernel_of_epi_to_top():
    alg = duplicated(kronecker_quiver())
    P = projective(alg, 1, 1)
    T, proj = top(P)
    K, incl = kernel(proj)
    R, _ = radical(P)
    assert dgrid(K) == dgrid(R)


def test_direct_sum_maps_validate():
    alg = duplicated(kronecker_quiver())
    mods = [projective(alg, 1, 1), simple(alg, 2, 0)]
    S, incls, projs = direct_sum(alg, mods)
    S.validate()
    for f in [*incls, *projs]:
        f.validate()
    assert S.total_dim == sum(M.total_dim for M in mods)


def test_hom_additivity_over_sums():
    alg = duplicated(kronecker_quiver())
    A = projective(alg, 1, 1)
    B = simple(alg, 2, 1)
    S, _, _ = direct_sum(alg, [A, B])
    M = projective(alg, 2, 1)
    assert len(hom_basis_r(M, S)) == \
        len(hom_basis_r(M, A)) + len(hom_basis_r(M, B))


def test_projective_connector_is_onto():
    # p* sends q to r* when p = (r then q): at each w the connector matrices
    # of P(v, 1) together hit every functional r* on a path r: w -> v
    for q in (kronecker_quiver(), linear_quiver(2)):
        alg = duplicated(q)
        for v in q.vertices:
            P = projective(alg, v, 1)
            P.validate()
            hit = 0
            for w in q.vertices:
                stacked = Mat.hstack([structure_map(P, (0, p))
                                      for p in q.paths_from(w)])
                assert rank(stacked) == P.dims(0, w) == len(
                    [p for p in q.paths_from(w) if p.target == v])
                hit += rank(stacked)
            assert hit == len(q.paths_into(v))


REPLICATED = [(kronecker_quiver, 1), (lambda: linear_quiver(3), 2),
              (dtilde4_quiver, 2)]
REPLICATED_IDS = ["kronecker-m1", "a3-m2", "dtilde4-m2"]


def _named_modules(alg):
    """Every P(v, i), I(v, i) and simple, the cosyzygy of each simple, and
    one recorded sum."""
    q = alg.quiver
    mods = [fn(alg, v, i) for fn in (projective, injective, simple)
            for v in q.vertices for i in range(alg.m + 1)]
    mods += [cosyzygy(simple(alg, v, i)) for v in q.vertices
             for i in range(alg.m + 1)]
    parts = [projective(alg, q.vertices[-1], 1),
             cosyzygy(simple(alg, q.vertices[0], 0)),
             simple(alg, q.vertices[0], 0)]
    mods.append(direct_sum(alg, parts)[0])
    return mods


@pytest.mark.parametrize("quiver,m", REPLICATED, ids=REPLICATED_IDS)
def test_named_modules_satisfy_the_module_axioms(quiver, m):
    alg = ReplicatedAlgebra(quiver(), m)
    mods = _named_modules(alg)
    for M in mods:
        M.validate()
    assert any(not phi.is_zero() for M in mods
               for phi in connector_maps(M).values())


@pytest.mark.parametrize("key", ["a1", "e1", "a1 conn"])
def test_module_check_sees_the_shape_at_a_zero_cell(key):
    # the shape check walks every given key, also one whose cells are zero:
    # here the only nonzero cell is (0, 2), and one map is 1x1 instead of
    # empty.  The raw reader checks the shape of each matrix it reads
    # before it drops those at a zero cell.
    alg = duplicated(linear_quiver(2))
    q = alg.quiver
    bad = Mat.identity(1)
    paths = {"e1": Path(1, 1, ()), "a1 conn": Path(2, 1, ("a1",))}
    assert set(paths.values()) <= set(q.paths)
    at = (0, paths[key]) if key in paths else (0, "a1")
    with pytest.raises(ValueError, match="has shape 1x1"):
        replicated.RModule(alg, {(0, 2): 1}, {at: bad}, check=True)
    raw = rmodule_to_json(simple(alg, 2, 0))
    entry = {"rows": 1, "cols": 1, "entries": [["1"]]}
    if key in paths:
        raw["connectors"][0][q.paths.index(paths[key])] = entry
    else:
        raw["levels"][0]["maps"]["a1"] = entry
    with pytest.raises(ValueError, match="has shape 1x1"):
        rmodule_from_json(alg, raw)


@pytest.mark.parametrize("level", [0, 1])
def test_map_check_sees_an_empty_target_cell_of_the_source(level):
    # f sends the simple S(v, level) onto the top of P(v, level); the
    # structure map out of (level, v) is zero on S, whose target cell there
    # is zero, but not on P: f breaks commutation only at that key
    alg = duplicated(linear_quiver(2))
    v = 2 if level == 0 else 1
    S, P = simple(alg, v, level), projective(alg, v, level)
    assert P.dims(level, v) == 1
    onto_top = {(level, v): Mat.identity(1)}
    with pytest.raises(ValueError, match="does not commute with %s"
                       % ("arrow a1 at level 0" if level == 0 else
                          "connector 0 at path")):
        RMap(S, P, onto_top, check=True)
    RMap(S, P, {}, check=True)


@pytest.mark.parametrize("quiver,m", REPLICATED, ids=REPLICATED_IDS)
def test_sum_connectors_are_block_diagonal(quiver, m):
    alg = ReplicatedAlgebra(quiver(), m)
    q = alg.quiver
    parts = [projective(alg, q.vertices[0], 1), simple(alg, q.vertices[-1], 0),
             cosyzygy(simple(alg, q.vertices[0], 0)),
             projective(alg, q.vertices[-1], m)]
    S, incls, projs = direct_sum(alg, parts)
    S.validate()
    for f in [*incls, *projs]:
        f.validate()
    for j in range(m):
        for p in q.paths:
            assert structure_map(S, (j, p)) == block_diag(
                [structure_map(X, (j, p)) for X in parts])


def _eager_sum_maps(S, parts):
    """Reference inclusions and projections of S = parts[0] (+) ...: the
    identity at each part's offset per (level, vertex) where the part is
    nonzero, zero elsewhere."""
    f = S.algebra.field
    incls, projs = [], []
    for k, X in enumerate(parts):
        comps = {}
        for i, v in X.support:
            o = sum(Y.dims(i, v) for Y in parts[:k])
            comps[(i, v)] = Mat(S.dims(i, v), X.dims(i, v),
                                [[f.one if r == o + c else f.zero
                                  for c in range(X.dims(i, v))]
                                 for r in range(S.dims(i, v))], f)
        incls.append(RMap(X, S, comps))
        projs.append(RMap(S, X, {c: m.transpose() for c, m in comps.items()}))
    return incls, projs


@pytest.mark.parametrize("quiver,m", REPLICATED, ids=REPLICATED_IDS)
def test_sum_maps_built_on_demand_match_the_eager_ones(quiver, m):
    alg = ReplicatedAlgebra(quiver(), m)
    q = alg.quiver
    simple0 = simple(alg, q.vertices[0], 0)
    # a repeated part, a part zero at most (level, vertex), a nested sum
    parts = [projective(alg, q.vertices[0], 1), simple0,
             cosyzygy(simple0), simple0, _named_modules(alg)[-1]]
    S, incls, projs = direct_sum(alg, parts)
    assert summands_of(S) == parts
    want_incls, want_projs = _eager_sum_maps(S, parts)
    assert len(incls) == len(projs) == len(parts)
    for got, want in zip([*incls, *projs], want_incls + want_projs):
        got.validate()
        assert (got.source, got.target) == (want.source, want.target)
        assert rmap_vector(got) == rmap_vector(want)
    for k, X in enumerate(parts):
        for l, Y in enumerate(parts):
            want = identity_rmap(X) if k == l else zero_rmap(Y, X)
            assert rmap_vector(projs[k].compose(incls[l])) == \
                rmap_vector(want)
    total = zero_rmap(S, S)
    for i, p in zip(incls, projs):
        total = total + i.compose(p)
    assert rmap_vector(total) == rmap_vector(identity_rmap(S))
    # each map is built once; indexing and iterating read the same maps
    assert incls[-1] is incls[len(parts) - 1] is list(incls)[-1]
    with pytest.raises(IndexError):
        incls[len(parts)]


def test_sum_maps_are_freed_with_their_sequence():
    # the sum does not refer to its inclusions, so they need no garbage
    # collection: reference counting frees them with the sequence
    alg = duplicated(kronecker_quiver())
    S, incls, _ = direct_sum(alg, [projective(alg, 1, 1), simple(alg, 2, 0)])
    gc.disable()
    try:
        ref = weakref.ref(incls[0])
        del incls
        assert ref() is None
    finally:
        gc.enable()


def test_resolving_a_recorded_sum_builds_no_sum_maps(monkeypatch):
    built = []
    real = replicated.summand_map
    monkeypatch.setattr(replicated, "summand_map",
                        lambda *args: built.append(args) or real(*args))
    alg = ReplicatedAlgebra(dtilde4_quiver(), 2)
    q = alg.quiver
    M, incls, _ = direct_sum(alg, [cosyzygy(simple(alg, q.vertices[0], 0)),
                                   injective(alg, q.vertices[-1], 1),
                                   simple(alg, q.vertices[1], 2)])
    res = minimal_resolution(M)
    assert len(res.modules) >= 2
    assert len(decompose(M)) >= 3
    assert built == []
    incls[1]
    assert len(built) == 1


@pytest.mark.parametrize("quiver,m", REPLICATED, ids=REPLICATED_IDS)
def test_raw_round_trip_of_a_cosyzygy(quiver, m):
    alg = ReplicatedAlgebra(quiver(), m)
    C = cosyzygy(simple(alg, alg.quiver.vertices[0], 0))
    assert any(not phi.is_zero() for phi in connector_maps(C).values())
    raw = json.loads(json.dumps(rmodule_to_json(C)))
    assert all(len(conn) == len(alg.quiver.paths)
               for conn in raw["connectors"])
    C2 = rmodule_from_json(alg, raw)
    assert connector_maps(C2) == connector_maps(C)
    assert is_isomorphic(C2, C)


def test_json_roundtrip():
    alg = duplicated(kronecker_quiver())
    M = projective(alg, 2, 1)
    M2 = rmodule_from_json(alg, rmodule_to_json(M))
    assert dgrid(M2) == dgrid(M)
    assert len(hom_basis_r(M, M2)) == len(hom_basis_r(M, M))


def _fixture_modules(alg):
    mods = [fn(alg, v, i) for fn in (projective, injective, simple)
            for v in alg.quiver.vertices for i in range(alg.m + 1)]
    mods.append(direct_sum(alg, [projective(alg, 1, 1), simple(alg, 1, 0)])[0])
    return mods


@pytest.mark.parametrize("quiver", [kronecker_quiver, lambda: linear_quiver(3)],
                         ids=["kronecker", "A3"])
@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["q", "fp101"])
def test_hom_space_coords_and_combine_invert(quiver, field):
    alg = duplicated(quiver(), field)
    mods = _fixture_modules(alg)
    rng = random.Random(7)
    nonzero = 0
    for _ in range(60):
        M, X, N = (rng.choice(mods) for _ in range(3))
        space = hom_space(M, N)
        assert space.basis is hom_basis_r(M, N)
        assert space.vectors == [rmap_vector(b) for b in space.basis]
        # a random element built by RMap arithmetic and by composing
        # through X, not by combine
        g = zero_rmap(M, N)
        terms = space.basis + [b2.compose(b1) for b1 in hom_basis_r(M, X)
                               for b2 in hom_basis_r(X, N)]
        for h in terms:
            g = g + h.scale(field.of(rng.randint(-3, 3)))
        assert rmap_vector(space.combine(space.coords(g))) == rmap_vector(g)
        coeffs = [field.of(rng.randint(-3, 3)) for _ in space.basis]
        assert space.coords(space.combine(coeffs)) == coeffs
        nonzero += not g.is_zero()
    assert nonzero >= 15


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["q", "fp101"])
def test_hom_space_coords_refuse_non_module_maps(field):
    alg = duplicated(kronecker_quiver(), field)
    P = projective(alg, 2, 0)      # vertex 2 maps onto vertex 1 by a and b
    ident = hom_space(P, P).combine([1])
    # identity at vertex 2, zero at vertex 1: breaks commutation with a, b
    bad = RMap(P, P, {**ident.comps, (0, 1): Mat.zeros(2, 2, field)},
               check=False)
    with pytest.raises(ValueError):
        bad.validate()
    with pytest.raises(ValueError):
        hom_space(P, P).coords(bad)


def test_validate_rejects_bad_cells_arrows_and_connectors():
    alg = duplicated(kronecker_quiver())
    f = alg.field
    P = projective(alg, 2, 1)      # (0, 2): 1, (1, 1): 2, (1, 2): 1
    ident = identity_rmap(P)
    ident.validate()
    with pytest.raises(ValueError, match="level 1, vertex 1 has shape 1x2"):
        RMap(P, P, {**ident.comps, (1, 1): Mat.zeros(1, 2, f)})
    # P(2) alone at level 1: zero connectors, arrows a and b at level 1
    L = embed_level(alg, alg.base_projective(2), 1)
    with pytest.raises(ValueError, match="arrow a at level 1"):
        RMap(L, L, {**identity_rmap(L).comps, (1, 1): Mat.zeros(2, 2, f)})
    # the level-1 cells zeroed commute with every arrow, not with p*
    with pytest.raises(ValueError, match="connector 0"):
        RMap(P, P, {(0, 2): ident.comps[(0, 2)]})


def test_hom_between_disjoint_supports_solves_no_system(monkeypatch):
    # S(1, 0) and S(1, 1) share no cell: Hom between them is the empty
    # space, and no system is built or solved for it
    solved = []
    real = replicated.kernel_basis
    monkeypatch.setattr(replicated, "kernel_basis",
                        lambda m: solved.append(m) or real(m))
    alg = duplicated(linear_quiver(2))
    S0, S1 = simple(alg, 1, 0), simple(alg, 1, 1)
    for M, N in ((S0, S1), (S1, S0)):
        space = hom_space(M, N)
        assert (space.basis, space.ambient, space.offsets) == ([], 0, {})
        assert space.coords(zero_rmap(M, N)) == []
        assert rmap_vector(space.combine([])) == []
    assert solved == []
    assert len(hom_basis_r(S0, S0)) == 1
    assert len(solved) == 1


def _hom_system_of_every_path(M, N):
    """(vectors, pivots) of Hom(M, N) solved with commutation rows for
    every arrow and for the connector matrix of every path."""
    alg = M.algebra
    q, f = alg.quiver, alg.field
    offsets, total = {}, 0
    for i in range(alg.m + 1):
        for v in q.vertices:
            offsets[(i, v)] = total
            total += N.dims(i, v) * M.dims(i, v)
    rows = []
    for key, (src, tgt) in replicated._layout(alg).items():
        rows += replicated._commutation_rows(
            structure_map(N, key), structure_map(M, key), src, tgt,
            (N.dims(*tgt), M.dims(*src)), offsets, total, f.zero)
    ker = kernel_basis(Mat(len(rows), total, rows, f) if rows
                       else Mat.zeros(0, total, f))
    return [ker.basis.col(k) for k in range(ker.dim)], ker.pivot_rows


@pytest.mark.parametrize("quiver,m", REPLICATED, ids=REPLICATED_IDS)
def test_hom_rows_of_maximal_paths_give_the_same_basis(quiver, m):
    alg = ReplicatedAlgebra(quiver(), m)
    mods = _named_modules(alg)
    nonzero = 0
    for M, N in ((M, N) for M in mods for N in mods):
        space = hom_space(M, N)
        assert (space.vectors, space.pivots) == \
            _hom_system_of_every_path(M, N)
        nonzero += bool(space.vectors)
    assert nonzero >= 100


def _compose_reference(grid, S, incls, T, projs):
    """sum_kl incls[k] o grid[k][l] o projs[l], the assembly through the
    direct-sum inclusions and projections that block_map replaces."""
    total = zero_rmap(S, T)
    for k, row in enumerate(grid):
        for l, g in enumerate(row):
            total = total + incls[k].compose(g).compose(projs[l])
    return total


def _random_map(M, N, rng):
    space = hom_space(M, N)
    return space.combine([rng.randint(-3, 3) for _ in space.basis])


@pytest.mark.parametrize("quiver", [kronecker_quiver, lambda: linear_quiver(3)],
                         ids=["kronecker", "A3"])
def test_block_map_matches_inclusion_projection_sums(quiver):
    alg = duplicated(quiver())
    mods = _fixture_modules(alg)
    rng = random.Random(11)
    nonzero = 0
    for _ in range(12):
        cols = [rng.choice(mods) for _ in range(rng.randint(1, 3))]
        rows = [rng.choice(mods) for _ in range(rng.randint(1, 3))]
        S, _, projs = direct_sum(alg, cols)
        T, incls, _ = direct_sum(alg, rows)
        grid = [[_random_map(X, Y, rng) for X in cols] for Y in rows]
        f = block_map(S, T, grid)
        f.validate()
        assert rmap_vector(f) == rmap_vector(
            _compose_reference(grid, S, incls, T, projs))
        nonzero += not f.is_zero()
    assert nonzero >= 6


def test_block_map_takes_a_recorded_sum_as_one_block():
    # the layout comes from the blocks: the regular module, itself a
    # recorded sum, stands as the one source block of a left approximation
    alg = duplicated(kronecker_quiver())
    reg = regular_module(alg)
    targets = [injective(alg, 1, 1), simple(alg, 2, 1), projective(alg, 2, 0)]
    rng = random.Random(5)
    grid = [[_random_map(reg, Y, rng)] for Y in targets]
    T, incls, _ = direct_sum(alg, targets)
    f = block_map(reg, T, grid)
    f.validate()
    ref = _compose_reference(grid, reg, incls, T, [identity_rmap(reg)])
    assert rmap_vector(f) == rmap_vector(ref)
    assert not f.is_zero()
