from collections import Counter
from itertools import combinations

import pytest

from reptilt.approx import left_approximation
from reptilt.arknit import enumerate_indecomposables
from reptilt.catalog import (d4_almost_complete_pd1, d4_almost_complete_pd2,
                             duplicated, kronecker_almost_complete_pd1,
                             kronecker_almost_complete_pd2,
                             kronecker_almost_complete_pd3, kronecker_quiver,
                             linear_quiver)
from reptilt.homological import (cosyzygy, injective_envelope, is_faithful,
                                 pd)
from reptilt.krullschmidt import (basic_summands, decompose, is_isomorphic)
from reptilt.linalg import Mat
from reptilt.replicated import (ReplicatedAlgebra, RModule, cokernel,
                                direct_sum, embed_level, injective,
                                projective, regular_module, simple)
from reptilt import tilting
from reptilt.tilting import (Catalog, _level0_faithful, bongartz_complete,
                             certify, certify_tilting, classify_duplicated,
                             complement_fan, complete_partial_tilting,
                             coresolution, is_partial_tilting)
from reptilt.tiltquiver import exhaustive_tilting_oracle

from reference import (_base_rep_faithful, almost_complete, is_tilting,
                       level_rep)


@pytest.fixture(scope="module")
def a2():
    return duplicated(linear_quiver(2))


@pytest.fixture(scope="module")
def a2_oracle(a2):
    return exhaustive_tilting_oracle(a2)


def test_regular_module_is_tilting(a2):
    assert is_tilting(regular_module(a2))
    alg2 = ReplicatedAlgebra(linear_quiver(2), 2)
    assert is_tilting(regular_module(alg2))


def test_partial_tilting_detects_extensions(a2):
    # Ext^1(S(2,0), S(1,0)) is nonzero, so the pair is not partial tilting
    M, _, _ = direct_sum(a2, [simple(a2, 1, 0), simple(a2, 2, 0)])
    assert not is_partial_tilting(M)
    assert is_partial_tilting(simple(a2, 1, 0))
    assert is_partial_tilting(regular_module(a2))


def test_almost_complete_is_not_tilting(a2):
    parts = basic_summands(regular_module(a2))
    for drop in range(len(parts)):
        rest, _, _ = direct_sum(a2, parts[:drop] + parts[drop + 1:])
        assert not is_tilting(rest)


def test_certify_agrees_with_is_tilting_of_the_sum(a2, a2_oracle):
    """certify on parts gives the verdict of is_tilting on their direct sum:
    on the tilting modules, on their almost complete parts, and on the
    delta-sized sets of indecomposables that are not Ext-orthogonal."""
    def total(parts):
        return direct_sum(a2, list(parts))[0]

    tilting = [[X for X, _ in record.pieces] for record in a2_oracle]
    almost = [list(c) for parts in tilting
              for c in combinations(parts, len(parts) - 1)]
    assert all(is_partial_tilting(total(c)) for c in almost)
    clashing = [list(c) for c in combinations(enumerate_indecomposables(a2),
                                              a2.delta)
                if not is_partial_tilting(total(c))]
    assert len(tilting) == 9 and clashing
    for parts in tilting + almost + clashing:
        record = certify(a2, parts)
        assert (record is not None) == is_tilting(total(parts))
        assert (record is not None) == (parts in tilting)
        if record is not None:
            assert record.algebra is a2
            assert len(record.pieces) == len(parts)
            assert all(X is Y for (X, _), Y in zip(record.pieces, parts))


def test_certify_refuses_isomorphic_parts(a2):
    # I(1, 0) is P(1, 1) itself; the one-summand sum is a distinct copy,
    # and the delta count would take either for a fourth class
    for twin in (injective(a2, 1, 0),
                 direct_sum(a2, [projective(a2, 1, 1)])[0]):
        parts = [projective(a2, 1, 1), projective(a2, 2, 0), twin,
                 cosyzygy(simple(a2, 2, 0))]
        with pytest.raises(ValueError, match="isomorphic parts"):
            certify(a2, parts)


def _whole_a_coresolution(alg, parts):
    """Reference: the coresolution of A itself, one approximation of the
    whole regular module per step."""
    current = regular_module(alg)
    terms = []
    for _ in range(2 * alg.m + 2):
        if current.is_zero():
            return terms
        appr = left_approximation(current, parts)
        if not appr.map.is_mono():
            return None
        terms.append(appr.map.target)
        current, _ = cokernel(appr.map)
    return terms if current.is_zero() else None


def test_coresolution_per_projective_matches_whole_a(a2, a2_oracle):
    """Running the coresolution on each P(v, i) decides as running it on A:
    on the tilting modules of duplicated A2, on their three-summand parts
    (partial tilting, not tilting) and on the Kronecker fixtures completed
    by each complement of their fans.  The terms of a tilting T lie in
    add(T)."""
    tilting = [(a2, [X for X, _ in record.pieces]) for record in a2_oracle]
    almost = [(a2, list(c)) for _, parts in tilting
              for c in combinations(parts, len(parts) - 1)]
    assert len(tilting) == 9 and len(almost) == 36
    completed = []
    for fixture in (kronecker_almost_complete_pd1,
                    kronecker_almost_complete_pd2,
                    kronecker_almost_complete_pd3):
        alg, T = fixture()
        completed += [(alg, basic_summands(T) + [X])
                      for X, _ in complement_fan(T).complements]
    assert len(completed) == 9
    for alg, parts in tilting + completed:
        terms = coresolution(alg, parts)
        assert terms is not None
        assert _whole_a_coresolution(alg, parts) is not None
        for term in terms:
            assert all(any(is_isomorphic(Y, X) for X in parts)
                       for Y in decompose(term))
    for alg, parts in almost:
        assert coresolution(alg, parts) is None
        assert _whole_a_coresolution(alg, parts) is None


def test_coresolution_skips_the_projectives_among_the_parts(a2, a2_oracle,
                                                           monkeypatch):
    """A P(v, i) isomorphic to a part has the trivial chain, so no left
    approximation runs on it: every tilting set of duplicated A2 holds the
    projective-injectives P(v, 1), and on A itself none runs at all."""
    approximated = []

    def spy(M, parts):
        approximated.append(M)
        return left_approximation(M, parts)

    monkeypatch.setattr(tilting, "left_approximation", spy)
    upper = [projective(a2, v, i) for v in a2.quiver.vertices
             for i in range(1, a2.m + 1)]
    for record in a2_oracle:
        parts = [X for X, _ in record.pieces]
        assert all(any(is_isomorphic(P, X) for X in parts) for P in upper)
        assert coresolution(a2, parts) is not None
    assert approximated
    assert not any(is_isomorphic(M, P) for M in approximated for P in upper)
    approximated.clear()
    assert coresolution(a2, basic_summands(regular_module(a2))) is not None
    assert approximated == []


def test_certify_raises_on_non_tilting(a2):
    with pytest.raises(ValueError):
        certify_tilting(simple(a2, 1, 0))


def test_bongartz_of_zero_is_regular(a2):
    from reptilt.replicated import zero_module
    record = certify_tilting(regular_module(a2))
    got = bongartz_complete(zero_module(a2))
    assert len(got.pieces) == len(record.pieces)
    for X, _ in got.pieces:
        assert any(is_isomorphic(X, Y) for Y, _ in record.pieces)


def test_bongartz_completes_a_projective(a2):
    P = projective(a2, 2, 1)
    record = bongartz_complete(P)
    assert any(is_isomorphic(X, P) for X, _ in record.pieces)
    assert len(record.pieces) == a2.delta


def test_bongartz_rejects_higher_pd():
    alg = duplicated(kronecker_quiver())
    M = embed_level(alg, alg.base_projective(2), 1)
    assert pd(M) == 2
    with pytest.raises(ValueError):
        bongartz_complete(M)


def test_seed_candidates_end_with_the_bongartz_pieces():
    # a Kronecker base is not Dynkin: the projectives, the I(v, m), the base
    # projectives and injectives at each level, then for pd <= 1 the
    # pieces of the Bongartz completion, which reads the first syzygy of
    # the minimal resolution
    alg, T = kronecker_almost_complete_pd1()
    assert pd(T) == 1
    got = list(tilting._seed_candidates(T))
    assert len(got) == 18
    assert got[:4] == [projective(alg, v, i) for i, v in alg.cells]
    assert got[4:6] == [injective(alg, v, 1) for v in alg.quiver.vertices]
    base = [embed_level(alg, f(v), i) for i, v in alg.cells
            for f in (alg.base_projective, alg.base_injective)]
    assert all(is_isomorphic(X, Y) for X, Y in zip(got[6:14], base))
    pieces = [X for X, _ in bongartz_complete(T).pieces]
    assert len(pieces) == alg.delta == 4
    assert all(is_isomorphic(X, Y) for X, Y in zip(got[14:], pieces))


def _fan_grids(fan):
    """The complement grids, pds and witness grids of a fan."""
    return ([str(X.dim_grid()) for X, _ in fan.complements], fan.pds,
            [[str(w[k].dim_grid()) for k in ("sub", "mid", "quot")]
             for w in fan.exchange_witnesses])


def _assert_exact_witnesses(alg, fan):
    """Witness k is an exact 0 -> sub -> mid -> quot -> 0 (incl mono, proj
    epi, the composite zero, the dimensions adding up at every cell) from
    complement k to complement k + 1."""
    assert len(fan.exchange_witnesses) == len(fan.complements) - 1
    for k, w in enumerate(fan.exchange_witnesses):
        incl, proj = w["incl"], w["proj"]
        assert incl.source is w["sub"] and proj.target is w["quot"]
        assert incl.target is w["mid"] is proj.source
        assert incl.is_mono() and proj.is_epi()
        assert proj.compose(incl).is_zero()
        assert all(w["sub"].dims(i, v) + w["quot"].dims(i, v)
                   == w["mid"].dims(i, v) for i, v in alg.cells)
        assert is_isomorphic(w["sub"], fan.complements[k][0])
        assert is_isomorphic(w["quot"], fan.complements[k + 1][0])


def test_fans_match_exhaustive_partner_sets(a2, a2_oracle):
    """Dropping any summand of any tilting module and walking the fan, from
    each partner and from no seed, must recover exactly the partners seen
    across the whole oracle list, with the same grids, pds and witness
    grids from every seed and exact witnesses; the census of fan sizes is
    pinned, and counted two ways: the fans hold delta summands of each
    vertex, and each fan of n partners is a chain of n - 1 arrows (11 and
    33, as the BFS tests pin)."""
    a2m2 = ReplicatedAlgebra(linear_quiver(2), 2)
    for alg, oracle, sizes, census in [
            (a2, a2_oracle, {1: 18, 2: 3, 3: 4}, (25, 36, 11)),
            (a2m2, exhaustive_tilting_oracle(a2m2), {1: 88, 4: 11},
             (99, 132, 33))]:
        groups = almost_complete(oracle)
        catalog = Catalog.of(alg)
        for key, (parts, expected) in groups.items():
            grids = []
            rest, _, _ = direct_sum(alg, parts)
            for seed in expected + [None]:
                # the chain is cached in the algebra's catalog: drop it so
                # that every seed walks the fan
                catalog.fans.pop(key, None)
                fan = complement_fan(rest, seed=seed)
                assert len(fan.complements) == len(expected)
                for X, _ in fan.complements:
                    assert any(is_isomorphic(X, Y) for Y in expected)
                _assert_exact_witnesses(alg, fan)
                grids.append(_fan_grids(fan))
            assert all(g == grids[0] for g in grids)
        fans = [len(e) for _, e in groups.values()]
        assert Counter(fans) == sizes
        assert (len(fans), sum(fans), sum(n - 1 for n in fans)) == census
        assert sum(fans) == alg.delta * len(oracle)


def test_seed_is_checked_against_a_cached_chain(a2, a2_oracle):
    """Once the chain of T_bar is in the catalog, a seed that is no
    complement is still refused, and one that is gets the cached chain."""
    parts = [X for X, _ in a2_oracle[0].pieces]
    rest = parts[1:]
    T_bar, _, _ = direct_sum(a2, rest)
    fan = complement_fan(T_bar)
    nodes, witnesses = Catalog.of(a2).fans[frozenset(rest)]
    assert [X for X, _ in fan.complements] == nodes
    assert fan.exchange_witnesses is witnesses
    # a summand of T_bar, and a decomposable sum of two complements
    decomposable, _, _ = direct_sum(a2, [parts[0], parts[0]])
    for seed in (rest[0], decomposable):
        with pytest.raises(ValueError, match="not a complement"):
            complement_fan(T_bar, seed=seed)
    for X in nodes:
        again = complement_fan(T_bar, seed=X)
        assert all(Y is Z for (Y, _), Z in zip(again.complements, nodes))
        assert again.exchange_witnesses is witnesses


@pytest.mark.parametrize("fixture", [kronecker_almost_complete_pd1,
                                     kronecker_almost_complete_pd2,
                                     kronecker_almost_complete_pd3])
def test_fan_certifies_each_set_of_parts_once(fixture, monkeypatch):
    """One walk runs ``certify`` at most once per set of parts, counted up
    to isomorphism with a catalog of the test's own; its witnesses are
    exact."""
    import reptilt.tilting
    certify = reptilt.tilting.certify
    alg, T = fixture()
    classes = Catalog(alg)
    calls = Counter()

    def counted(alg, parts):
        calls[frozenset(classes.canonical(X) for X in parts)] += 1
        return certify(alg, parts)
    monkeypatch.setattr(reptilt.tilting, "certify", counted)
    fan = complement_fan(T)
    assert calls and max(calls.values()) == 1, calls
    assert len(fan.complements) == 3
    _assert_exact_witnesses(alg, fan)


def test_fan_pds_are_unimodal_bottom_up(a2, a2_oracle):
    for rest, partners in almost_complete(a2_oracle).values():
        T_bar, _, _ = direct_sum(a2, rest)
        pds = complement_fan(T_bar, seed=partners[0]).pds
        # the walk goes bottom-up, so pds never decrease
        assert pds == sorted(pds)


def test_complete_partial_tilting_with_candidates(a2):
    nodes = enumerate_indecomposables(a2)
    M = next(X for X in nodes if pd(X) == 2 and is_partial_tilting(X))
    record = complete_partial_tilting(M)
    assert any(is_isomorphic(X, M) for X, _ in record.pieces)
    assert len(record.pieces) == a2.delta


def test_complete_partial_tilting_needs_strategy():
    alg = duplicated(kronecker_quiver())
    M = embed_level(alg, alg.base_projective(2), 1)
    with pytest.raises(RuntimeError):
        complete_partial_tilting(M)


def test_classify_requires_duplicated_case():
    alg = ReplicatedAlgebra(linear_quiver(2), 2)
    parts = basic_summands(regular_module(alg))
    T_bar, _, _ = direct_sum(alg, parts[:-1])
    with pytest.raises(ValueError):
        classify_duplicated(T_bar)


@pytest.fixture(scope="module")
def d4_pd1():
    return d4_almost_complete_pd1()


@pytest.fixture(scope="module")
def d4_pd2():
    return d4_almost_complete_pd2()


def test_four_subspace_pd1_fan(d4_pd1):
    alg, T = d4_pd1
    assert pd(T) == 1
    assert is_faithful(T)
    fan = complement_fan(T)
    assert fan.pds == [1, 1, 2]
    grids = [str(X.dim_grid()) for X, _ in fan.complements]
    assert grids == ["L0{1:1,3:1,4:1,5:1}", "L0{2:1}", "L1{1:1,2:1}"]


def test_four_subspace_pd1_classifier(d4_pd1):
    alg, T = d4_pd1
    report = classify_duplicated(T)
    assert report["fan_size"] == 3
    assert not report["has_pd3_complement"]
    # four complements would require a projective envelope of the pd-2 one
    assert not report["pd2_envelope_projective"]
    assert report["level0_part_faithful"]


def test_four_subspace_pd2_fan(d4_pd2):
    alg, T = d4_pd2
    assert pd(T) == 2
    fan = complement_fan(T)
    assert fan.pds == [0, 1, 2, 3]
    X3 = fan.complements[-1][0]
    assert X3.dims(1, 1) == 5
    assert all(X3.dims(1, v) == 2 for v in (2, 3, 4, 5))
    assert all(X3.dims(0, v) == 0 for v in (1, 2, 3, 4, 5))


def test_four_subspace_pd2_envelope(d4_pd2):
    alg, T = d4_pd2
    fan = complement_fan(T)
    X2 = next(X for X, p in fan.complements if p == 2)
    E, _ = injective_envelope(X2)
    parts = decompose(E)
    assert len(parts) == 3
    assert all(is_isomorphic(q, injective(alg, 1, 1)) for q in parts)
    report = classify_duplicated(T)
    assert report["fan_size"] == 4
    assert report["has_pd3_complement"]
    assert not report["pd2_envelope_projective"]


def test_kronecker_fixture_fans():
    alg3, T3 = kronecker_almost_complete_pd3()
    assert pd(T3) == 3
    assert complement_fan(T3).pds == [1, 2, 3]
    alg1, T1 = kronecker_almost_complete_pd1()
    assert pd(T1) == 1
    fan1 = complement_fan(T1)
    assert fan1.pds == [1, 1, 2]
    alg2, T2 = kronecker_almost_complete_pd2()
    assert pd(T2) == 2
    fan2 = complement_fan(T2)
    assert fan2.pds == [1, 2, 2]
    # neither low-pd fixture admits a complement of maximal dimension
    assert 3 not in fan1.pds and 3 not in fan2.pds


def test_kronecker_pd3_complement_is_global_dimension_witness():
    alg, T = kronecker_almost_complete_pd3()
    fan = complement_fan(T)
    X3 = fan.complements[-1][0]
    assert pd(X3) == 3 == 2 * alg.m + 1
    assert is_isomorphic(X3, injective(alg, 1, 1))


def test_level0_faithfulness_matches_the_path_action_reference(d4_pd1):
    """The approximation test of ``classify_duplicated`` against the path
    actions, vectorized: every set of level-0 nodes of duplicated A2 and
    A3, every set of level-0 parts of the four-subspace pd-1 fixture, and
    five Kronecker modules, some of them not faithful."""
    def level0(alg, modules):
        return [X for X in modules
                if all(X.dims(1, v) == 0 for v in alg.quiver.vertices)]

    def subsets(xs):
        return [list(c) for k in range(1, len(xs) + 1)
                for c in combinations(xs, k)]

    cases = []
    for n, count in ((2, 3), (3, 6)):
        alg = duplicated(linear_quiver(n))
        nodes = level0(alg, Catalog.of(alg).indecomposables())
        assert len(nodes) == count
        cases += [(alg, parts) for parts in subsets(nodes)]
    alg, T = d4_pd1
    parts = level0(alg, basic_summands(T))
    assert len(parts) == 4
    cases += [(alg, sub) for sub in subsets(parts)]
    kron = duplicated(kronecker_quiver())
    line = RModule(kron, {(0, 1): 1, (0, 2): 1},
                   {(0, "a"): Mat.from_rows([[1]]),
                    (0, "b"): Mat.from_rows([[0]])})
    cases += [(kron, [X]) for X in (
        projective(kron, 1, 0), projective(kron, 2, 0), simple(kron, 2, 0),
        embed_level(kron, kron.base_injective(1), 0),
        embed_level(kron, line, 0))]
    verdicts = []
    for alg, parts in cases:
        S, _, _ = direct_sum(alg, parts)
        verdicts.append(_base_rep_faithful(level_rep(S, 0)))
        assert _level0_faithful(alg, parts) == verdicts[-1]
    assert len(cases) == 7 + 63 + 15 + 5
    assert set(verdicts) == {True, False}


def test_count_complements_matches_fan():
    alg, T = kronecker_almost_complete_pd2()
    assert len(complement_fan(T).complements) == 3
