import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptilt import krullschmidt
from reptilt.catalog import (dtilde4_quiver, duplicated, general_position_rep,
                             kronecker_quiver, linear_quiver)
from reptilt.field import PrimeField
from reptilt.homological import ext, pd
from reptilt.krullschmidt import (basic_summands, decompose, delta_count,
                                  end_radical_basis, is_indecomposable,
                                  is_isomorphic)
from reptilt.linalg import Mat
from reptilt.replicated import (RMap, RModule, direct_sum, embed_level,
                                projective, regular_module,
                                rmodule_from_json, rmodule_to_json, simple)
from reptilt.tiltquiver import Catalog

from reference import decompose_with_maps, hom_dim


def dgrid(M):
    return M.dim_grid().entries


def level0(alg, dims, rows):
    """The level-0 module of ``dims`` per vertex and the matrix of ``rows``
    per arrow, checked."""
    return RModule(alg, {(0, v): d for v, d in dims.items()},
                   {(0, a): Mat.from_rows(r, field=alg.field)
                    for a, r in rows.items()})


@pytest.fixture(scope="module")
def kron():
    return duplicated(kronecker_quiver())


def test_simples_and_projectives_indecomposable(kron):
    for v in (1, 2):
        for i in (0, 1):
            assert is_indecomposable(simple(kron, v, i))
            assert is_indecomposable(projective(kron, v, i))


def test_decompose_regular_module(kron):
    parts = decompose(regular_module(kron))
    assert len(parts) == 4
    grids = sorted(str(p.dim_grid()) for p in parts)
    want = sorted(str(projective(kron, v, i).dim_grid())
                  for v in (1, 2) for i in (0, 1))
    assert grids == want


def test_decompose_direct_sum_with_multiplicity(kron):
    P = projective(kron, 1, 1)
    S = simple(kron, 2, 0)
    M, _, _ = direct_sum(kron, [P, S, P])
    parts = decompose(M)
    assert len(parts) == 3
    assert sum(is_isomorphic(X, P) for X in parts) == 2
    assert sum(is_isomorphic(X, S) for X in parts) == 1
    assert delta_count(M) == 2


def test_decompose_with_maps_reassembles(kron):
    M, _, _ = direct_sum(kron, [projective(kron, 1, 0), simple(kron, 1, 1),
                                simple(kron, 1, 1)])
    parts, incls, projs = decompose_with_maps(M)
    assert len(parts) == 3
    for incl, proj in zip(incls, projs):
        comp = proj.compose(incl)
        assert comp.is_iso()


def test_iso_detects_twisted_copy(kron):
    # the same subspace configuration written in a different basis
    a = level0(kron, {1: 1, 2: 1}, {"a": [[1]], "b": [[0]]})
    b = level0(kron, {1: 1, 2: 1}, {"a": [[2]], "b": [[0]]})
    c = level0(kron, {1: 1, 2: 1}, {"a": [[0]], "b": [[1]]})
    A = embed_level(kron, a, 0)
    B = embed_level(kron, b, 0)
    C = embed_level(kron, c, 0)
    assert is_isomorphic(A, B)
    assert not is_isomorphic(A, C)


def test_iso_of_sums_ignores_order(kron):
    P = projective(kron, 1, 1)
    S = simple(kron, 2, 0)
    M1, _, _ = direct_sum(kron, [P, S])
    M2, _, _ = direct_sum(kron, [S, P])
    assert is_isomorphic(M1, M2)
    assert not is_isomorphic(M1, P)


def test_kronecker_regular_tube_endring(kron):
    # a homogeneous tube module: End is a field, the module is
    # indecomposable although End has dimension 1 here; the quasi-length-2
    # module on the same tube has a 2-dimensional local End ring
    r2 = level0(kron, {1: 2, 2: 2},
                {"a": [[1, 0], [0, 1]], "b": [[1, 1], [0, 1]]})
    M = embed_level(kron, r2, 0)
    assert hom_dim(M, M) == 2
    assert len(end_radical_basis(M)) == 1
    assert is_indecomposable(M)


def test_irrational_slope_endring_is_quadratic_field(kron):
    # companion matrix of x^2 - 2: indecomposable over Q with End a real
    # quadratic field, so End/rad has dimension 2
    r = level0(kron, {1: 2, 2: 2},
               {"a": [[1, 0], [0, 1]], "b": [[0, 2], [1, 0]]})
    M = embed_level(kron, r, 0)
    assert hom_dim(M, M) == 2
    assert len(end_radical_basis(M)) == 0
    assert is_indecomposable(M)


def test_splits_eigenvalue_pair(kron):
    # diagonal slopes 1 and 2: decomposes into two tube modules
    r = level0(kron, {1: 2, 2: 2},
               {"a": [[1, 0], [0, 1]], "b": [[1, 0], [0, 2]]})
    M = embed_level(kron, r, 0)
    parts = decompose(M)
    assert len(parts) == 2
    assert not is_isomorphic(parts[0], parts[1])


def test_general_position_summands_indecomposable():
    alg = duplicated(dtilde4_quiver())
    for missing in (2, 3, 4, 5):
        M = embed_level(alg, general_position_rep(alg, missing), 1)
        assert is_indecomposable(M)


def test_basic_summands_of_projective_power(kron):
    P = projective(kron, 2, 1)
    M, _, _ = direct_sum(kron, [P, P, P])
    reps = basic_summands(M)
    assert len(reps) == 1
    assert dgrid(reps[0]) == dgrid(P)


def test_linear_quiver_regular_decomposition():
    alg = duplicated(linear_quiver(3))
    parts = decompose(regular_module(alg))
    assert len(parts) == 6
    for p in parts:
        assert is_indecomposable(p)


def kronecker_module(alg, b_rows):
    """Level-0 Kronecker module on k^2 -> k^2 with a = I and b = b_rows."""
    rep = level0(alg, {1: 2, 2: 2}, {"a": [[1, 0], [0, 1]], "b": b_rows})
    return embed_level(alg, rep, 0)


TUBE = [[1, 1], [0, 1]]            # quasi-length 2, End local of dim 2
SQRT2 = [[0, 2], [1, 0]]           # companion matrix of x^2 - 2


def test_recorded_sum_splits_into_its_own_parts():
    alg = duplicated(kronecker_quiver())
    tube = kronecker_module(alg, TUBE)
    inner, _, _ = direct_sum(alg, [projective(alg, 1, 0), tube])
    parts = [inner, simple(alg, 2, 0), projective(alg, 2, 1)]
    M, _, _ = direct_sum(alg, parts)
    leaves = [projective(alg, 1, 0), tube, simple(alg, 2, 0),
              projective(alg, 2, 1)]
    got = decompose(M)
    assert len(got) == len(leaves)
    assert all(a is b for a, b in zip(got, leaves))
    assert decompose(inner)[1] is tube
    assert basic_summands(M)[1] is tube
    assert is_indecomposable(tube) and not is_indecomposable(inner)


def test_try_split_runs_once_per_leaf(monkeypatch):
    alg = duplicated(kronecker_quiver())
    tube = kronecker_module(alg, TUBE)
    pair = kronecker_module(alg, [[1, 0], [0, 2]])
    seen = []
    real = krullschmidt.try_split

    def counting(M):
        seen.append(M)
        return real(M)

    monkeypatch.setattr(krullschmidt, "try_split", counting)
    M, _, _ = direct_sum(alg, [projective(alg, 1, 0), tube, pair])
    leaves = decompose(M)
    assert len(leaves) == 4
    # the recorded sum is not searched; `pair` is split once, then each
    # indecomposable leaf is tried exactly once
    assert seen[0] is projective(alg, 1, 0) and seen[1] is tube
    assert seen[2] is pair
    assert len(seen) == 5
    assert seen[3] is leaves[2] and seen[4] is leaves[3]
    # asking again reads the memo instead of searching
    assert all(is_indecomposable(X) for X in leaves)
    assert len(seen) == 5


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_refuses_tube_module(p):
    alg = duplicated(kronecker_quiver(), field=PrimeField(p))
    with pytest.raises(NotImplementedError, match="characteristic 0"):
        decompose(kronecker_module(alg, TUBE))


def test_prime_field_fitting_split_and_refusal():
    # x^2 - 2 is irreducible mod 5 (End is GF(25): no Fitting split) and
    # splits mod 7 (2 = 3^2), where a Fitting split finds the two parts
    gf5 = duplicated(kronecker_quiver(), field=PrimeField(5))
    with pytest.raises(NotImplementedError, match="characteristic 0"):
        is_indecomposable(kronecker_module(gf5, SQRT2))
    with pytest.raises(NotImplementedError, match="characteristic 0"):
        end_radical_basis(kronecker_module(gf5, SQRT2))
    gf7 = duplicated(kronecker_quiver(), field=PrimeField(7))
    parts = decompose(kronecker_module(gf7, SQRT2))
    assert len(parts) == 2
    assert not is_isomorphic(parts[0], parts[1])
    a2 = duplicated(linear_quiver(2), field=PrimeField(5))
    assert len(decompose(regular_module(a2))) == 4


def test_minpoly_split_when_every_fitting_split_fails(monkeypatch):
    # b = P diag(1, 2) P^-1 for P = [[-3, -3], [-1, 2]]: no basis or
    # seeded random endomorphism has a nontrivial Fitting split, so the
    # module is split by the Fitting split of g(f) for the first factor g
    # of a minimal polynomial (x - 1)(x - 2): the 23rd and last call
    from fractions import Fraction as F
    alg = duplicated(kronecker_quiver())
    M = kronecker_module(alg, [[F(4, 3), -1], [F(-2, 9), F(5, 3)]])
    fitting = []
    evals = []
    real_fitting = krullschmidt._fitting_split
    real_eval = krullschmidt._eval_poly

    def counting_fitting(M, f):
        split = real_fitting(M, f)
        fitting.append(split)
        return split

    def counting_eval(M, f, poly):
        evals.append(poly)
        return real_eval(M, f, poly)

    monkeypatch.setattr(krullschmidt, "_fitting_split", counting_fitting)
    monkeypatch.setattr(krullschmidt, "_eval_poly", counting_eval)
    parts = decompose(M)
    assert len(fitting) == 23 and not any(fitting[:22]) and fitting[22]
    assert len(evals) == 1
    assert len(parts) == 2
    assert [str(X.dim_grid()) for X in parts] == ["L0{1:1,2:1}"] * 2
    assert not is_isomorphic(parts[0], parts[1])


def test_minpoly_split_takes_one_primary_part_at_a_time(kron):
    # b = P diag(1, 2, 3) P^-1 on k^3 -> k^3: the minimal polynomial of
    # f = (b, b) has three factors, and the split is the Fitting split of
    # the first, so it gives two parts, the second split again by decompose
    from fractions import Fraction as F
    P = Mat.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 2]], field=kron.field)
    D = Mat.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]], field=kron.field)
    b = P * D * Mat.from_rows([[F(2, 3), F(-2, 3), F(1, 3)],
                               [F(1, 3), F(2, 3), F(-1, 3)],
                               [F(-1, 3), F(1, 3), F(1, 3)]], field=kron.field)
    eye = [[int(r == c) for c in range(3)] for r in range(3)]
    M = embed_level(kron, level0(kron, {1: 3, 2: 3},
                                 {"a": eye, "b": b.data}), 0)
    f = RMap(M, M, {(0, 1): b, (0, 2): b})
    parts = krullschmidt._minpoly_split(M, f)
    assert [str(X.dim_grid()) for X, _ in parts] == ["L0{1:1,2:1}",
                                                     "L0{1:2,2:2}"]
    leaves = decompose(M)
    assert [str(X.dim_grid()) for X in leaves] == ["L0{1:1,2:1}"] * 3
    assert not any(is_isomorphic(leaves[s], leaves[t])
                   for s in range(3) for t in range(s + 1, 3))


@pytest.fixture(scope="module")
def a3_nodes():
    alg = duplicated(linear_quiver(3))
    return Catalog.of(alg).indecomposables()


@given(st.lists(st.integers(0, 17), min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_random_dynkin_sum_splits_back_over_both_fields(a3_nodes, picks):
    # the JSON round trip drops the summand record, so decompose has to
    # split the sum; GF(101) must agree with QQ on what it finds
    assert len(a3_nodes) == 18
    drawn = [a3_nodes[k] for k in picks]
    qq = drawn[0].algebra
    obj = rmodule_to_json(direct_sum(qq, drawn)[0])
    first = rmodule_to_json(drawn[0])
    sums, seen = [], []
    for alg in (qq, duplicated(linear_quiver(3), field=PrimeField(101))):
        S = rmodule_from_json(alg, obj)
        assert "summands" not in S.cache
        N = rmodule_from_json(alg, first)
        sums.append(S)
        seen.append((sorted(str(X.dim_grid()) for X in decompose(S)), pd(S),
                     [ext(i, S, N) for i in range(2 * alg.m + 2)]))
    assert seen[0] == seen[1]
    rest = list(decompose(sums[0]))
    for X in drawn:
        match = [k for k, Y in enumerate(rest) if is_isomorphic(X, Y)]
        assert match, "no part of the sum is isomorphic to %s" % X.dim_grid()
        rest.pop(match[0])
    assert rest == []


def test_importing_tilting_leaves_sympy_unloaded():
    """sympy is imported by the first minimal polynomial, not by every run
    that imports the library."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, reptilt.tilting; sys.exit('sympy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0
