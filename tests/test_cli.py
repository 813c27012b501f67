import json
from pathlib import Path

import pytest

from reptilt.catalog import duplicated, linear_quiver
from reptilt.cli import eval_module_expr, main
from reptilt.krullschmidt import is_isomorphic
from reptilt.linalg import Mat
from reptilt.replicated import (projective, radical, rmodule_from_json,
                                rmodule_to_json, simple)

KRONECKER = {
    "vertices": [1, 2],
    "arrows": [{"name": "a", "from": 2, "to": 1},
               {"name": "b", "from": 2, "to": 1}],
    "m": 1,
}
A2 = {
    "vertices": [1, 2],
    "arrows": [{"name": "a1", "from": 2, "to": 1}],
    "m": 1,
}
D4 = {
    "vertices": [1, 2, 3, 4],
    "arrows": [{"name": "a", "from": 2, "to": 1},
               {"name": "b", "from": 3, "to": 1},
               {"name": "c", "from": 4, "to": 1}],
    "m": 1,
}
ONE_VERTEX = {"vertices": [1], "arrows": [], "m": 1}
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write, tmp_path


def run(files, argv):
    write, tmp_path = files
    out = tmp_path / "report.out"
    code = main(["--out", str(out)] + argv)
    text = out.read_text() if out.exists() else ""
    return code, text


def test_check_tilting_regular(files):
    write, _ = files
    alg = write("alg.json", KRONECKER)
    mod = write("mod.json", {"regular": True})
    code, text = run(files, ["check-tilting", alg, mod])
    report = json.loads(text)
    assert code == 0
    assert report["verdict"] is True
    assert report["delta"] == report["delta_required"] == 4
    assert report["coresolution_certificate"] is True


def test_check_tilting_rejects_almost_complete(files):
    write, _ = files
    alg = write("alg.json", A2)
    mod = write("mod.json", {"sum": [{"proj": [1, 0]}, {"proj": [2, 0]},
                                     {"proj": [1, 1]}]})
    code, text = run(files, ["check-tilting", alg, mod])
    report = json.loads(text)
    assert code == 1
    assert report["verdict"] is False
    assert report["delta"] == 3 and report["delta_required"] == 4


def _raw_a2(v, path=None, entries=None):
    """{"raw": ...} of P(v, 1) over duplicated A2, with the connector matrix
    of ``path`` (e1, e2 or a1) replaced by ``entries``."""
    alg = duplicated(linear_quiver(2))
    obj = rmodule_to_json(projective(alg, v, 1))
    if path is not None:
        names = [".".join(p.arrows) or "e%s" % p.source
                 for p in alg.quiver.paths]
        obj["connectors"][0][names.index(path)] = {
            "rows": len(entries), "cols": len(entries[0]), "entries": entries}
    return {"raw": obj}


def test_input_errors_exit_2(files, capsys):
    write, tmp_path = files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    alg = write("alg.json", A2)
    assert main(["check-tilting", str(bad), str(bad)]) == 2
    mod = write("mod.json", {"nonsense": 1})
    assert main(["check-tilting", alg, mod]) == 2
    mod2 = write("mod2.json", {"proj": [7, 0]})
    assert main(["check-tilting", alg, mod2]) == 2
    capsys.readouterr()
    malformed = [
        {"proj": [1]},
        {"kernel": {"from": {"proj": [2, 0]}, "coeffs": [1]}},
        {"embed": {"level": 0, "dims": {"9": 1}}},
        {"embed": {"level": 0, "dims": {"1": 1, "2": 1},
                   "maps": {"a1": [[1, 0]]}}},
        {"embed": {"level": 0, "dims": {"1": 2, "2": 1},
                   "maps": {"a1": [[1], [0, 1]]}}},
        {"embed": {"level": 0, "dims": {"1": 1, "2": 1}, "maps": {"a1": []}}},
        {"embed": {"level": 0, "dims": {"2": 1}, "maps": {"a1": [[1]]}}},
        {"embed": {"level": 2, "dims": {"1": 1}}},
        {"embed": {"level": 0, "dims": [1]}},
        {"embed": {"level": 0, "dims": {"1": 1}, "maps": [1]}},
        {"sum": 5},
        {"raw": {"m": 1, "levels": 3, "connectors": []}},
        {"proj": [1, 0], "inj": [1, 1]},
        [{"proj": [1, 0]}],
        # Hom(P(2, 0), S(2, 0)) has dimension 1
        {"kernel": {"from": {"proj": [2, 0]}, "to": {"simple": [2, 0]},
                    "coeffs": [1, 0]}},
    ]
    # raw modules that break one module axiom each: e2* must equal a1* a1
    # (right rule), a1 a1* must equal e1* (left rule), plus a shape and the
    # number of connector matrices
    too_few = _raw_a2(2)
    too_few["raw"]["connectors"][0].pop()
    broken = [(_raw_a2(2, "e2", [["0"]]), "right rule"),
              (_raw_a2(1, "e1", [["0"]]), "left rule"),
              (_raw_a2(2, "e2", [["1"], ["0"]]), "shape"),
              (too_few, "one matrix per path")]
    for k, expr in enumerate(malformed):
        mod = write("malformed%d.json" % k, expr)
        assert main(["check-tilting", alg, mod]) == 2, expr
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:"), err
    assert main(["check-tilting", alg, write("ok.json", _raw_a2(2))]) == 1
    capsys.readouterr()
    # a map named after no arrow is an input error, not a zero map
    stray = _raw_a2(2)
    stray["raw"]["levels"][0]["maps"]["zz"] = {
        "rows": 1, "cols": 1, "entries": [["1"]]}
    misspelled = [{"embed": {"level": 0, "dims": {"1": 1, "2": 1},
                             "maps": {"zz": [[1]]}}},
                  {"embed": {"level": 0, "dims": {"1": 1},
                             "maps": {"zz": None}}}, stray]
    for k, expr in enumerate(misspelled):
        mod = write("misspelled%d.json" % k, expr)
        assert main(["check-tilting", alg, mod]) == 2, expr
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:"), err
        assert "'zz'" in err[0], err
    for k, (expr, why) in enumerate(broken):
        mod = write("broken%d.json" % k, expr)
        assert main(["check-tilting", alg, mod]) == 2, why
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:"), err
        assert why in err[0], err
    # DA.DA = 0: over one vertex with m = 2, e1* e1* must vanish
    one = {"rows": 1, "cols": 1, "entries": [["1"]]}
    level = {"dims": [["1", 1]], "maps": {}}
    alg2 = write("one_m2.json", dict(ONE_VERTEX, m=2))
    mod = write("composite.json", {"raw": {
        "m": 2, "levels": [level] * 3, "connectors": [[one], [one]]}})
    assert main(["check-tilting", alg2, mod]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:"), err
    assert "does not vanish" in err[0], err
    mod = write("regular.json", {"regular": True})
    no_arrows = write("no_arrows.json", {"vertices": [1, 2]})
    for argv in (["--field", "fp:4", "check-tilting", alg, mod],
                 ["--field", "r", "check-tilting", alg, mod],
                 ["check-tilting", no_arrows, mod],
                 ["check-tilting", alg, str(tmp_path / "missing.json")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:"), err


def _raw_dims(dims):
    """{"raw": ...} of P(2, 1) over duplicated A2, with the dims list of
    level 1 replaced by ``dims``."""
    expr = _raw_a2(2)
    expr["raw"]["levels"][1]["dims"] = dims
    return expr


@pytest.mark.parametrize("m, expr", [
    # each was accepted before: m 1.5 and true ran as m = 1 (exit 0), the
    # simple at vertex 3 was a zero module, a level or dim of true, 1.5 or
    # "1" was read as 1 (exit 1), a dim of -1 escaped as a ValueError, and
    # a raw dim of 1.5, "1" or true, or a vertex listed twice in one
    # level, ran as a dim of 1 (exit 1)
    (1.5, {"regular": True}),
    (True, {"regular": True}),
    (1, {"simple": [3, 0]}),
    (1, {"simple": [1, True]}),
    (1, {"embed": {"level": True, "dims": {"1": 1}}}),
    (1, {"embed": {"level": 0, "dims": {"1": -1}}}),
    (1, {"embed": {"level": 0, "dims": {"1": 1.5}}}),
    (1, {"embed": {"level": 0, "dims": {"1": "1"}}}),
    (1, {"embed": {"level": 0, "dims": {"1": True}}}),
    (1, _raw_dims([["1", 1.5], ["2", 1]])),
    (1, _raw_dims([["1", "1"], ["2", 1]])),
    (1, _raw_dims([["1", True], ["2", 1]])),
    (1, _raw_dims([["1", 1], ["2", 1], ["1", 1]]))])
def test_malformed_integer_or_vertex_exits_2(files, capsys, m, expr):
    write, _ = files
    alg = write("alg.json", dict(A2, m=m))
    mod = write("mod.json", expr)
    assert main(["check-tilting", alg, mod]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:"), err


def test_cosyzygy_expression(files):
    # cosyzygy(S(2, 0)) completes P(1, 1), P(2, 0) and P(2, 1) to a tilting
    # module of duplicated A2
    write, _ = files
    mod = write("mod.json", {"sum": [
        {"proj": [1, 1]}, {"proj": [2, 0]}, {"proj": [2, 1]},
        {"cosyzygy": {"simple": [2, 0]}}]})
    assert run(files, ["check-tilting", write("alg.json", A2), mod])[0] == 0


def _scalar_exprs(x):
    """An embed map and kernel and cokernel coefficients over duplicated A2
    that read the scalar ``x``."""
    return [{"embed": {"level": 0, "dims": {"1": 1, "2": 1},
                       "maps": {"a1": [[x]]}}},
            {"kernel": {"from": {"proj": [2, 0]}, "to": {"simple": [2, 0]},
                        "coeffs": [x]}},
            {"cokernel": {"from": {"proj": [1, 0]}, "to": {"proj": [2, 0]},
                          "coeffs": [x]}}]


@pytest.mark.parametrize("field", ["q", "fp:101"])
def test_float_entries_exit_2(files, capsys, field):
    # a float is read as its binary value (0.1 is 3602879701896397 /
    # 36028797018963968), not as the decimal it spells, so it is refused;
    # an int or a "p/q" string is read exactly
    write, _ = files
    alg = write("alg.json", A2)
    floats = _scalar_exprs(0.1) + _scalar_exprs(1.0) + [
        _raw_a2(2, "e2", [[1.0]])]
    for k, expr in enumerate(floats):
        mod = write("float%d.json" % k, expr)
        assert main(["--field", field, "check-tilting", alg, mod]) == 2, expr
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:"), err
        assert "float" in err[0], err
    exact = _scalar_exprs(1) + _scalar_exprs("1/2") + _scalar_exprs("-3")
    for k, expr in enumerate(exact + [_raw_a2(2)]):
        mod = write("exact%d.json" % k, expr)
        assert main(["--field", field, "check-tilting", alg, mod]) == 1, expr


@pytest.mark.parametrize("field", ["q", "fp:101"])
def test_bool_entries_exit_2(files, capsys, field):
    # JSON true and false were read as 1 and 0, so a module or a map built
    # from them ran to a verdict (exit 1)
    write, _ = files
    alg = write("alg.json", A2)
    bools = _scalar_exprs(True) + _scalar_exprs(False) + [
        _raw_a2(2, "e2", [[True]])]
    for k, expr in enumerate(bools):
        mod = write("bool%d.json" % k, expr)
        assert main(["--field", field, "check-tilting", alg, mod]) == 2, expr
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:"), err
        assert "bool" in err[0], err


def _embed_a2(level, dims, maps):
    return {"embed": {"level": level, "dims": dims, "maps": maps}}


def test_embed_maps_take_their_shape_from_the_dims():
    # a null map is zero, and an empty matrix is read at the shape the dims
    # give it: [] where the arrow's target is zero, [[]] where its source is
    alg = duplicated(linear_quiver(2))
    cases = [(_embed_a2(0, {"1": 1, "2": 1}, {"a1": None}),
              {(0, 1): 1, (0, 2): 1}),
             (_embed_a2(1, {"1": 0, "2": 1}, {"a1": []}), {(1, 2): 1}),
             (_embed_a2(1, {"1": 1}, {"a1": [[]]}), {(1, 1): 1}),
             (_embed_a2(1, {"1": 1, "2": 1}, {"a1": [["1/2"]]}),
              {(1, 1): 1, (1, 2): 1})]
    for expr, support in cases:
        M = eval_module_expr(alg, expr)
        assert M.support == support, expr
        M.validate()
    zero = _embed_a2(0, {"1": 1, "2": 1}, {"a1": [[0]]})
    assert (rmodule_to_json(eval_module_expr(alg, cases[0][0]))
            == rmodule_to_json(eval_module_expr(alg, zero)))
    assert eval_module_expr(alg, cases[3][0]).maps == {
        (1, "a1"): Mat.from_rows([["1/2"]])}


@pytest.mark.parametrize("field", ["q", "fp:101"])
def test_zero_denominator_exits_2(files, capsys, field):
    # "1/0", and over GF(101) "1/101", escaped as a ZeroDivisionError with
    # exit 1, the code for "not tilting"
    write, _ = files
    alg = write("alg.json", A2)
    zeros = ["1/0"] + (["1/101"] if field == "fp:101" else [])
    bad = [expr for x in zeros
           for expr in _scalar_exprs(x) + [_raw_a2(2, "e2", [[x]])]]
    for k, expr in enumerate(bad):
        mod = write("zero%d.json" % k, expr)
        assert main(["--field", field, "check-tilting", alg, mod]) == 2, expr
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:"), err
        assert "denominator" in err[0], err


def test_complements_fan(files):
    write, _ = files
    alg = write("alg.json", KRONECKER)
    mod = write("mod.json", {"sum": [{"simple": [2, 0]}, {"proj": [1, 1]},
                                     {"proj": [2, 1]}]})
    code, text = run(files, ["complements", alg, mod])
    report = json.loads(text)
    assert code == 0
    assert report["count"] == 3
    assert [c["pd"] for c in report["complements"]] == [1, 1, 2]
    assert len(report["witnesses"]) == 2


@pytest.mark.parametrize("name, lead", [
    ("pd1", {"simple": [2, 0]}),
    ("pd2", {"embed": {"level": 1, "dims": {"1": 2, "2": 1},
                       "maps": {"a": [[1], [0]], "b": [[0], [1]]}}}),
    ("pd3", {"simple": [2, 1]})])
def test_complements_kronecker_golden(files, name, lead):
    # the three Kronecker fixtures of verify-examples: the lead summand
    # (for pd2 the base projective P(2) at level 1) and both
    # projective-injectives; the report, witnesses included, is pinned
    write, _ = files
    alg = write("alg.json", KRONECKER)
    mod = write("mod.json", {"sum": [lead, {"proj": [1, 1]},
                                     {"proj": [2, 1]}]})
    code, text = run(files, ["complements", alg, mod])
    assert code == 0
    golden = GOLDEN / ("complements_kronecker_%s.json" % name)
    assert text == golden.read_text()


def test_complements_with_embedded_seed(files):
    write, _ = files
    alg = write("alg.json", KRONECKER)
    mod = write("mod.json", {"sum": [{"simple": [2, 0]}, {"proj": [1, 1]},
                                     {"proj": [2, 1]}]})
    seed = write("seed.json", {"embed": {
        "level": 0, "dims": {"1": 1, "2": 2},
        "maps": {"a": [[1, 0]], "b": [[0, 1]]}}})
    code, text = run(files, ["complements", alg, mod, "--seed", seed])
    assert code == 0
    assert json.loads(text)["count"] == 3


def test_complements_d4_pd3_without_seed(files):
    # every complement of this pd-3 almost complete module lies outside the
    # projectives, injectives and embedded base modules; the catalog of the
    # Dynkin base holds them all
    write, _ = files
    alg = write("alg.json", D4)
    mod = write("mod.json", {"sum": [
        {"simple": [2, 0]}, {"simple": [2, 1]},
        {"embed": {"level": 0, "dims": {"1": 1, "2": 1, "4": 1},
                   "maps": {"a": [[1]], "c": [[1]]}}},
        {"proj": [2, 1]}, {"proj": [3, 1]}, {"proj": [4, 1]},
        {"proj": [1, 1]}]})
    code, text = run(files, ["complements", alg, mod])
    report = json.loads(text)
    assert code == 0
    assert report["count"] == 3
    assert [c["pd"] for c in report["complements"]] == [1, 1, 2]
    assert [c["dim_grid"] for c in report["complements"]] == [
        "L0{1:1,2:1,3:1}", "L0{2:1,4:1}|L1{1:1}", "L1{1:1,2:1,4:1}"]


def test_complements_without_candidates_exits_5(files, capsys,
                                                monkeypatch):
    import reptilt.tilting
    monkeypatch.setattr(reptilt.tilting, "_seed_candidates",
                        lambda T_bar: iter(()))
    write, _ = files
    alg = write("alg.json", KRONECKER)
    mod = write("mod.json", {"sum": [{"simple": [2, 0]}, {"proj": [1, 1]},
                                     {"proj": [2, 1]}]})
    assert main(["complements", alg, mod]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "--seed" in err[0]


def test_complements_seed_rejection(files):
    write, _ = files
    alg = write("alg.json", KRONECKER)
    mod = write("mod.json", {"sum": [{"simple": [2, 0]}, {"proj": [1, 1]},
                                     {"proj": [2, 1]}]})
    seed = write("seed.json", {"proj": [1, 0]})
    assert main(["complements", alg, mod, "--seed", seed]) == 3


def test_complements_requires_almost_complete(files):
    write, _ = files
    alg = write("alg.json", KRONECKER)
    mod = write("mod.json", {"proj": [1, 1]})
    assert main(["complements", alg, mod]) == 2


def test_tilting_quiver_exhaustive(files):
    write, _ = files
    alg = write("alg.json", ONE_VERTEX)
    code, text = run(files, ["tilting-quiver", alg])
    report = json.loads(text)
    assert code == 0
    assert report["exhausted"] is True
    assert len(report["vertices"]) == 2
    assert report["connectivity_verified"] is True
    code2, text2 = run(files, ["tilting-quiver", alg])
    assert text2 == text


def test_tilting_quiver_dot(files):
    write, _ = files
    alg = write("alg.json", ONE_VERTEX)
    code, text = run(files, ["tilting-quiver", alg, "--dot"])
    assert code == 0
    assert text.startswith("digraph tilting {")


def test_tilting_quiver_limit(files):
    write, _ = files
    alg = write("alg.json", KRONECKER)
    code, text = run(files, ["tilting-quiver", alg, "--max-nodes", "5"])
    report = json.loads(text)
    assert code == 4
    assert report["exhausted"] is False
    assert len(report["vertices"]) == 5


@pytest.mark.parametrize("limit", ["0", "-3", "abc", "1.5"])
def test_tilting_quiver_limit_below_one_exits_2(files, capsys, limit):
    # the seed vertex is always kept, so a limit below 1 ran as 1 (exit 4);
    # a value that is no integer is refused the same way, with one line
    # and no argparse usage
    write, _ = files
    alg = write("alg.json", A2)
    code, text = run(files, ["tilting-quiver", alg, "--max-nodes", limit])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:"), err


def test_tilting_quiver_compares_vertex_sets(files, monkeypatch):
    # an oracle with the BFS's vertex count but another vertex set (one
    # record doubled, one left out) does not verify connectivity
    import reptilt.tiltquiver
    oracle = reptilt.tiltquiver.exhaustive_tilting_oracle

    def same_count_other_set(alg):
        records = oracle(alg)
        return records[:-1] + records[:1]
    monkeypatch.setattr(reptilt.tiltquiver, "exhaustive_tilting_oracle",
                        same_count_other_set)
    write, _ = files
    alg = write("alg.json", A2)
    code, text = run(files, ["tilting-quiver", alg])
    report = json.loads(text)
    assert code == 5
    assert report["oracle_vertex_count"] == len(report["vertices"]) == 9
    assert report["connectivity_verified"] is False


def test_tilting_quiver_module_outside_catalog_exits_5(files, capsys,
                                                       monkeypatch):
    # over a Dynkin base every BFS summand must be an enumerated
    # indecomposable; with one non-projective missing the run refuses
    import reptilt.arknit
    from reptilt.homological import is_projective
    enumerate_all = reptilt.arknit.enumerate_indecomposables

    def drop_one(alg):
        nodes = enumerate_all(alg)
        drop = next(N for N in nodes if not is_projective(N))
        return [N for N in nodes if N is not drop]
    monkeypatch.setattr(reptilt.arknit, "enumerate_indecomposables",
                        drop_one)
    write, _ = files
    alg = write("alg.json", A2)
    code, _ = run(files, ["tilting-quiver", alg])
    assert code == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "matches no enumerated indecomposable" in err[0]


def test_tilting_quiver_repeated_enumeration_exits_5(files, capsys,
                                                     monkeypatch):
    # the tau^- orbits of the projectives are disjoint, so an isomorphism
    # class listed twice is an internal error of the enumeration
    import reptilt.arknit
    enumerate_all = reptilt.arknit.enumerate_indecomposables

    def repeat_one(alg):
        nodes = enumerate_all(alg)
        return nodes + [rmodule_from_json(alg, rmodule_to_json(nodes[3]))]
    monkeypatch.setattr(reptilt.arknit, "enumerate_indecomposables",
                        repeat_one)
    write, _ = files
    alg = write("alg.json", A2)
    code, _ = run(files, ["tilting-quiver", alg])
    assert code == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "enumeration" in err[0]


def test_prime_field_mode(files):
    write, _ = files
    alg = write("alg.json", A2)
    mod = write("mod.json", {"regular": True})
    code, text = run(files, ["--field", "fp:5", "check-tilting", alg, mod])
    assert code == 0
    assert json.loads(text)["verdict"] is True


def test_unsupported_computation_exits_5(files, capsys):
    # a tube module over GF(5): End has dimension 2 and no Fitting split,
    # so Krull-Schmidt over a prime field refuses instead of answering
    write, _ = files
    alg = write("kron.json", KRONECKER)
    mod = write("tube.json", {"embed": {
        "dims": {"1": 2, "2": 2},
        "maps": {"a": [[1, 0], [0, 1]], "b": [[1, 1], [0, 1]]},
        "level": 0}})
    assert main(["--field", "fp:5", "check-tilting", alg, mod]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "characteristic 0" in err[0]


def test_certificate_disagreement_exits_5(files, capsys, monkeypatch):
    # check-tilting takes its verdict from the cross-checked certificate, so
    # a coresolution that fails on a tilting module is an internal error
    import reptilt.tilting
    monkeypatch.setattr(reptilt.tilting, "coresolution", lambda *args: None)
    write, _ = files
    alg = write("alg.json", KRONECKER)
    mod = write("mod.json", {"regular": True})
    code, _ = run(files, ["check-tilting", alg, mod])
    assert code == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_raw_level_maps_not_an_object_exits_2(files, capsys):
    # exit 1 means "not tilting", so a malformed input must never reach it
    write, _ = files
    alg = write("alg.json", A2)
    obj = rmodule_to_json(simple(duplicated(linear_quiver(2)), 1, 0))
    obj["levels"][0]["maps"] = []
    assert main(["check-tilting", alg, write("mod.json", {"raw": obj})]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:"), err


def test_any_other_exception_exits_5(files, capsys, monkeypatch):
    import reptilt.tilting

    def broken(*args):
        raise AttributeError("a fault of the program")

    monkeypatch.setattr(reptilt.tilting, "coresolution", broken)
    write, _ = files
    alg = write("alg.json", KRONECKER)
    mod = write("mod.json", {"regular": True})
    assert main(["check-tilting", alg, mod]) == 5
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: a fault of the program"], err


def test_module_expr_constructors():
    alg = duplicated(linear_quiver(2))
    M = eval_module_expr(alg, {"syzygy": {"simple": [2, 0]}})
    assert is_isomorphic(M, simple(alg, 1, 0))
    R, _ = radical(projective(alg, 2, 0))
    K = eval_module_expr(alg, {"kernel": {
        "from": {"proj": [2, 0]}, "to": {"simple": [2, 0]}, "coeffs": [1]}})
    assert is_isomorphic(K, R)
    C = eval_module_expr(alg, {"cokernel": {
        "from": {"proj": [1, 0]}, "to": {"proj": [2, 0]}, "coeffs": [1]}})
    assert is_isomorphic(C, simple(alg, 2, 0))


@pytest.mark.parametrize("field", ["q", "fp:101"])
def test_verify_examples_passes(files, field):
    code, text = run(files, ["--field", field, "verify-examples"])
    assert code == 0
    assert "FAIL" not in text
    assert text == (GOLDEN / "verify_examples.txt").read_text()
