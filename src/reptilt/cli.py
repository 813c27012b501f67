"""Command-line front end: tilting checks, complement fans, tilting-quiver
exports, and the bundled worked-example verification suite.

Exit codes: 0 success/true, 1 false/mismatch, 2 input error, 3 seed error,
4 exploration limit reached, 5 internal error or unsupported computation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .field import parse_field
from .quiver import Quiver
from .replicated import ReplicatedAlgebra

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_SEED = 3
EXIT_LIMIT = 4
EXIT_INTERNAL = 5


class InputError(Exception):
    pass


def _natural(value, what):
    if type(value) is not int or value < 0:    # bool, float or str included
        raise InputError("%s must be an integer >= 0, not %s"
                         % (what, json.dumps(value)))
    return value


def load_algebra(path, field):
    """Algebra file: quiver JSON plus a replication degree ``m``."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError("cannot read algebra file %s: %s" % (path, e))
    try:
        quiver = Quiver.from_json(obj)
        return ReplicatedAlgebra(quiver, _natural(obj.get("m", 1), "m"), field)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError("invalid algebra file %s: %s" % (path, e))


def load_field(spec):
    """The ground field named by ``--field``."""
    try:
        return parse_field(spec)
    except ValueError as e:
        raise InputError("bad --field %r: %s" % (spec, e))


def eval_module_expr(alg, expr):
    """Evaluate a ModuleExpr JSON tree to an RModule.

    Grammar (one key per node):
      {"proj": [v, i]}            projective(v, i)
      {"inj": [v, i]}             injective(v, i)
      {"simple": [v, i]}          simple(v, i)
      {"regular": true}           the regular module
      {"embed": {"level": i, "dims": {v: d}, "maps": {arrow: rows}}}
      {"sum": [expr, ...]}
      {"syzygy": expr}            kernel of the projective cover
      {"cosyzygy": expr}          cokernel of the injective envelope
      {"kernel": {"from": expr, "to": expr, "coeffs": [c, ...]}}
      {"cokernel": {...}}         coefficients over the canonical hom basis
      {"raw": <RModule JSON>}     explicit levels and connectors:
          {"m": m, "levels": [{"dims": [[v, d], ...],
                               "maps": {arrow: matrix}}, ...],
           "connectors": [[matrix per path in quiver.paths order], ...]}
          with matrix = {"rows": r, "cols": c, "entries": [[str]]}; the
          matrix of path p: w -> u in connector j maps level j+1 at u to
          level j at w, and the module axioms are checked
    """
    from .homological import cosyzygy, syzygy
    from .linalg import Mat
    from .replicated import (RModule, cokernel, direct_sum, embed_level,
                             hom_space, injective, kernel, projective,
                             regular_module, rmodule_from_json, simple)
    if not isinstance(expr, dict) or len(expr) != 1:
        raise InputError("module expression must be a one-key object: %r"
                         % (expr,))
    (op, arg), = expr.items()
    vkey = {str(v): v for v in alg.quiver.vertices}
    if op in ("proj", "inj", "simple"):
        fn = {"proj": projective, "inj": injective, "simple": simple}[op]
        try:
            v, i = arg
            return fn(alg, vkey[str(v)], _natural(i, "level"))
        except (KeyError, TypeError, ValueError) as e:
            raise InputError("bad %s %r (expected [vertex, level]): %s"
                             % (op, arg, e))
    if op == "regular":
        return regular_module(alg)
    if op == "embed":
        try:
            dims = {(0, vkey[str(v)]): _natural(d, "dim")
                    for v, d in arg["dims"].items()}
            # a name of no arrow stays as given, for RModule to refuse
            maps = {(0, name): rows
                    for name, rows in arg.get("maps", {}).items()}
            for a in alg.quiver.arrows:
                rows = maps.pop((0, a.name), None)
                if rows is not None:   # null is the zero map
                    maps[(0, a.name)] = Mat(
                        dims.get((0, a.target), 0), dims.get((0, a.source), 0),
                        [[alg.field.of(x) for x in row] for row in rows],
                        alg.field)
            return embed_level(alg, RModule(alg, dims, maps, check=True),
                               _natural(arg["level"], "level"))
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise InputError("bad embed expression: %s" % e)
    if op == "sum":
        if not isinstance(arg, list):
            raise InputError("sum needs a list of module expressions: %r"
                             % (arg,))
        total, _, _ = direct_sum(alg, [eval_module_expr(alg, e) for e in arg])
        return total
    if op == "syzygy":
        return syzygy(eval_module_expr(alg, arg))
    if op == "cosyzygy":
        return cosyzygy(eval_module_expr(alg, arg))
    if op in ("kernel", "cokernel"):
        try:
            source, target = arg["from"], arg["to"]
            coeffs = [alg.field.of(c) for c in arg["coeffs"]]
        except (KeyError, TypeError, ValueError) as e:
            raise InputError("bad %s expression (expected from, to and "
                             "coeffs): %s" % (op, e))
        space = hom_space(eval_module_expr(alg, source),
                          eval_module_expr(alg, target))
        if len(coeffs) != len(space.basis):
            raise InputError("hom basis of dim %d, got %d coefficients"
                             % (len(space.basis), len(coeffs)))
        f = space.combine(coeffs)
        part, _ = kernel(f) if op == "kernel" else cokernel(f)
        return part
    if op == "raw":
        try:
            return rmodule_from_json(alg, arg)
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise InputError("bad raw module: %s" % e)
    raise InputError("unknown module constructor %r" % op)


def load_module(alg, path):
    try:
        with open(path) as fh:
            expr = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError("cannot read module file %s: %s" % (path, e))
    return eval_module_expr(alg, expr)


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(args, data):
    _emit(args, json.dumps(data, indent=2, sort_keys=True) + "\n")


def cmd_check_tilting(args):
    from .homological import pd
    from .krullschmidt import basic_summands
    from .tilting import certify, is_partial_tilting
    alg = load_algebra(args.algebra, load_field(args.field))
    M = load_module(alg, args.module)
    parts = basic_summands(M)
    partial = is_partial_tilting(M)
    # certify raises on a disagreement, so the coresolution agrees with it
    verdict = certify(alg, parts) is not None
    pieces = None
    if partial:
        pieces = sorted(({"dim_grid": str(X.dim_grid()), "pd": pd(X)}
                         for X in parts),
                        key=lambda p: (p["dim_grid"], p["pd"]))
    report = {
        "delta_required": alg.delta,
        "partial_tilting": partial,
        "delta": len(parts) if partial else None,
        "coresolution_certificate": verdict,
        "pieces": pieces,
        "verdict": verdict,
    }
    _dump(args, report)
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_complements(args):
    from .krullschmidt import delta_count
    from .tilting import complement_fan, is_partial_tilting
    alg = load_algebra(args.algebra, load_field(args.field))
    T_bar = load_module(alg, args.module)
    if not is_partial_tilting(T_bar) or delta_count(T_bar) != alg.delta - 1:
        raise InputError("module is not almost complete partial tilting")
    seed = load_module(alg, args.seed) if args.seed else None
    try:
        fan = complement_fan(T_bar, seed=seed)
    except ValueError as e:
        sys.stderr.write("seed rejected: %s\n" % e)
        return EXIT_SEED
    report = {
        "count": len(fan.complements),
        "complements": [{"dim_grid": str(X.dim_grid()), "pd": p}
                        for X, p in fan.complements],
        "witnesses": [{"sub": str(w["sub"].dim_grid()),
                       "mid": str(w["mid"].dim_grid()),
                       "quot": str(w["quot"].dim_grid())}
                      for w in fan.exchange_witnesses],
    }
    _dump(args, report)
    return EXIT_OK


def cmd_tilting_quiver(args):
    from .arknit import is_dynkin
    from .tilting import Catalog
    from .tiltquiver import (exhaustive_tilting_oracle, explore, export_dot,
                             graph_to_json)
    limit = args.max_nodes
    if limit is not None:
        try:
            limit = int(limit)
        except ValueError:     # refused like a limit below 1
            limit = 0
        if limit < 1:
            raise InputError("--max-nodes must be an integer >= 1, not %s"
                             % args.max_nodes)
    alg = load_algebra(args.algebra, load_field(args.field))
    dynkin = is_dynkin(alg.quiver)
    if dynkin:
        # a complete catalog: a BFS module outside it is an internal error
        Catalog.of(alg).indecomposables()
    graph = explore(algebra=alg, max_vertices=limit)
    if args.dot:
        _emit(args, export_dot(graph))
    else:
        data = json.loads(graph_to_json(graph))
        verified = True
        if graph.exhausted and dynkin:
            oracle = exhaustive_tilting_oracle(alg)

            def vertex_set(records):
                return {frozenset(X for X, _ in r.pieces) for r in records}
            data["oracle_vertex_count"] = len(oracle)
            verified = vertex_set(oracle) == vertex_set(graph.vertices)
            data["connectivity_verified"] = verified
        _emit(args, json.dumps(data, indent=2, sort_keys=True) + "\n")
        if not verified:
            sys.stderr.write("error: the BFS and the oracle found different "
                             "vertex sets\n")
            return EXIT_INTERNAL
    return EXIT_OK if graph.exhausted else EXIT_LIMIT


def _verify_examples(out):
    """Check the bundled worked examples; returns a list of mismatch lines."""
    from .catalog import (d4_almost_complete_pd1, d4_almost_complete_pd2,
                          kronecker_almost_complete_pd1,
                          kronecker_almost_complete_pd2,
                          kronecker_almost_complete_pd3)
    from .homological import injective_envelope, pd
    from .krullschmidt import decompose, is_isomorphic
    from .replicated import injective
    from .tilting import classify_duplicated, complement_fan

    bad = []

    def check(label, got, want):
        line = "%s: %r (expected %r)" % (label, got, want)
        out.append(("ok   " if got == want else "FAIL ") + line)
        if got != want:
            bad.append(line)

    alg, T = d4_almost_complete_pd1()
    check("four-subspace pd1: pd", pd(T), 1)
    fan = complement_fan(T)
    check("four-subspace pd1: fan pds", fan.pds, [1, 1, 2])
    check("four-subspace pd1: fan grids",
          [str(X.dim_grid()) for X, _ in fan.complements],
          ["L0{1:1,3:1,4:1,5:1}", "L0{2:1}", "L1{1:1,2:1}"])
    report = classify_duplicated(T)
    check("four-subspace pd1: pd-3 complement",
          report["has_pd3_complement"], False)
    check("four-subspace pd1: E(pd-2 complement) projective",
          report["pd2_envelope_projective"], False)
    check("four-subspace pd1: level-0 part faithful",
          report["level0_part_faithful"], True)

    alg, T = d4_almost_complete_pd2()
    check("four-subspace pd2: pd", pd(T), 2)
    fan = complement_fan(T)
    check("four-subspace pd2: fan pds", fan.pds, [0, 1, 2, 3])
    X3 = fan.complements[-1][0]
    check("four-subspace pd2: top complement grid", str(X3.dim_grid()),
          "L1{1:5,2:2,3:2,4:2,5:2}")
    X2 = next(X for X, p in fan.complements if p == 2)
    E, _ = injective_envelope(X2)
    parts = decompose(E)
    check("four-subspace pd2: E(X_2) summand count", len(parts), 3)
    check("four-subspace pd2: E(X_2) all the level-1 sink injective",
          all(is_isomorphic(q, injective(alg, 1, 1)) for q in parts), True)
    report = classify_duplicated(T)
    check("four-subspace pd2: E(X_2) projective",
          report["pd2_envelope_projective"], False)
    check("four-subspace pd2: pd-3 complement",
          report["has_pd3_complement"], True)

    alg, T = kronecker_almost_complete_pd3()
    check("kronecker pd3: fan pds", complement_fan(T).pds, [1, 2, 3])
    alg, T = kronecker_almost_complete_pd1()
    check("kronecker pd1: fan pds", complement_fan(T).pds, [1, 1, 2])
    alg, T = kronecker_almost_complete_pd2()
    fan = complement_fan(T)
    check("kronecker pd2: fan pds", fan.pds, [1, 2, 2])
    check("kronecker pd2: pd-3 complement", 3 in fan.pds, False)
    return bad


def cmd_verify_examples(args):
    out = []
    bad = _verify_examples(out)
    _emit(args, "\n".join(out) + "\n")
    if bad:
        sys.stderr.write("%d mismatch(es)\n" % len(bad))
        return EXIT_FALSE
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reptilt",
        description="Tilting-module computations over replicated algebras")
    parser.add_argument("--field", default="q",
                        help="ground field: q or fp:<prime>")
    parser.add_argument("--out", help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-tilting",
                       help="certify a module as tilting (exit 0) or not (1)")
    p.add_argument("algebra")
    p.add_argument("module")
    p.set_defaults(fn=cmd_check_tilting)

    p = sub.add_parser("complements",
                       help="walk the complement fan of an almost complete "
                            "partial tilting module")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--seed", help="module-expr file for a known complement")
    p.set_defaults(fn=cmd_complements)

    p = sub.add_parser("tilting-quiver",
                       help="mutation-BFS exploration of the tilting quiver")
    p.add_argument("algebra")
    p.add_argument("--max-nodes", default=None)
    p.add_argument("--dot", action="store_true",
                   help="emit DOT instead of JSON")
    p.set_defaults(fn=cmd_tilting_quiver)

    p = sub.add_parser("verify-examples",
                       help="re-check the bundled worked-example suite")
    p.set_defaults(fn=cmd_verify_examples)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        sys.stderr.write("input error: %s\n" % e)
        return EXIT_INPUT
    except Exception as e:   # internal or unsupported, never "not tilting"
        sys.stderr.write("error: %s\n" % e)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
