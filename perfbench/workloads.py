"""The benchmark's workloads: inputs drawn from a seed, ops, and checks.

A workload has three functions:

- ``make_inputs(rt, seed)`` draws the inputs as plain data (set-up time):
  a list of ``VARIANTS`` pass inputs, one for each pass of a run (pass k
  takes variant k mod ``VARIANTS``), so that a run's median pass time is
  taken over several draws of the seed and not over one;
- ``ops(rt, variant)`` yields ``(name, thunk)`` pairs; each thunk is one
  timed operation.  The generator builds its algebras afresh on every pass,
  because reptilt caches results on algebra and module instances and a pass
  that reused them would time dictionary lookups;
- ``check(rt, variant, name, result)`` returns ``(answer, mismatches)``,
  where ``answer`` is plain data that must be identical between traced and
  untraced runs and ``mismatches`` lists every failed check.

``rt`` holds the reptilt modules; see ``run.load_reptilt``.
"""

from __future__ import annotations

import random
from fractions import Fraction

VARIANTS = 32

# -- fans: complement fans of the bundled almost complete fixtures -----------

# The Kronecker fixtures of ``verify-examples``; they take 1-3 s each.  The
# two four-subspace fixtures (15 s and 26 s) are left out: a pass holding
# them could not repeat within a run.  tests/test_acceptance.py covers them.
FAN_FIXTURES = ("kronecker_pd1", "kronecker_pd2", "kronecker_pd3")

# golden pds of ``reptilt verify-examples`` and tests/test_acceptance.py,
# and the complements' dim grids, which no summand order may change
FAN_GOLDEN = {
    "kronecker_pd1": {"pds": [1, 1, 2], "grids": [
        "L0{1:1,2:2}", "L0{2:2}|L1{1:1}", "L1{1:3,2:2}"]},
    "kronecker_pd2": {"pds": [1, 2, 2], "grids": [
        "L0{1:1,2:2}", "L1{1:1}", "L1{1:3,2:2}"]},
    "kronecker_pd3": {"pds": [1, 2, 3], "grids": [
        "L0{1:3,2:4}", "L0{2:2}|L1{1:3}", "L1{1:1,2:2}"]},
}


def _fan_summands(rt, name):
    """A fresh algebra and the summands of the named fixture, in the
    order ``reptilt.catalog`` lists them."""
    cat, rep = rt.catalog, rt.replicated
    alg = cat.duplicated(cat.kronecker_quiver())
    if name == "kronecker_pd1":
        lead = rep.simple(alg, 2, 0)
    elif name == "kronecker_pd2":
        lead = rep.embed_level(alg, alg.base_projective(2), 1)
    else:
        lead = rep.simple(alg, 2, 1)
    return alg, [lead] + [rep.projective(alg, v, 1) for v in alg.quiver.vertices]


def fans_inputs(rt, seed):
    """Per pass, the order in which each fixture's summands go to
    ``direct_sum``."""
    rng = random.Random(seed)
    sizes = {name: len(_fan_summands(rt, name)[1]) for name in FAN_FIXTURES}
    variants = []
    for _ in range(VARIANTS):
        orders = {}
        for name in FAN_FIXTURES:
            order = list(range(sizes[name]))
            rng.shuffle(order)
            orders[name] = order
        variants.append(orders)
    return variants


def fans_ops(rt, orders):
    for name in FAN_FIXTURES:
        def op(name=name):
            alg, parts = _fan_summands(rt, name)
            T, _, _ = rt.replicated.direct_sum(
                alg, [parts[k] for k in orders[name]])
            return rt.tilting.complement_fan(T)
        yield name, op


def fans_check(rt, orders, name, fan):
    answer = {"pds": fan.pds,
              "grids": [str(X.dim_grid()) for X, _ in fan.complements]}
    bad = ["%s %s: %r (expected %r)" % (name, key, answer[key], want)
           for key, want in FAN_GOLDEN[name].items() if answer[key] != want]
    return answer, bad


# -- tquiver: exhaustive tilting quivers of small Dynkin fixtures -------------

# (name, replication degree m of A2, vertices, arrows).  A2 with m = 2
# (22 vertices, 33 arrows) is left out of the timed passes: its oracle and
# BFS take about 40 s, too long for a pass that repeats within a run.
TQUIVER_FIXTURES = (("duplicated_a2", 1, 9, 11),)


def tquiver_inputs(rt, seed):
    """Per pass, which oracle vertex each exploration starts from."""
    rng = random.Random(seed)
    return [{name: rng.randrange(nv) for name, _, nv, _ in TQUIVER_FIXTURES}
            for _ in range(VARIANTS)]


def tquiver_ops(rt, starts):
    for name, m, _, _ in TQUIVER_FIXTURES:
        def op(name=name, m=m):
            alg = rt.replicated.ReplicatedAlgebra(rt.catalog.linear_quiver(2), m)
            oracle = rt.tiltquiver.exhaustive_tilting_oracle(alg)
            graph = rt.tiltquiver.explore(seed=oracle[starts[name]])
            return oracle, graph
        yield name, op


def tquiver_check(rt, starts, name, result):
    oracle, graph = result
    tq = rt.tiltquiver
    want = next(f for f in TQUIVER_FIXTURES if f[0] == name)
    answer = {"oracle": len(oracle), "vertices": len(graph.vertices),
              "arrows": len(graph.arrows), "exhausted": graph.exhausted,
              "keys": sorted(list(tq.record_key(v)) for v in graph.vertices)}
    bad = []
    for key, expected in (("oracle", want[2]), ("vertices", want[2]),
                          ("arrows", want[3]), ("exhausted", True)):
        if answer[key] != expected:
            bad.append("%s %s: %r (expected %r)"
                       % (name, key, answer[key], expected))
    missing = sum(1 for rec in oracle
                  if not any(tq.records_isomorphic(rec, v)
                             for v in graph.vertices))
    if missing:
        bad.append("%s: %d oracle records match no BFS vertex"
                   % (name, missing))
    return answer, bad


# -- ext: Ext tables over the 2-replicated four-subspace algebra -------------

EXT_M = 2
EXT_PAIRS = 16
# The pair design (how many summands, of which kind, at which vertex) is
# drawn from this fixed seed, so every pass times the same mix of sizes.
# Drawing it from the run's seed made the pass time swing by a factor of
# two, set by a few heavy pairs.  The run's seed draws, for every pass, the
# random map coefficients and the order of the summands in each direct sum.
EXT_DESIGN_SEED = 2008
KINDS = ("proj", "inj", "simple", "coker")


def _ext_algebra(rt):
    return rt.replicated.ReplicatedAlgebra(rt.catalog.dtilde4_quiver(), EXT_M)


def _labels(alg):
    return [(v, i) for i in range(alg.m + 1) for v in alg.quiver.vertices]


def _dim_vector(M, labels):
    return [M.dims(i, v) for v, i in labels]


def _inverse(rows):
    """Exact inverse of a square integer matrix (Gauss-Jordan)."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
           for r, row in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def ext_inputs(rt, seed):
    alg = _ext_algebra(rt)
    rep = rt.replicated
    labels = _labels(alg)
    design = random.Random(EXT_DESIGN_SEED)
    rng = random.Random(seed)
    injectives = {(w, j): rep.injective(alg, w, j) for w, j in labels}

    def summand():
        """(kind, v, i) or (kind, v, i, w, j, number of coefficients)."""
        kind = KINDS[design.randrange(len(KINDS))]
        v, i = labels[design.randrange(len(labels))]
        if kind != "coker":
            return (kind, v, i)
        targets = [(w, j) for w, j in labels if injectives[w, j].dims(i, v)]
        w, j = targets[design.randrange(len(targets))]
        return (kind, v, i, w, j, injectives[w, j].dims(i, v))

    def drawn(spec):
        if spec[0] != "coker":
            return spec
        return spec[:5] + ([rng.randint(-3, 3) for _ in range(spec[5])],)

    plan = [([summand() for _ in range(3 + k % 8)],
             [summand() for _ in range(3 + (3 * k + 5) % 8)])
            for k in range(EXT_PAIRS)]
    # row k of ``cartan`` is dim P(labels[k]): it is C^T, so its inverse is C^-T
    cartan = [_dim_vector(rep.projective(alg, v, i), labels) for v, i in labels]
    cartan_inverse = _inverse(cartan)
    variants = []
    for _ in range(VARIANTS):
        pairs = []
        for left, right in plan:
            left, right = [drawn(s) for s in left], [drawn(s) for s in right]
            rng.shuffle(left)
            rng.shuffle(right)
            pairs.append((left, right))
        variants.append({"pairs": pairs, "cartan_inverse": cartan_inverse})
    return variants


def _ext_summand(rt, alg, spec):
    rep = rt.replicated
    kind, v, i = spec[:3]
    if kind == "proj":
        return rep.projective(alg, v, i)
    if kind == "inj":
        return rep.injective(alg, v, i)
    if kind == "simple":
        return rep.simple(alg, v, i)
    w, j, coeffs = spec[3:]
    P, I = rep.projective(alg, v, i), rep.injective(alg, w, j)
    basis = rep.hom_basis_r(P, I)
    if len(basis) != len(coeffs):
        raise RuntimeError("dim Hom(P(%s,%d), I(%s,%d)) = %d, expected %d"
                           % (v, i, w, j, len(basis), len(coeffs)))
    f = rep.zero_rmap(P, I)
    for c, b in zip(coeffs, basis):
        if c:
            f = f + b.scale(c)
    return rep.cokernel(f)[0]


def ext_ops(rt, inputs):
    alg = _ext_algebra(rt)
    labels = _labels(alg)
    rep, hom = rt.replicated, rt.homological
    for k, (left, right) in enumerate(inputs["pairs"]):
        def op(left=left, right=right):
            M, _, _ = rep.direct_sum(alg, [_ext_summand(rt, alg, s) for s in left])
            N, _, _ = rep.direct_sum(alg, [_ext_summand(rt, alg, s) for s in right])
            p = hom.pd(M)
            return {"pd": p, "ext": [hom.ext(i, M, N) for i in range(p + 1)],
                    "dim_m": _dim_vector(M, labels),
                    "dim_n": _dim_vector(N, labels)}
        yield "pair%02d" % k, op


def ext_check(rt, inputs, name, answer):
    """Sum (-1)^i dim Ext^i(M, N) = dim(M)^T C^-T dim(N); the alternating
    sum stops at pd M, which is at most 2m+1."""
    euler = sum((-1) ** i * d for i, d in enumerate(answer["ext"]))
    cinv = inputs["cartan_inverse"]
    dn = answer["dim_n"]
    want = sum(a * sum(x * b for x, b in zip(row, dn))
               for a, row in zip(answer["dim_m"], cinv))
    bad = []
    if euler != want:
        bad.append("%s: Euler form %s from Ext, %s from the Cartan matrix"
                   % (name, euler, want))
    if not 0 <= answer["pd"] <= 2 * EXT_M + 1:
        bad.append("%s: pd %d outside [0, %d]" % (name, answer["pd"], 2 * EXT_M + 1))
    return answer, bad


WORKLOADS = {
    "fans": (fans_inputs, fans_ops, fans_check),
    "tquiver": (tquiver_inputs, tquiver_ops, tquiver_check),
    "ext": (ext_inputs, ext_ops, ext_check),
}
