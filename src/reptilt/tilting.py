"""Tilting and partial-tilting certification, the per-algebra catalog of
indecomposables and tilting verdicts, Bongartz completion, exchange
sequences and complement fans, and the duplicated-algebra (m = 1)
classifiers."""

from __future__ import annotations

from .approx import left_approximation, right_approximation
from .homological import (ext1_classes, ext_table, injective_envelope,
                          is_injective, is_projective, pd, realize_extension)
from .krullschmidt import (_indec_isomorphic, basic_summands, delta_count,
                           is_indecomposable, is_isomorphic)
from .replicated import (cokernel, direct_sum, injective, kernel, projective,
                         regular_module, summands_of)


class TiltingRecord:
    """A certified tilting module: its basic summands and their pds."""

    def __init__(self, algebra, parts):
        self.algebra = algebra
        self.pieces = [(X, pd(X)) for X in parts]


class ComplementFan:
    def __init__(self, almost_complete, complements, exchange_witnesses):
        self.almost_complete = almost_complete
        self.complements = complements          # ordered list of (X, pd)
        self.exchange_witnesses = exchange_witnesses

    @property
    def pds(self):
        return [p for _, p in self.complements]


def _ext_orthogonal(X, Y):
    """Ext^i(X, Y) = 0 for all i >= 1, one read of the Ext table."""
    return not any(ext_table(X, Y)[1:])


def _self_orthogonal(parts):
    return all(_ext_orthogonal(X, Y) for X in parts for Y in parts)


def is_partial_tilting(M):
    """Self-orthogonality in all positive degrees (pd is always finite)."""
    return M.is_zero() or _self_orthogonal(basic_summands(M))


def coresolution(alg, parts):
    """Iterated minimal left add(T)-approximations of each P(v, i), T = (+)
    parts; A has a finite add(T)-coresolution iff every P(v, i) has one
    (Miyashita, *Tilting modules of finite projective dimension*, Math. Z.
    1986).  Returns the add(T) terms when every step is injective and each
    chain reaches zero within 2m+1 steps; None otherwise.  A P(v, i)
    isomorphic to a part T_j has the trivial chain 0 -> P -> T_j -> 0.
    """
    terms = []
    for current in summands_of(regular_module(alg)):
        same = next((X for X in parts if _indec_isomorphic(current, X)), None)
        if same is not None:
            terms.append(same)
            continue
        for _ in range(2 * alg.m + 2):
            if current.is_zero():
                break
            appr = left_approximation(current, parts)
            if not appr.map.is_mono():
                return None
            terms.append(appr.map.target)
            current, _ = cokernel(appr.map)
        if not current.is_zero():
            return None
    return terms


def certify(alg, parts):
    """The TiltingRecord of T = (+) parts, or None when T is not tilting;
    ``parts`` are pairwise non-isomorphic indecomposables, and two
    isomorphic parts (compared only when their dim grids are equal) are a
    ValueError.  Both the delta criterion and the coresolution certificate
    run on a partial tilting T, and their disagreement is fatal."""
    by_grid = {}
    for X in parts:
        same = by_grid.setdefault(X.dim_grid(), [])
        if any(_indec_isomorphic(X, Y) for Y in same):
            raise ValueError("isomorphic parts of dim grid %s" % X.dim_grid())
        same.append(X)
    partial = _self_orthogonal(parts)
    delta_ok = partial and len(parts) == alg.delta
    cores_ok = partial and coresolution(alg, parts) is not None
    if delta_ok != cores_ok:
        raise RuntimeError(
            "certificate disagreement: delta criterion %s, coresolution %s"
            % (delta_ok, cores_ok))
    return TiltingRecord(alg, parts) if delta_ok else None


def certify_tilting(M):
    """TiltingRecord for a tilting module (raises when M is not tilting)."""
    record = certify(M.algebra, basic_summands(M))
    if record is None:
        raise ValueError("module is not tilting")
    return record


class Catalog:
    """One per algebra, in ``alg.cache``: the canonical representative of
    each isomorphism class of indecomposables met so far, bucketed by dim
    grid, the verdict of ``certify`` on each set of parts it has run on
    and the complement chain of each T_bar it has walked.  A set of
    canonical parts is keyed by its frozenset; a module hashes by
    identity, so the key holds its nodes alive.  Once ``indecomposables``
    has enumerated every indecomposable (a Dynkin base), a module that
    matches none of them is an internal error."""

    def __init__(self, alg):
        self.algebra = alg
        self.by_grid = {}
        self.verdicts = {}
        self.fans = {}
        self.nodes = None

    @staticmethod
    def of(alg):
        catalog = alg.cache.get(("catalog",))
        if catalog is None:
            catalog = alg.cache[("catalog",)] = Catalog(alg)
        return catalog

    def canonical(self, M):
        bucket = self.by_grid.setdefault(M.dim_grid().key(), [])
        for N in bucket:
            if is_isomorphic(M, N):
                return N
        if self.nodes is not None:
            raise RuntimeError("module %s matches no enumerated "
                               "indecomposable" % M.dim_grid())
        bucket.append(M)
        return M

    def indecomposables(self):
        """Every indecomposable, canonical; enumerated once, after which
        the catalog is complete.  Two enumerated modules on one node are an
        internal error."""
        if self.nodes is None:
            from .arknit import enumerate_indecomposables
            nodes = [self.canonical(N)
                     for N in enumerate_indecomposables(self.algebra)]
            if len(set(nodes)) < len(nodes):
                raise RuntimeError("the enumeration of indecomposables "
                                   "lists an isomorphism class twice")
            self.nodes = nodes
        return self.nodes

    def is_tilting(self, parts):
        """Whether (+) parts is tilting; ``certify``, with both of its
        certificates, runs once per set of canonical parts."""
        key = frozenset(parts)
        verdict = self.verdicts.get(key)
        if verdict is None:
            verdict = certify(self.algebra, parts) is not None
            self.verdicts[key] = verdict
        return verdict

    def complement(self, parts, X):
        """X's node when X is indecomposable, its node is none of the
        canonical ``parts`` of T_bar and T_bar (+) X is tilting; None
        otherwise."""
        if not is_indecomposable(X):
            return None
        node = self.canonical(X)
        if node in parts:
            return None
        return node if self.is_tilting(parts + [node]) else None

    def fan(self, parts, seed):
        """The complement chain of T_bar = (+) parts through the node
        ``seed``, walked down and up from it once per set of parts: its
        nodes bottom-up and the exchange witness between neighbours."""
        key = frozenset(parts)
        if key in self.fans:
            return self.fans[key]
        nodes, witnesses = [seed], []
        for up in (False, True):
            X = seed
            for _ in range(2 * self.algebra.m + 3):
                step = exchange(parts, X, up)
                if step is None:
                    break
                X = self.complement(parts, step[0])
                if X is None:
                    raise RuntimeError("%s-walk produced a non-complement"
                                       % ("up" if up else "down"))
                # the down-walk extends the chain below, the up-walk above
                nodes.insert(len(nodes) if up else 0, X)
                witnesses.insert(len(witnesses) if up else 0, step[1])
            else:
                raise RuntimeError("complement chain exceeds its length bound")
        self.fans[key] = nodes, witnesses
        return nodes, witnesses

    def tilting_sets(self, chosen=()):
        """Each set of ``alg.delta`` pairwise Ext-orthogonal nodes that
        contains ``chosen`` and is tilting, in node order.  ``chosen`` is
        Ext-orthogonal; its modules are replaced by their nodes."""
        nodes = self.indecomposables()
        chosen = [self.canonical(X) for X in chosen]
        pool = [X for X in nodes if X not in chosen]
        target = self.algebra.delta
        # a node is its own partner when it is self-orthogonal
        partners = {X: {Y for Y in nodes if _ext_orthogonal(X, Y)
                        and _ext_orthogonal(Y, X)} for X in nodes}

        def extend(chosen, start):
            if len(chosen) == target:
                if self.is_tilting(chosen):
                    yield chosen
                return
            if len(chosen) + (len(pool) - start) < target:
                return
            for idx in range(start, len(pool)):
                X = pool[idx]
                if X in partners[X] and partners[X].issuperset(chosen):
                    yield from extend(chosen + [X], idx + 1)

        return extend(chosen, 0)


def bongartz_complete(M):
    """Classical Bongartz completion for pd(M) <= 1."""
    alg = M.algebra
    if M.is_zero():
        return certify_tilting(regular_module(alg))
    if not is_partial_tilting(M) or pd(M) > 1:
        raise ValueError("Bongartz completion needs a partial tilting module "
                         "of projective dimension at most 1")
    E = regular_module(alg)
    guard = 0
    while True:
        classes = ext1_classes(M, E)
        if not classes:
            break
        E, _, _ = realize_extension(M, E, classes[0])
        # only the basic part matters for Ext-vanishing; keep E small
        E, _, _ = direct_sum(alg, basic_summands(E))
        guard += 1
        if guard > 10 * alg.delta * M.total_dim:
            raise RuntimeError("universal extension did not terminate")
    # the basic summands of E (+) M, read off E and M without forming it
    parts = basic_summands(E)
    for X in basic_summands(M):
        if not any(is_isomorphic(X, Y) for Y in parts):
            parts.append(X)
    record = certify(alg, parts)
    if record is None:
        raise ValueError("module is not tilting")
    return record


def _seed_candidates(T_bar):
    """Over a Dynkin base, the catalog's nodes, which hold every
    indecomposable; otherwise the projectives, the injectives and the base
    projectives and injectives embedded at each level, then the Bongartz
    pieces when pd <= 1."""
    from .arknit import is_dynkin
    from .replicated import embed_level
    alg = T_bar.algebra
    if is_dynkin(alg.quiver):
        yield from Catalog.of(alg).indecomposables()
        return
    for i, v in alg.cells:
        yield projective(alg, v, i)
    for v in alg.quiver.vertices:
        yield injective(alg, v, alg.m)
    for i, v in alg.cells:
        yield embed_level(alg, alg.base_projective(v), i)
        yield embed_level(alg, alg.base_injective(v), i)
    if pd(T_bar) <= 1:
        for X, _ in bongartz_complete(T_bar).pieces:
            yield X


def find_complement(T_bar, parts):
    """The node of the first seed candidate that complements T_bar, whose
    basic summands are the canonical ``parts``."""
    catalog = Catalog.of(T_bar.algebra)
    for X in _seed_candidates(T_bar):
        node = catalog.complement(parts, X)
        if node is not None:
            return node
    raise RuntimeError("no complement found among the seed candidates; "
                       "pass a known complement with --seed")


def exchange(parts, X, up):
    """One exchange step from a complement X of T_bar = (+) parts: the
    exchange sequence 0 -> X -> B -> Y -> 0 of the minimal left
    add(T_bar)-approximation of X when ``up``, else 0 -> Y -> B -> X -> 0 of
    the minimal right one (Coelho-Happel-Unger, *Complements to partial
    tilting modules*, J. Algebra 1994).  Returns (Y, witness), or None when
    the approximation is not mono (``up``) or not epi: X ends the chain."""
    if up:
        incl = left_approximation(X, parts).map
        if not incl.is_mono():
            return None
        Y, proj = cokernel(incl)
    else:
        proj = right_approximation(X, parts).map
        if not proj.is_epi():
            return None
        Y, incl = kernel(proj)
    if Y.is_zero():
        raise RuntimeError("complement lies in add of the almost complete part")
    return Y, {"sub": incl.source, "mid": incl.target, "quot": proj.target,
               "incl": incl, "proj": proj}


def complement_fan(T_bar, seed=None):
    """All complements of an almost complete partial tilting module,
    reported bottom-up (cosyzygy order) with their projective dimensions.
    The algebra's catalog walks the chain once; a seed is sought only then."""
    alg = T_bar.algebra
    parts = basic_summands(T_bar)
    if not _self_orthogonal(parts):
        raise ValueError("input is not partial tilting")
    if len(parts) != alg.delta - 1:
        raise ValueError("input is not almost complete")
    catalog = Catalog.of(alg)
    parts = [catalog.canonical(X) for X in parts]
    if seed is not None:
        seed = catalog.complement(parts, seed)
        if seed is None:
            raise ValueError("provided seed is not a complement")
    elif frozenset(parts) not in catalog.fans:
        seed = find_complement(T_bar, parts)
    nodes, witnesses = catalog.fan(parts, seed)
    return ComplementFan(T_bar, [(X, pd(X)) for X in nodes], witnesses)


def _level0_faithful(alg, parts):
    """Whether the level-0 indecomposables ``parts`` are faithful over A:
    the minimal left add-approximation of A = (+)_v P(v, 0) is injective.
    Over level-0 modules, Hom over the replicated algebra is Hom over A."""
    A0, _, _ = direct_sum(alg, [projective(alg, v, 0)
                                for v in alg.quiver.vertices])
    return left_approximation(A0, parts).map.is_mono()


def classify_duplicated(T_bar):
    """Report for the m = 1 classification: fan shape, the envelope of the
    pd-2 complement, pd-3 existence, and level-0 faithfulness."""
    alg = T_bar.algebra
    if alg.m != 1:
        raise ValueError("classification applies to the duplicated case only")
    fan = complement_fan(T_bar)
    pds = fan.pds
    report = {
        "pd_almost_complete": pd(T_bar),
        "fan_size": len(fan.complements),
        "pds": pds,
        "has_pd3_complement": 3 in pds,
    }
    pd2 = [X for X, p in fan.complements if p == 2]
    if pd2:
        E, _ = injective_envelope(pd2[0])
        report["pd2_envelope_projective"] = is_projective(E)
        report["pd2_dim_grid"] = str(pd2[0].dim_grid())
    # level-0 part of T_bar with the projective-injectives removed
    non_pi = [X for X in basic_summands(T_bar)
              if not (is_projective(X) and is_injective(X))]
    level0 = [X for X in non_pi if all(i == 0 for i, _ in X.support)]
    if level0 and len(level0) == len(non_pi):
        report["level0_part_faithful"] = _level0_faithful(alg, level0)
    report["fan"] = fan
    return report


def complete_partial_tilting(M):
    """Complete a partial tilting module to a tilting module: Bongartz for
    pd <= 1, otherwise (Dynkin base) the first tilting set of the
    algebra's catalog that contains the summands of M."""
    from .arknit import is_dynkin
    alg = M.algebra
    if not is_partial_tilting(M):
        raise ValueError("input is not partial tilting")
    if M.is_zero():
        return certify_tilting(regular_module(alg))
    if delta_count(M) == alg.delta:
        return certify_tilting(M)
    if pd(M) <= 1:
        return bongartz_complete(M)
    if not is_dynkin(alg.quiver):
        raise RuntimeError("strategy unavailable: completion needs a Dynkin "
                           "base or Bongartz for pd <= 1")
    parts = next(Catalog.of(alg).tilting_sets(basic_summands(M)), None)
    if parts is None:
        raise RuntimeError("no completion found in the catalog")
    return TiltingRecord(alg, parts)
