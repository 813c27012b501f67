"""Tilting and partial-tilting certification, Bongartz completion,
complement fans, and the duplicated-algebra (m = 1) classifiers."""

from __future__ import annotations

from .approx import left_approximation, right_approximation
from .homological import (ext, ext1_classes, injective_envelope,
                          is_injective, is_projective, pd, realize_extension)
from .krullschmidt import (basic_summands, delta_count, is_indecomposable,
                           is_isomorphic)
from .linalg import Mat, rank
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
    """Ext^i(X, Y) = 0 for all i >= 1 (bounded by pd X)."""
    for i in range(1, pd(X) + 1):
        if ext(i, X, Y):
            return False
    return True


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
    chain reaches zero within 2m+1 steps; None otherwise.
    """
    terms = []
    for current in summands_of(regular_module(alg)):
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
    ``parts`` are pairwise non-isomorphic indecomposables.  Both the delta
    criterion and the coresolution certificate run on a partial tilting T,
    and their disagreement is fatal."""
    partial = _self_orthogonal(parts)
    delta_ok = partial and len(parts) == alg.delta
    cores_ok = partial and coresolution(alg, parts) is not None
    if delta_ok != cores_ok:
        raise RuntimeError(
            "certificate disagreement: delta criterion %s, coresolution %s"
            % (delta_ok, cores_ok))
    return TiltingRecord(alg, parts) if delta_ok else None


def is_tilting(M):
    """Tilting test with dual certificates; disagreement is fatal."""
    return certify(M.algebra, basic_summands(M)) is not None


def certify_tilting(M):
    """TiltingRecord for a tilting module (raises when M is not tilting)."""
    record = certify(M.algebra, basic_summands(M))
    if record is None:
        raise ValueError("module is not tilting")
    return record


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


def _is_complement(parts, X):
    """X indecomposable, not in add(T_bar), and T_bar (+) X tilting, for
    ``parts`` the basic summands of T_bar."""
    if X.is_zero() or not is_indecomposable(X):
        return False
    if any(is_isomorphic(X, Y) for Y in parts):
        return False
    return certify(X.algebra, parts + [X]) is not None


def _seed_candidates(T_bar):
    """Over a Dynkin base, the catalog's nodes, which hold every
    indecomposable; otherwise the projectives, the injectives and the base
    projectives and injectives embedded at each level, then the Bongartz
    pieces when pd <= 1."""
    from .arknit import is_dynkin
    from .replicated import embed_level
    alg = T_bar.algebra
    if is_dynkin(alg.quiver):
        from .tiltquiver import Catalog
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


def find_complement(T_bar):
    """The first of the seed candidates that complements T_bar."""
    existing = basic_summands(T_bar)
    for X in _seed_candidates(T_bar):
        if _is_complement(existing, X):
            return X
    raise RuntimeError("no complement found among the seed candidates; "
                       "pass a known complement with --seed")


def _down_step(parts, X):
    """Kernel of the minimal right add(T_bar)-approximation of X, with the
    exchange sequence 0 -> K -> B -> X -> 0; None when X is the bottom.
    ``parts`` are the basic summands of T_bar."""
    appr = right_approximation(X, parts)
    if not appr.map.is_epi():
        return None
    K, incl = kernel(appr.map)
    if K.is_zero():
        raise RuntimeError("complement lies in add of the almost complete part")
    return K, {"sub": K, "mid": appr.map.source, "quot": X,
               "incl": incl, "proj": appr.map}


def _up_step(parts, X):
    """Cokernel of the minimal left add(T_bar)-approximation, dually."""
    appr = left_approximation(X, parts)
    if not appr.map.is_mono():
        return None
    C, proj = cokernel(appr.map)
    if C.is_zero():
        raise RuntimeError("complement lies in add of the almost complete part")
    return C, {"sub": X, "mid": appr.map.target, "quot": C,
               "incl": appr.map, "proj": proj}


def complement_fan(T_bar, seed=None):
    """All complements of an almost complete partial tilting module,
    reported bottom-up (cosyzygy order) with their projective dimensions."""
    alg = T_bar.algebra
    cached = T_bar.cache.get("fan")
    if cached is not None:
        return cached
    parts = basic_summands(T_bar)
    if not _self_orthogonal(parts):
        raise ValueError("input is not partial tilting")
    if len(parts) != alg.delta - 1:
        raise ValueError("input is not almost complete")
    if seed is None:
        seed = find_complement(T_bar)
    elif not _is_complement(parts, seed):
        raise ValueError("provided seed is not a complement")
    watchdog = 2 * alg.m + 3
    # walk down to the bottom complement
    bottom = seed
    for _ in range(watchdog):
        step = _down_step(parts, bottom)
        if step is None:
            break
        bottom = step[0]
        if not _is_complement(parts, bottom):
            raise RuntimeError("down-walk produced a non-complement")
    else:
        raise RuntimeError("complement chain exceeded its length bound")
    # walk up, collecting the chain and witnesses
    chain = [(bottom, pd(bottom))]
    witnesses = []
    X = bottom
    for _ in range(watchdog):
        step = _up_step(parts, X)
        if step is None:
            break
        X = step[0]
        if not _is_complement(parts, X):
            raise RuntimeError("up-walk produced a non-complement")
        chain.append((X, pd(X)))
        witnesses.append(step[1])
    else:
        raise RuntimeError("complement chain exceeded its length bound")
    fan = ComplementFan(T_bar, chain, witnesses)
    # the chain is unique regardless of the seed, so it is safe to cache
    T_bar.cache["fan"] = fan
    return fan


def _base_rep_faithful(rep):
    """Faithfulness over the base path algebra: the path actions are
    linearly independent in (+) Hom(N_u, N_w) (zero annihilator)."""
    q = rep.quiver
    field = rep.field
    offsets = {}
    total = 0
    for u in q.vertices:
        for w in q.vertices:
            offsets[(u, w)] = total
            total += rep.dims[u] * rep.dims[w]
    m = Mat.zeros(max(total, 1), len(q.paths), field)
    for j, p in enumerate(q.paths):
        mat = rep.path_action(p)
        off = offsets[(p.source, p.target)]
        k = 0
        for row in mat.data:
            for x in row:
                m.data[off + k][j] = x
                k += 1
    return rank(m) == len(q.paths)


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
    level0 = [X for X in non_pi
              if all(X.dims(i, v) == 0
                     for i in range(1, alg.m + 1)
                     for v in alg.quiver.vertices)]
    if level0 and len(level0) == len(non_pi):
        S, _, _ = direct_sum(alg, level0)
        report["level0_part_faithful"] = _base_rep_faithful(S.levels[0])
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
    from .tiltquiver import Catalog
    parts = next(Catalog.of(alg).tilting_sets(basic_summands(M)), None)
    if parts is None:
        raise RuntimeError("no completion found in the catalog")
    return TiltingRecord(alg, parts)
