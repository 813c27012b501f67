"""Enumeration of the indecomposables of a replicated algebra over a Dynkin
base quiver, as the closure of the projectives under the inverse
Auslander-Reiten translation (computed via the inverse Nakayama functor)."""

from __future__ import annotations

from .homological import (cokernel, envelope_copies, injective_envelope,
                          is_injective)
from .krullschmidt import is_indecomposable
from .linalg import Mat
from .replicated import (direct_sum, map_from_projectives, projective,
                         summand_offsets, summands_of)


def translate_inverse(M):
    """The inverse AR translation: the cokernel of nu-inverse of a minimal
    injective copresentation E0 -> E1 of M.  Copy (w, j, r) of E1, the
    envelope of C = E0 / M, has the unit row r at (j, w), so its socle
    functional on E0 is row r of the projection E0 -> C there; cut along
    E0's copies, by Hom(X, I(w, j)) = D(X at (j, w)) it lists the images in
    P(w, j) of the generators of nu-inverse E0."""
    alg = M.algebra
    E0, mono = injective_envelope(M)
    C, cproj = cokernel(mono)
    copies1 = envelope_copies(C)
    if not copies1:
        raise ValueError("inverse translation of an injective module")
    parts = summands_of(E0)
    rows = [(cproj.comps[(j, w)].data[r], summand_offsets(parts, j, w))
            for w, j, r in copies1]
    gens = [(v, i, Mat.column([x for row, cut in rows
                               for x in row[cut[l]:cut[l + 1]]], alg.field))
            for l, (v, i, _) in enumerate(envelope_copies(M))]
    p0 = direct_sum(alg, [projective(alg, v, i) for v, i, _ in gens])[0]
    p1 = direct_sum(alg, [projective(alg, w, j) for w, j, _ in copies1])[0]
    C2, _ = cokernel(map_from_projectives(p0, p1, gens))
    return C2


def is_dynkin(quiver):
    """Underlying graph is of type A, D or E.  A quiver is connected, so
    with n - 1 arrows it is a tree: no loop and no repeated edge."""
    n = len(quiver.vertices)
    if len(quiver.arrows) != n - 1:
        return False
    deg = {v: 0 for v in quiver.vertices}
    for a in quiver.arrows:
        deg[a.source] += 1
        deg[a.target] += 1
    if any(d > 3 for d in deg.values()):
        return False
    branch = [v for v, d in deg.items() if d == 3]
    if not branch:
        return True                      # type A
    if len(branch) > 1:
        return False
    # arm lengths from the branch vertex
    adj = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        adj[a.source].append(a.target)
        adj[a.target].append(a.source)
    b = branch[0]
    arms = []
    for start in adj[b]:
        length, prev, cur = 1, b, start
        while True:
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return True                      # type D
    return arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4])   # E6, E7, E8


def enumerate_indecomposables(alg):
    """All indecomposables of a representation-finite replicated algebra,
    as the closure of the projectives under inverse translation.  tau^-
    maps the non-injective indecomposables one-to-one onto the
    non-projective ones, so the orbits of the P(v, i) are disjoint; the
    catalog refuses a repeat."""
    if not is_dynkin(alg.quiver):
        raise ValueError("enumeration requires a Dynkin base quiver")
    nodes = []
    queue = [projective(alg, v, i) for i, v in alg.cells]
    while queue:
        M = queue.pop(0)
        if not is_indecomposable(M):
            raise RuntimeError("orbit produced a decomposable module")
        nodes.append(M)
        if not is_injective(M):
            queue.append(translate_inverse(M))
    nodes.sort(key=lambda N: (N.total_dim, N.dim_grid().key()))
    return nodes
