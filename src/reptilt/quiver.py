"""Finite acyclic quivers and their path combinatorics."""

from __future__ import annotations

import json
from typing import NamedTuple


class Arrow(NamedTuple):
    name: str
    source: object
    target: object


class Path(NamedTuple):
    """A path in a quiver; ``arrows`` lists arrow names in traversal order.

    A trivial path has empty ``arrows`` and equal source and target.
    """
    source: object
    target: object
    arrows: tuple

    def __len__(self):
        return len(self.arrows)


class Quiver:
    """A finite, connected, acyclic quiver with named arrows.

    Paths are enumerated once and ordered lexicographically by
    (length, arrow-name sequence, source); this order fixes all projective
    and injective bases downstream.
    """

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        self.arrows = [Arrow(*a) for a in arrows]
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError("arrow %s endpoints not in vertex set" % (a.name,))
        self._check_acyclic()
        self._check_connected()
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self.paths = self._enumerate_paths()
        self._paths_from = {v: [p for p in self.paths if p.source == v]
                            for v in self.vertices}
        self._paths_into = {v: [p for p in self.paths if p.target == v]
                            for v in self.vertices}
        self._paths_between = {}
        for p in self.paths:
            self._paths_between.setdefault((p.source, p.target), []).append(p)
        self.maximal_paths = [p for p in self.paths  # from a source to a sink
                              if not self.arrows_into(p.source)
                              and not self.arrows_from(p.target)]

    # -- validation ---------------------------------------------------

    def _check_acyclic(self):
        out = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a.target)
        state = {v: 0 for v in self.vertices}

        def visit(v):
            state[v] = 1
            for w in out[v]:
                if state[w] == 1:
                    raise ValueError("quiver has a directed cycle")
                if state[w] == 0:
                    visit(w)
            state[v] = 2

        for v in self.vertices:
            if state[v] == 0:
                visit(v)

    def _check_connected(self):
        if not self.vertices:
            raise ValueError("empty quiver")
        adj = {v: set() for v in self.vertices}
        for a in self.arrows:
            adj[a.source].add(a.target)
            adj[a.target].add(a.source)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self.vertices):
            raise ValueError("quiver is not connected")

    # -- paths --------------------------------------------------------

    def _enumerate_paths(self):
        paths = [Path(v, v, ()) for v in self.vertices]
        frontier = list(paths)
        while frontier:
            new = []
            for p in frontier:
                for a in self.arrows:
                    if a.source == p.target:
                        new.append(Path(p.source, a.target, p.arrows + (a.name,)))
            paths.extend(new)
            frontier = new
        paths.sort(key=lambda p: (len(p.arrows), p.arrows,
                                  self._vindex[p.source]))
        return paths

    def paths_from(self, v):
        return self._paths_from[v]

    def paths_into(self, v):
        return self._paths_into[v]

    def paths_between(self, u, w):
        """The paths from u to w, in ``paths`` order: the basis of the
        projective A e_u at w and, as functionals, of the injective D(e_w A)
        at u."""
        return self._paths_between.get((u, w), [])

    def arrows_from(self, v):
        return [a for a in self.arrows if a.source == v]

    def arrows_into(self, v):
        return [a for a in self.arrows if a.target == v]

    # -- serialization ------------------------------------------------

    def to_json(self):
        return {"vertices": list(self.vertices),
                "arrows": [{"name": a.name, "from": a.source, "to": a.target}
                           for a in self.arrows]}

    @staticmethod
    def from_json(obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        return Quiver(obj["vertices"],
                      [(a["name"], a["from"], a["to"]) for a in obj["arrows"]])

    def __repr__(self):
        return "Quiver(%r, %d arrows)" % (self.vertices, len(self.arrows))
