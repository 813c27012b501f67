"""Layer tracer: spans and counters around calls into reptilt's layers.

A layer is one ``reptilt`` module.  Every public function a layer module
defines is wrapped in a span, and so are a few named class methods.  The
modules import each other's functions by name (``hom_basis_r`` alone is
bound in six namespaces), so a wrapper is rebound in every ``reptilt.*``
namespace that holds the original; class methods are patched on the class.
``uninstall`` puts every original back.

Spans are aggregated as they close instead of being stored: a traced pass
makes millions of ``Mat.__mul__`` calls.  A span's self time is its duration
minus the time of its direct child spans, so the layers' self times add up
to the traced time spent inside any layer.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("linalg", "replicated", "homological", "krullschmidt", "approx",
          "tilting", "tiltquiver", "arknit")

# (layer, class, method) patched on the class, each with its own span
CLASS_TARGETS = (("linalg", "Mat", "__mul__"),
                 ("replicated", "RMap", "compose"),
                 ("tiltquiver", "Registry", "canonical"))

# private functions wrapped only to count, without a span of their own
COUNT_ONLY = (("replicated", "_hom_basis_r"),
              ("krullschmidt", "_indec_isomorphic"))

ELIM_FUNCS = ("rref", "rank", "kernel_basis", "column_space", "solve_matrix")

COUNTERS = ("linalg.elim_cells", "linalg.matmul_calls", "linalg.matmul_mults",
            "replicated.hom_calls", "replicated.hom_misses",
            "replicated.hom_unknowns",
            "homological.ext_calls", "homological.resolutions_built",
            "krullschmidt.try_split_calls", "krullschmidt.decompose_calls",
            "krullschmidt.iso_tests",
            "approx.summands_kept",
            "tilting.is_tilting_calls", "tilting.coresolution_calls",
            "tiltquiver.mutate_calls", "tiltquiver.canonical_calls",
            "tiltquiver.oracle_candidates", "tiltquiver.oracle_found")


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Context manager that installs the layer wrappers while active."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.incl_s = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.count = dict.fromkeys(COUNTERS, 0)
        self.enumerate_s = 0.0
        self._active = dict.fromkeys(LAYERS, 0)
        self._stack = []
        self._restore = []
        self._hook_table = self._hooks()

    # -- counters taken at the call boundary ---------------------------

    def _hooks(self):
        """name -> (before(args), after(result)); either may be None."""
        c = self.count
        stack = self._stack

        def add(key, n=1):
            c[key] += n

        def elim(args):
            add("linalg.elim_cells", args[0].rows * args[0].cols)

        def matmul(args):
            a, b = args
            add("linalg.matmul_calls")
            add("linalg.matmul_mults", a.rows * a.cols * b.cols)

        def hom_miss(args):
            M, N = args
            alg = M.algebra
            add("replicated.hom_misses")
            add("replicated.hom_unknowns", sum(
                M.levels[i].dims[v] * N.levels[i].dims[v]
                for i in range(alg.m + 1) for v in alg.quiver.vertices))

        def resolution(args):
            if "resolution" not in args[0].cache:
                add("homological.resolutions_built")

        def is_tilting(args):
            add("tilting.is_tilting_calls")
            if stack and stack[-1].name == "exhaustive_tilting_oracle":
                add("tiltquiver.oracle_candidates")

        def counter(key):
            return lambda args: add(key)

        def kept(result):
            add("approx.summands_kept", len(result.summands))

        def found(result):
            add("tiltquiver.oracle_found", len(result))

        hooks = {name: (elim, None) for name in ELIM_FUNCS}
        hooks.update({
            "Mat.__mul__": (matmul, None),
            "hom_basis_r": (counter("replicated.hom_calls"), None),
            "_hom_basis_r": (hom_miss, None),
            "ext": (counter("homological.ext_calls"), None),
            "minimal_resolution": (resolution, None),
            "try_split": (counter("krullschmidt.try_split_calls"), None),
            "decompose": (counter("krullschmidt.decompose_calls"), None),
            "_indec_isomorphic": (counter("krullschmidt.iso_tests"), None),
            "is_tilting": (is_tilting, None),
            "coresolution": (counter("tilting.coresolution_calls"), None),
            "mutate_all": (counter("tiltquiver.mutate_calls"), None),
            "Registry.canonical": (counter("tiltquiver.canonical_calls"), None),
            "right_approximation": (None, kept),
            "left_approximation": (None, kept),
            "exhaustive_tilting_oracle": (None, found),
        })
        return hooks

    # -- wrappers --------------------------------------------------------

    def _span(self, layer, name, fn):
        stack = self._stack
        active = self._active
        clock = time.perf_counter
        tracer = self
        before, after = self._hook_table.get(name, (None, None))

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = _Frame(name)
            stack.append(frame)
            active[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[layer] -= 1
                tracer.calls[layer] += 1
                tracer.self_s[layer] += dt - frame.child_s
                if not active[layer]:
                    tracer.incl_s[layer] += dt
                    if name == "enumerate_indecomposables":
                        tracer.enumerate_s += dt
                if stack:
                    stack[-1].child_s += dt
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _counter(self, name, fn):
        before = self._hook_table[name][0]

        def wrapper(*args, **kwargs):
            before(args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _modules(self):
        return [mod for key, mod in list(sys.modules.items())
                if mod is not None
                and (key == "reptilt" or key.startswith("reptilt."))]

    def _rebind_everywhere(self, original, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        by_name = {mod.__name__: mod for mod in modules}
        for layer in LAYERS:
            mod = by_name["reptilt." + layer]
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._rebind_everywhere(fn, self._span(layer, attr, fn),
                                            modules)
        for layer, attr in COUNT_ONLY:
            fn = getattr(by_name["reptilt." + layer], attr)
            self._rebind_everywhere(fn, self._counter(attr, fn), modules)
        for layer, cls_name, attr in CLASS_TARGETS:
            cls = getattr(by_name["reptilt." + layer], cls_name)
            fn = cls.__dict__[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._span(layer, "%s.%s" % (cls_name, attr), fn))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- report ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = (self.calls[layer], "count")
            out[layer + ".incl_s"] = (self.incl_s[layer], "s")
            out[layer + ".self_s"] = (self.self_s[layer], "s")
        c = self.count
        for name in COUNTERS:
            if name != "tiltquiver.oracle_found":
                out[name] = (c[name], "count")
        hom = c["replicated.hom_calls"]
        out["replicated.hom_hit_ratio"] = (
            1 - c["replicated.hom_misses"] / hom if hom else 0.0, "ratio")
        cand = c["tiltquiver.oracle_candidates"]
        out["tiltquiver.oracle_yield"] = (
            c["tiltquiver.oracle_found"] / cand if cand else 0.0, "ratio")
        out["arknit.enumerate_s"] = (self.enumerate_s, "s")
        return out
