"""Spans around the public functions of the ratioloss modules.

The tracer wraps every public module-level function of each traced
module from outside the program: it rebinds the name in every loaded
ratioloss module (so `from .dre import fit` bindings are caught too) and
in module-level dicts that hold the function (such as the CLI's command
table and the identity-suite group table).  `uninstall` puts the
originals back, so traced and untraced passes run in one process.

A layer's self time is the duration of its spans minus the time covered
by their direct child spans.  The objective handed to `optim.bfgs` gets
its own span, attributed to the module that defined it, so optimizer
bookkeeping (`optim.self_s`) is measured net of objective evaluations.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "synth", "kernels", "losses", "dre", "optim", "quadrature",
          "generators", "iw", "checks", "figures")
PACKAGE = "ratioloss"


def layer_name(module_name: str, package: str = PACKAGE) -> str:
    """'ratioloss.dre' -> 'dre'; '' for a module outside the package."""
    prefix = package + "."
    return module_name[len(prefix):] if module_name.startswith(prefix) else ""


class Tracer:
    """Records spans and counts for one pass at a time.

    `clock` exists so tests can drive the tracer with a fake time source.
    """

    def __init__(self, modules, package: str = PACKAGE,
                 clock=time.perf_counter):
        self.modules = list(modules)
        self.package = package
        self.clock = clock
        self._patches = []
        self.reset()

    # ----------------------------------------------------------- spans
    def reset(self) -> None:
        """Start a new pass: clear all spans, counts and fit records."""
        self.spans = []          # [layer, name, start, end, parent, label]
        self._stack = []
        self.label = ""
        self.counts = defaultdict(int)
        self.fits = []           # one record per bfgs call
        self._fevals_at_start = 0

    def _enter(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, self.clock(), None, parent,
                           self.label])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        self._stack.pop()

    def _wrap(self, layer: str, fn):
        name = fn.__qualname__
        hook = _HOOKS.get((layer, fn.__name__))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[f"{layer}.calls"] += 1
            if hook is not None:
                args = hook.before(self, args)
            idx = self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if hook is not None:
                hook.after(self, result)
            return result

        return wrapper

    # --------------------------------------------------------- patching
    def install(self) -> None:
        """Rebind every public function of the traced modules to a
        span-recording wrapper, wherever a ratioloss module refers to it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for mod in self.modules:
            layer = layer_name(mod.__name__, self.package)
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(layer, obj)
        for mod in _loaded_modules(self.package):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((vars(mod), name, obj))
                    setattr(mod, name, wrappers[id(obj)])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._patches.append((obj, key, val))
                            obj[key] = wrappers[id(val)]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches = []

    # ---------------------------------------------------------- results
    def summary(self) -> dict:
        """Self seconds per layer and per (invocation label, layer), and
        inclusive seconds per traced function, over the current pass."""
        child = [0.0] * len(self.spans)
        for _layer, _name, start, end, parent, _label in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self = defaultdict(float)
        label_self = defaultdict(lambda: defaultdict(float))
        inclusive = defaultdict(float)
        for i, (layer, name, start, end, _parent, label) in enumerate(self.spans):
            own = (end - start) - child[i]
            layer_self[layer] += own
            label_self[label][layer] += own
            inclusive[f"{layer}.{name}"] += end - start
        return {"self_s": dict(layer_self),
                "self_s_by_label": {k: dict(v) for k, v in label_self.items()},
                "inclusive_s": dict(inclusive)}


def _loaded_modules(package: str):
    prefix = package + "."
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(prefix))]


class _BfgsHook:
    """Counts objective evaluations and records each solve's outcome."""

    @staticmethod
    def before(tracer: Tracer, args):
        obj, rest = args[0], args[1:]
        layer = (layer_name(getattr(obj, "__module__", ""), tracer.package)
                 or "optim")

        def counted(x):
            tracer.counts["optim.f_evals"] += 1
            idx = tracer._enter(layer, "objective")
            try:
                return obj(x)
            finally:
                tracer._exit(idx)

        tracer._fevals_at_start = tracer.counts["optim.f_evals"]
        return (counted,) + rest

    @staticmethod
    def after(tracer: Tracer, result):
        f_evals = tracer.counts["optim.f_evals"] - tracer._fevals_at_start
        tracer.counts["optim.iterations"] += int(result.iterations)
        tracer.fits.append({"label": tracer.label,
                            "iterations": int(result.iterations),
                            "f_evals": int(f_evals),
                            "f_star": float(result.f_star),
                            "status": result.status})


class _CountEntries:
    """Adds the size of the returned array to a named count."""

    def __init__(self, key: str):
        self.key = key

    @staticmethod
    def before(tracer, args):
        return args

    def after(self, tracer, result):
        tracer.counts[self.key] += int(getattr(result, "size", 0))


_HOOKS = {
    ("optim", "bfgs"): _BfgsHook,
    ("kernels", "gram"): _CountEntries("kernels.gram_entries"),
    ("dre", "predict_ratio"): _CountEntries("dre.predict_pts"),
}
