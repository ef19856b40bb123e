"""Per-layer tracing by wrapping the program's public functions from outside.

Every public function of the layer modules is replaced, in every namespace
of the package that binds it, by a wrapper that keeps aggregate counters:
calls, inclusive seconds (outermost call only) and self seconds (inclusive
minus the time of nested wrapped calls).  Callbacks handed to the optimizers
(``golden_section_max``, ``search_simplex``, ...) are counted in aggregate as
``<module>.objective``, so no span is stored per evaluation.  A function the
program no longer has simply reports zero calls.

The tracer keeps one call stack, so traced requests run with ``--workers 1``.
"""

import importlib
import time
import types
from collections import defaultdict

LAYERS = ("cli", "gaussian", "optimize", "discrete", "codec", "adversary", "sim")

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self._stack = []            # per open span: seconds spent in its children
        self._open = defaultdict(int)
        self._patched = []          # (namespace, attribute, original)

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        self._open[name] += 1
        self._stack.append(0.0)
        return _clock()

    def _exit(self, name, t0):
        dur = _clock() - t0
        child = self._stack.pop()
        self._open[name] -= 1
        st = self.stats[name]
        st[0] += 1
        st[2] += dur - child
        if not self._open[name]:
            st[1] += dur
        if self._stack:
            self._stack[-1] += dur

    def _span(self, name, fn):
        post = _POST_HOOKS.get(name)
        optimizer = name.startswith("optimize.")

        def wrapper(*args, **kwargs):
            if optimizer and args and callable(args[0]):
                args = (self._callback(name, args[0]),) + args[1:]
            t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
            if post is not None:
                post(self, args, kwargs, result)
            return result

        return wrapper

    def _callback(self, optimizer, f):
        """Aggregate span for an objective passed to an optimizer."""
        layer = getattr(f, "__module__", "") or ""
        name = f"{layer.rsplit('.', 1)[-1]}.objective"
        counts = self.counts

        def objective(x, *args, **kwargs):
            counts[optimizer + ".evals"] += 1
            shape = getattr(x, "shape", ())
            counts[optimizer + ".points"] += shape[0] if shape else 1
            t0 = self._enter(name)
            try:
                return f(x, *args, **kwargs)
            finally:
                self._exit(name, t0)

        return objective

    # -- installation ------------------------------------------------------

    def install(self, package="avrc"):
        """Wrap every public function of the layer modules wherever it is bound."""
        namespaces = [importlib.import_module(package)]
        for layer in LAYERS:
            try:
                namespaces.append(importlib.import_module(f"{package}.{layer}"))
            except ModuleNotFoundError:
                continue
        wrappers = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                name = _canonical_name(package, attr, obj)
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._span(name, obj)
                self._patched.append((ns, attr, obj))
                setattr(ns, attr, wrappers[id(obj)])

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def seconds(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def self_seconds(self, name):
        return self.stats[name][2] if name in self.stats else 0.0


def _canonical_name(package, attr, obj):
    """`<layer>.<function>` for the package's public functions, `scipy.<function>`
    for scipy functions a layer imported; None for anything else."""
    if attr.startswith("_") or not isinstance(obj, types.FunctionType):
        return None
    module = obj.__module__ or ""
    if module.startswith(package + "."):
        layer = module.split(".")[1]
        return f"{layer}.{obj.__name__}" if layer in LAYERS else None
    if module.split(".")[0] == "scipy":
        return f"scipy.{obj.__name__}"
    return None


def _impostor_draws(tracer, args, kwargs, state):
    """Counts impostor draws, and those that did not fall back to all zeros."""
    strategy = args[0] if args else kwargs.get("strategy")
    if getattr(strategy, "kind", None) != "impostor":
        return
    rows = getattr(state, "state", state)       # ImpostorDraw or the bare array
    rows = rows.reshape(-1, rows.shape[-1]) if rows.ndim > 1 else rows[None, :]
    tracer.counts["adversary.impostor_draws"] += rows.shape[0]
    tracer.counts["adversary.impostor_useful"] += int((rows != 0).any(axis=1).sum())


_POST_HOOKS = {"adversary.make_state": _impostor_draws}
