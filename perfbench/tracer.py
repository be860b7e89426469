"""Spans around the public functions of every notepheno module.

The tracer wraps each public function a module defines and rebinds the
wrapper at every name any notepheno module holds for that function. Several
modules import functions by value (``experiment.pretrain_embeddings``,
``experiment.save_embeddings``, ``experiment.tokenize``, ``saliency.forward``,
``saliency.predict``, ``cnn.adadelta_step``, ``baselines.adadelta_step``,
``cli.tokenize``, ...), and a wrapper on the defining module alone would never
see those calls.

A span is one call: its name, start, end and parent (the span open when it
started). Spans are folded into per-(name, parent) totals as they close, so
memory stays flat however many calls a run makes. A span's self time is its
duration minus the durations of its child spans; a layer's self time is the
sum over the spans of the functions its module defines. The program is one
single-threaded batch process, so no layer has queue or wait time and none is
reported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager


def _n_elements(value) -> int:
    """Number of scalars in an array, or in a (nested) tuple/list/dict of them."""
    if isinstance(value, dict):
        return sum(_n_elements(v) for v in value.values())
    if isinstance(value, (tuple, list)):
        return sum(_n_elements(v) for v in value)
    return int(getattr(value, "size", 1))


def _count_step_elements(counters, parent, args, kwargs, result):
    if parent == "cnn.train":
        grads = kwargs["grads"] if "grads" in kwargs else args[1]
        counters["cnn_step_elements"] += _n_elements(grads)


def _count_centers(counters, parent, args, kwargs, result):
    corpus = kwargs["corpus"] if "corpus" in kwargs else args[0]
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    counters["sgns_centers"] += cfg.epochs * sum(len(tokens) for tokens in corpus)


def _count_features(counters, parent, args, kwargs, result):
    counters["n_features"] += result.n_features


ANY_PARENT = object()

# Counts read off a call's arguments or result at the layer boundary.
HOOKS = {
    "optim.adadelta_step": _count_step_elements,
    "embeddings.pretrain_embeddings": _count_centers,
    "featurize.fit_feature_space": _count_features,
}


class Tracer:
    def __init__(self, package):
        self.modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.layers = [m.__name__.rsplit(".", 1)[1] for m in self.modules]
        self._bindings = []  # (module, attribute, original, wrapper)
        self.reset()
        for module, layer in zip(self.modules, self.layers):
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in self.modules:
                    for name, value in vars(holder).items():
                        if value is fn:
                            self._bindings.append((holder, name, fn, wrapper))

    def reset(self):
        self.totals = {}  # (name, parent name) -> [calls, inclusive s, self s]
        self.counters = {"cnn_step_elements": 0, "sgns_centers": 0, "n_features": 0}
        self.hook_errors = 0
        self._stack = []

    def _wrap(self, name, fn):
        clock = time.perf_counter
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0, clock()]  # name, child seconds, start
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[2]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                key = (name, parent)
                total = tracer.totals.get(key)
                if total is None:
                    total = tracer.totals[key] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
            if hook is not None:
                try:
                    hook(tracer.counters, parent, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.hook_errors += 1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block, then restore."""
        for holder, name, _, wrapper in self._bindings:
            setattr(holder, name, wrapper)
        try:
            yield self
        finally:
            for holder, name, original, _ in self._bindings:
                setattr(holder, name, original)

    # -- reading the totals --------------------------------------------------

    def _select(self, name: str, parent):
        return [
            t for (n, p), t in self.totals.items()
            if n == name and (parent is ANY_PARENT or p == parent)
        ]

    def calls(self, name: str, parent=ANY_PARENT) -> int:
        return sum(t[0] for t in self._select(name, parent))

    def inclusive(self, name: str, parent=ANY_PARENT) -> float:
        return sum(t[1] for t in self._select(name, parent))

    def self_seconds(self, name: str) -> float:
        return sum(t[2] for t in self._select(name, ANY_PARENT))

    def outer_inclusive(self, prefix: str) -> float:
        """Inclusive seconds of spans named prefix* whose parent is not one of them."""
        return sum(
            t[1]
            for (n, p), t in self.totals.items()
            if n.startswith(prefix) and not (p or "").startswith(prefix)
        )

    def layer_calls(self, layer: str) -> int:
        return sum(t[0] for (n, _), t in self.totals.items() if n.split(".", 1)[0] == layer)

    def layer_self(self, layer: str) -> float:
        return sum(t[2] for (n, _), t in self.totals.items() if n.split(".", 1)[0] == layer)

    def root_seconds(self) -> float:
        return sum(t[1] for (_, p), t in self.totals.items() if p is None)
