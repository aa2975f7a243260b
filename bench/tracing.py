"""Spans around the package's module boundaries, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper wherever the
package binds it: in the defining module, in every module that imported it
with ``from .x import f``, and in records kept in module-level dicts (such as
the samplers in ``harness.MEASURES``).  The ``numpy.linalg`` kernels are
wrapped in the ``numpy.linalg`` namespace, which the package uses as
``np.linalg.<name>``.  ``uninstall`` puts every original back.

The benchmark installs the wrappers around one traced call at a time and
sets ``tracer.item`` to the item's index, which every span of the call
carries.  Spans live in flat arrays and are aggregated or written out after
the run.
"""

import dataclasses
import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = {
    "measures": ("m_l1_roof", "m_rank", "m_rel_ent_roof", "m_rel_ent", "m_weight",
                 "m_robustness", "m_l1", "m_delta", "real_dual_kraus"),
    "solvers": ("mirror_descent_simplex", "max_weight_diagonal",
                "min_dominating_diagonal", "barrier_descent"),
    "generalized": ("m_weight_generalized", "m_robustness_generalized"),
    "qstate": ("coefficients_of", "ensemble_from_isometry", "random_density", "random_free"),
    "basis": ("build_basis", "constant_overlap_basis"),
    "channels": ("apply", "apply_selective", "random_free_channel"),
    "harness": ("run_axiom_campaign", "run_oracle_campaign"),
    "cli": ("main",),
}
KERNELS = ("svd", "eigh", "eigvalsh", "inv", "solve", "pinv", "qr", "eigvals")



def traced_keys() -> list:
    keys = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
    return keys + [f"kernel.{k}" for k in KERNELS]


def counts_evals(key: str) -> bool:
    """Whether the function returns a MeasureResult, whose iterations are
    summed as evals."""
    return key.split(".")[0] in ("measures", "generalized") and key != "measures.real_dual_kraus"


def _originals():
    found = {}
    for layer, fns in LAYERS.items():
        module = importlib.import_module(f"superposition.{layer}")
        for fn in fns:
            found[f"{layer}.{fn}"] = getattr(module, fn)
    for k in KERNELS:
        found[f"kernel.{k}"] = getattr(np.linalg, k)
    return found


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "superposition" or name.startswith("superposition."))]


def _bindings(original, modules):
    """(setter, owner, attr) for every place that holds `original`."""
    found = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((setattr, module, attr))
            elif isinstance(value, dict):
                for record in value.values():
                    if dataclasses.is_dataclass(record) and not isinstance(record, type):
                        for f in dataclasses.fields(record):
                            if getattr(record, f.name) is original:
                                found.append((object.__setattr__, record, f.name))
    return found


class Tracer:
    def __init__(self):
        self.keys = traced_keys()
        self.item = -1
        self.name = array("i")
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.evals = Counter()
        self.errors = Counter()
        self.nonconverged = 0
        self._stack = []
        self._sites = []  # (setter, owner, attr, original, wrapper)
        self._installed = False

    def _wrap(self, k, fn, with_evals):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(k)
            self.parent.append(stack[-1] if stack else -1)
            self.item_of.append(self.item)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[k] += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                stack.pop()
            if with_evals:
                self.evals[k] += int(result.iterations)
                self.nonconverged += not result.converged
            return result

        traced.bench_traced = True
        return traced

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._sites:
            modules = _package_modules()
            originals = _originals()
            for k, key in enumerate(self.keys):
                original = originals[key]
                wrapper = self._wrap(k, original, counts_evals(key))
                holders = [np.linalg] if key.startswith("kernel.") else modules
                self._sites += [(setter, owner, attr, original, wrapper)
                                for setter, owner, attr in _bindings(original, holders)]
        for setter, owner, attr, _, wrapper in self._sites:
            setter(owner, attr, wrapper)
        self._installed = True

    def uninstall(self):
        for setter, owner, attr, original, _ in reversed(self._sites):
            setter(owner, attr, original)
        self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _arrays(self):
        return (np.asarray(self.name, dtype=np.int32), np.asarray(self.parent, dtype=np.int32),
                np.asarray(self.start, dtype=float), np.asarray(self.end, dtype=float))

    def layer_stats(self) -> dict:
        """{key: {"calls", "self_s", "evals", "errors"}} over all spans.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        name, parent, start, end = self._arrays()
        dur = end - start
        n_keys = len(self.keys)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(name, minlength=n_keys)
        self_s = np.bincount(name, weights=self_t, minlength=n_keys)
        return {key: {"calls": int(calls[k]), "self_s": float(self_s[k]),
                      "evals": self.evals[k], "errors": self.errors[k]}
                for k, key in enumerate(self.keys)}

    def save(self, path, item_names):
        name, parent, start, end = self._arrays()
        t0 = start.min() if start.size else 0.0
        np.savez_compressed(path, keys=np.array(self.keys), item_names=np.array(item_names),
                            name=name, parent=parent,
                            item=np.asarray(self.item_of, dtype=np.int32),
                            start=start - t0, end=end - t0)
