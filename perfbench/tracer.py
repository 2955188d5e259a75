"""Per-layer timings taken from outside the package.

``Tracer.install`` replaces each public function of the traced chaostomo
modules, in every chaostomo namespace that holds it, with a wrapper that
times the call as a span. ``numpy.linalg.eigh`` and ``eigvalsh`` are wrapped
the same way and grouped by input shape. A span's self time is its duration
minus the time of the spans it called. ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("spin_algebra", "kicked_top", "tomography", "chaos_metrics", "bloch_analysis", "experiments")


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


# Work counts taken at the same boundaries as the spans: (counter, f(fn, args, kwargs)).
_COUNTS = {
    "kicked_top.operator_trajectory": (
        "kicked_top.operator_trajectory.steps",
        lambda fn, a, k: int(_bound(fn, a, k, "n_steps")),
    ),
    "tomography.fidelity_matrix": (
        "tomography.fidelity_matrix.estimates",
        lambda fn, a, k: len(np.atleast_2d(_bound(fn, a, k, "states")))
        * (len(_bound(fn, a, k, "traj_true")) - 1),
    ),
    "experiments.write_series": (
        "experiments.write_series.bytes",
        lambda fn, a, k: os.path.getsize(_bound(fn, a, k, "path")),
    ),
}


class Tracer:
    """Aggregated spans and counts for one spin dimension ``d``.

    ``d`` decides the eigensolver groups: a stack of matrices is
    ``eigh_batch``, a (d^2 - 1)-square matrix ``eigh_gram``, a d-square one
    ``eigh_small``, and any other shape ``eigh_other``.
    """

    def __init__(self, d: int):
        self.d = d
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_level_s = 0.0
        self._child_s: list[float] = []
        self._restore: list[tuple[dict, str, object]] = []

    def _record(self, name: str, fn, span_name=None):
        """Wrap ``fn`` so each call is a span named ``name``, or ``span_name(args)``."""
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if span_name is None else span_name(args)
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._child_s.pop()
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - child
                if self._child_s:
                    self._child_s[-1] += elapsed
                else:
                    self.top_level_s += elapsed
            if count is not None:
                self.counts[count[0]] += count[1](fn, args, kwargs)
            return result

        return traced

    def _eigh_group(self, args) -> str:
        a = np.asarray(args[0])
        if a.ndim == 3:
            self.counts["linalg.eigh_batch.matrices"] += a.shape[0]
            return "linalg.eigh_batch"
        if a.shape[-1] == self.d * self.d - 1:
            return "linalg.eigh_gram"
        if a.shape[-1] == self.d:
            return "linalg.eigh_small"
        return "linalg.eigh_other"

    def install(self) -> None:
        targets = {}
        for short in MODULES:
            module = sys.modules[f"chaostomo.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    targets[id(fn)] = self._record(f"{short}.{attr}", fn)
        namespaces = [m.__dict__ for n, m in list(sys.modules.items()) if n.split(".")[0] == "chaostomo"]
        for namespace in namespaces:
            for attr, value in list(namespace.items()):
                if id(value) in targets:
                    self._patch(namespace, attr, targets[id(value)])
        for attr in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, attr)
            self._patch(np.linalg.__dict__, attr, self._record(attr, original, self._eigh_group))

    def _patch(self, namespace: dict, attr: str, value) -> None:
        self._restore.append((namespace, attr, namespace[attr]))
        namespace[attr] = value

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            namespace[attr] = original
        self._restore.clear()
