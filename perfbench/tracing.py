"""The traced run's instruments, applied from outside the program.

Two sources, both switched on only for the traced run's fixed work:

* cProfile self time, summed by ``repro`` package (``host.<package>_s``)
  and by the numpy/scipy primitives the kernels lower to;
* wall-time spans around public calls (loader batches, model calls,
  ``Tensor.backward``, ``Adam.step`` and the serving model's collate and
  forward), wrapped in place for the duration of the traced work.

Spans of one name do not nest: a model call inside another (a submodule,
or the model inside ``InferenceModel.forward``) counts once, at the
outermost call.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import re
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict

#: ``repro`` packages whose self time the traced run reports.
PACKAGES = (
    "tensor", "device", "pygx", "dglx", "nn", "optim", "train", "compile",
    "serve", "fleet", "datasets",
)

#: cProfile names of the primitives reported as ``<metric>_s`` / ``_calls``.
#: cProfile sees every ufunc's ``.at`` as one builtin, so ``numpy.add_at``
#: also holds the ``np.maximum.at`` of max-scatter (reduceat likewise).
PRIMITIVES = {
    "numpy.add_at": "<method 'at' of 'numpy.ufunc' objects>",
    "numpy.reduceat": "<method 'reduceat' of 'numpy.ufunc' objects>",
    "numpy.astype": "<method 'astype' of 'numpy.ndarray' objects>",
    "scipy.csr_matvecs": "csr_matvecs",
}

SPANS = ("collate", "forward", "backward", "optim_step")

_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


def self_times(stats: pstats.Stats) -> Dict[str, float]:
    """Per-layer self time and primitive counts from a cProfile run."""
    out = {f"host.{p}_s": 0.0 for p in PACKAGES}
    for name in PRIMITIVES:
        out[f"{name}_s"] = 0.0
        out[f"{name}_calls"] = 0.0
    for (filename, _, func), (_, ncalls, tottime, _, _) in stats.stats.items():
        match = _PACKAGE.search(filename)
        if match and match.group(1) in PACKAGES:
            out[f"host.{match.group(1)}_s"] += tottime
            continue
        for name, builtin in PRIMITIVES.items():
            if builtin in func:
                out[f"{name}_s"] += tottime
                out[f"{name}_calls"] += ncalls
    return out


class Spans:
    """Wall time and call counts of wrapped public calls."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._depth: Dict[str, int] = defaultdict(int)

    def _timed(self, name: str, fn):
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if spans._depth[name]:
                return fn(*args, **kwargs)
            spans._depth[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.total[name] += time.perf_counter() - start
                spans.calls[name] += 1
                spans._depth[name] -= 1

        return wrapper

    def _timed_iter(self, name: str, iter_fn):
        spans = self

        @functools.wraps(iter_fn)
        def wrapper(loader):
            inner = iter_fn(loader)
            while True:
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                spans.total[name] += time.perf_counter() - start
                spans.calls[name] += 1
                yield item

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the public calls for the duration of the block."""
        from repro.dglx import GraphDataLoader
        from repro.nn import Module
        from repro.optim import Adam
        from repro.pygx import DataLoader
        from repro.serve import InferenceModel
        from repro.tensor import Tensor

        targets = [
            (DataLoader, "__iter__", "collate", self._timed_iter),
            (GraphDataLoader, "__iter__", "collate", self._timed_iter),
            (InferenceModel, "collate", "collate", self._timed),
            (Module, "__call__", "forward", self._timed),
            (InferenceModel, "forward", "forward", self._timed),
            (Tensor, "backward", "backward", self._timed),
            (Adam, "step", "optim_step", self._timed),
        ]
        # Patch the class that defines each method (Adam.step is Optimizer.step).
        targets = [
            (next(c for c in cls.__mro__ if attr in c.__dict__), attr, name, wrap)
            for cls, attr, name, wrap in targets
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, wrap in targets:
                setattr(owner, attr, wrap(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def metrics(self) -> Dict[str, float]:
        """Mean milliseconds per call of each span (0 when never called)."""
        return {
            f"span.{name}_ms": (1e3 * self.total[name] / self.calls[name]) if self.calls[name] else 0.0
            for name in SPANS
        }


class Tracer:
    """cProfile plus spans, switched on and off around units of work."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.spans = Spans()

    @contextmanager
    def tracing(self):
        with self.spans.installed():
            self.profile.enable()
            try:
                yield
            finally:
                self.profile.disable()

    def metrics(self) -> Dict[str, float]:
        out = self_times(pstats.Stats(self.profile))
        out.update(self.spans.metrics())
        return out
