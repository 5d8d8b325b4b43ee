"""Span tracer for the benchmark's traced run.

`Tracer.install` replaces every public function of each framekit layer
with a timing wrapper, in every framekit module that holds the function by
name, so calls between layers are timed as well as calls from the
benchmark.  Each call records a span (name, start, end, parent) in memory;
`export` hands the spans out for writing when the run ends, and
`uninstall` restores the original functions.  A span's self time is its
duration less the time covered by its child spans.

Direct calls from framekit code to the dense eigensolvers
(`numpy.linalg.eigh`, `eigvalsh`, `svd` and `scipy.linalg.schur`) are
counted, not spanned: they run tens of thousands of times per second.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np
import scipy.linalg

from framekit.errors import HypothesisFailed

LAYERS = ("numerics", "frame_core", "kfusion", "theorems", "instances",
          "serialize", "cli")
EIGENSOLVERS = ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                (np.linalg, "svd"), (scipy.linalg, "schur"))
BOUND = "numerics.max_psd_scale"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.tag = "untagged"  # theorem id of the operation in flight
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._depth = 0          # open framekit spans
        self._bound_depth = 0    # open max_psd_scale spans
        self.eigensolves = 0
        self.bound_eigensolves = 0
        self.rejections = 0

    def open(self, name: str) -> int:
        idx = len(self.start)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self
        checker = name.startswith("theorems.")
        bound = name == BOUND

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # checkers are named by the theorem they serve, not the function
            idx = tracer.open("theorems." + tracer.tag if checker else name)
            tracer._depth += 1
            tracer._bound_depth += bound
            try:
                return fn(*args, **kwargs)
            except HypothesisFailed:
                tracer.rejections += checker
                raise
            finally:
                tracer._bound_depth -= bound
                tracer._depth -= 1
                tracer.close(idx)

        return traced

    def _count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._depth:
                tracer.eigensolves += 1
                tracer.bound_eigensolves += tracer._bound_depth > 0
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"framekit.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "framekit" and not mod_name.startswith("framekit."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for owner, attr in EIGENSOLVERS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._count(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def stats(self) -> dict:
        """Calls, inclusive seconds and self seconds per span name, plus
        self seconds per layer and the counters."""
        n_names = len(self.names)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        calls = np.bincount(names, minlength=n_names)
        total = np.bincount(names, weights=dur, minlength=n_names)
        own = np.bincount(names, weights=dur - covered, minlength=n_names)
        layer_self: dict[str, float] = {}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + float(own[i])
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "total_s": {name: float(total[i]) for i, name in enumerate(self.names)},
            "layer_self_s": layer_self,
            "root_s": float(dur[~nested].sum()),
            "eigensolves": self.eigensolves,
            "bound_eigensolves": self.bound_eigensolves,
            "rejections": self.rejections,
        }

    def export(self) -> dict:
        """Spans as columns: name index, parent span index (-1 for none),
        start and end in seconds from the first span's start."""
        start = np.frombuffer(self.start, dtype=float)
        origin = float(start[0]) if start.size else 0.0
        return {
            "names": np.array(self.names),
            "name": np.array(self.name_id),
            "parent": np.array(self.parent),
            "start": start - origin,
            "end": np.frombuffer(self.end, dtype=float) - origin,
        }


def save(path, **sections: dict) -> None:
    """Write exported spans to one .npz file, keys `<section>.<column>`."""
    np.savez_compressed(path, **{f"{section}.{column}": values
                                 for section, spans in sections.items()
                                 for column, values in spans.items()})
