"""In-memory span recorder around the public functions of renyi_rearrange.

The recorder wraps every public function of the traced modules: the names
in each module's ``__all__`` that are plain functions defined in that
module.  The package imports functions by name (``from .convolve import
convolve``), so one function object is bound in several module
namespaces; the recorder rebinds every ``renyi_rearrange`` module
attribute that holds a wrapped function, and puts all of them back when
it is uninstalled.

A span is (name, start, end, parent, tag).  The parent is the index of
the enclosing span, or -1 at the top.  Calls run on one thread, so the
children of a span never overlap, and its self time is its duration
minus the durations of its children.  ``convolve.convolve`` spans carry a
tag naming their output-size bucket, and the recorder counts the
multiply-adds and the distinct input pairs of those calls.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "verifier", "grids", "convolve", "rearrange", "entropy",
          "conjecture", "densities", "balls", "levy", "reports")

# Output-size split of convolve calls.  It is the package's method
# threshold when the benchmark was defined, fixed here so that a change of
# that threshold moves the buckets' self time and never their counts.
CONV_BUCKET_CELLS = 4096

_HASH_SPAN = "perfbench.hash_inputs"


class SpanRecorder:
    """Spans of one pass; install it, run the pass, then read ``summary``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self._stack = [-1]
        self._wrapped: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.macs = 0
        self._conv_inputs: set[bytes] = set()
        self._bucket_ids = (self._name_id("convolve.out_le4k"),
                            self._name_id("convolve.out_gt4k"))
        self._hash_id = self._name_id(_HASH_SPAN)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _record(self, name_id: int, t0: float, t1: float, tag: int = -1) -> None:
        self.spans.append((name_id, t0, t1, self._stack[-1], tag))

    def _convolve_tag(self, args: tuple, kwargs: dict) -> int:
        """Count the work of one convolve call; return its bucket's name id."""
        f = args[0] if len(args) > 0 else kwargs["f"]
        g = args[1] if len(args) > 1 else kwargs["g"]
        n, m = f.values.size, g.values.size
        self.macs += n * m
        t0 = time.perf_counter()
        h = hashlib.blake2b(digest_size=16)
        for grid in (f, g):
            h.update(np.ascontiguousarray(grid.values))
            h.update(np.array([grid.x0, grid.dx, grid.values.size], dtype=np.float64))
        self._conv_inputs.add(h.digest())
        # hashing is the recorder's work: give it a span of its own so that
        # it is not counted in the caller's self time
        self._record(self._hash_id, t0, time.perf_counter())
        return self._bucket_ids[n + m - 1 > CONV_BUCKET_CELLS]

    def _wrap(self, name: str, fn, tagger=None):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger is not None else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, stack[-1], tag)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every package attribute that holds a public function."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"renyi_rearrange.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    tagger = self._convolve_tag if name == "convolve.convolve" else None
                    wrappers[id(fn)] = (fn, self._wrap(name, fn, tagger))
                    self._wrapped.append(name)
        try:
            for modname, mod in list(sys.modules.items()):
                if modname != "renyi_rearrange" and not modname.startswith("renyi_rearrange."):
                    continue
                for attr, val in list(vars(mod).items()):
                    hit = wrappers.get(id(val))
                    if hit is not None and hit[0] is val:
                        setattr(mod, attr, hit[1])
                        self._patched.append((mod, attr, val))
            yield self
        finally:
            for mod, attr, val in reversed(self._patched):
                setattr(mod, attr, val)
            self._patched.clear()

    def summary(self) -> dict[str, float]:
        """Calls and self time per wrapped function and per convolve bucket,
        plus the convolve work counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        keys = self._wrapped + [self.names[i] for i in self._bucket_ids]
        calls = dict.fromkeys(keys, 0)
        self_s = dict.fromkeys(keys, 0.0)
        for i, (name_id, t0, t1, _, tag) in enumerate(spans):
            if name_id == self._hash_id:
                continue
            own = t1 - t0 - child[i]
            for key_id in (name_id, tag) if tag >= 0 else (name_id,):
                key = self.names[key_id]
                calls[key] += 1
                self_s[key] += own
        out: dict[str, float] = {}
        for key in keys:
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
        n_conv = calls["convolve.convolve"]
        out["convolve.macs"] = self.macs
        out["convolve.distinct_share"] = len(self._conv_inputs) / n_conv if n_conv else 0.0
        return out

    def write(self, path: str) -> None:
        """Dump the spans, with times relative to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(t0 - origin, 9), round(t1 - origin, 9), parent, tag]
                for n, t0, t1, parent, tag in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "tag"],
                       "names": self.names, "spans": rows}, fh)
            fh.write("\n")
