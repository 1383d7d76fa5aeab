"""Span recorder that wraps opcalc's public functions from outside the package.

While installed, every public module-level function of the layer modules
(and ``TorusModel`` construction) is replaced, in every loaded ``opcalc``
module that bound it by name, with a wrapper that records one span per call:
``(span id, name, start, end, parent span id, job id)``.  Spans stay in
memory; :meth:`Recorder.remove` puts every original object back.

Self time of a span is its duration minus the part of it covered by its
child spans, so a layer's self time excludes the layers it called.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# The repo's layers, by module.  ``acceptance`` is wrapped only for
# ``digest_of``, which the CLI uses to digest reports; it counts as jsonio.
LAYER_MODULES = (
    "grassmann",
    "linalg",
    "phi_core",
    "clifford",
    "jlo",
    "stochastic_mc.model",
    "stochastic_mc.bridge",
    "stochastic_mc.engine",
    "stochastic_mc.levy",
    "stochastic_mc.localize",
    "cli",
    "jsonio",
)
EXTRA_TARGETS = (("acceptance", "digest_of"),)
PACKAGE = "opcalc"


class Recorder:
    """Installable span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []  # (owner, attribute, original)
        self._observers = {}

    # -- counts taken at the same boundaries as the spans -------------------

    def observe(self, name: str, fn):
        """Call ``fn(counts, *args, **kwargs)`` after each call of ``name``."""
        self._observers[name] = fn

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target in every loaded module of ``opcalc``."""
        if self._patched:
            raise RuntimeError("recorder already installed")
        targets = {}
        for modname in LAYER_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    targets[id(obj)] = (obj, f"{modname}.{attr}")
        for modname, attr in EXTRA_TARGETS:
            obj = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), attr)
            targets[id(obj)] = (obj, f"{modname}.{attr}")

        wrappers = {key: self._wrap(obj, name) for key, (obj, name) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

        model = importlib.import_module(f"{PACKAGE}.stochastic_mc.model")
        init = model.TorusModel.__init__
        self._patched.append((model.TorusModel, "__init__", init))
        model.TorusModel.__init__ = self._wrap(init, "stochastic_mc.model.TorusModel")

    def remove(self):
        """Restore every patched attribute to the original object."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    @property
    def patched(self) -> tuple:
        return tuple(self._patched)

    def _wrap(self, fn, name: str):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, recorder.job))
                observer = recorder._observers.get(name)
                if observer is not None:
                    observer(recorder.counts, *args, **kwargs)

        return wrapper

    # -- output --------------------------------------------------------------

    def write(self, path: str):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, job]) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Map span id to its self time: duration minus child coverage."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _job in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _name, start, end, _parent, _job in spans
    }


def summarize(spans) -> dict:
    """Per-name call count, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _parent, _job in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += selfs[sid]
    return dict(out)
