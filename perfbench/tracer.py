"""Outside-in tracer for the wprelay package.

The tracer replaces a package function at every module that holds it by
name (the defining module and each module that imported it), so a call is
traced at whichever name the caller looks up. Each call becomes a span
(name, start, end, parent). Spans live in flat arrays while the traced
code runs and are written out once, at the end of the run. Leaving the
`installed` block puts every replaced attribute back.

Spans recorded inside pool worker processes stay in those processes; in
the parent, the span of the call that waited on the pool covers them.
"""
from __future__ import annotations

import math
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

import numpy as np


class Tracer:
    """Span and counter store plus the patching that feeds it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.records: list[dict] = []  # free-form per-call records made by hooks
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """Return fn wrapped in a span called name.

        before(args, kwargs) may return replacement (args, kwargs), for
        example to count the evaluations of a callable argument.
        after(args, kwargs, result, span_index) sees each successful call.
        """
        nid = self._name_id(name)
        clock, start, end = self.clock, self.start, self.end
        ids, parents, open_, counts = self.name_id, self.parent, self._open, self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(ids)
            ids.append(nid)
            parents.append(open_[-1] if open_ else -1)
            end.append(math.nan)
            open_.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                end[idx] = clock()
                open_.pop()
            if after is not None:
                after(args, kwargs, result, idx)
            return result

        return traced

    def patch(self, package: str, module: str, attr: str, replacement) -> int:
        """Replace module.attr by replacement at every module of package
        that holds the same object; returns how many bindings changed."""
        original = getattr(sys.modules[f"{package}.{module}"], attr)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            if vars(mod).get(attr) is original:
                setattr(mod, attr, replacement)
                self._patches.append((mod, attr, original))
                hits += 1
        return hits

    def patch_function(self, package: str, module: str, attr: str,
                       before=None, after=None) -> int:
        """Trace package.module.attr under the span name 'module.attr'."""
        original = getattr(sys.modules[f"{package}.{module}"], attr)
        wrapped = self.wrap(original, f"{module}.{attr}", before, after)
        return self.patch(package, module, attr, wrapped)

    def restore(self) -> None:
        """Put back every replaced attribute, newest first."""
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    @contextmanager
    def installed(self, install):
        """Run install(self) on entry and restore every patch on exit."""
        try:
            install(self)
            yield self
        finally:
            self.restore()

    def counting(self, fn, key: str):
        """fn with each call counted under key (no span)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- analysis ---------------------------------------------------------

    def _arrays(self):
        n = len(self.name_id)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        ids = np.frombuffer(self.name_id, dtype=np.intc, count=n)
        parent = np.frombuffer(self.parent, dtype=np.intc, count=n)
        return start, end, ids, parent

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its child spans."""
        start, end, _, parent = self._arrays()
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return dur - child

    def by_name(self) -> dict[str, dict[str, float]]:
        """calls, total (summed span duration) and self seconds per name."""
        start, end, ids, _ = self._arrays()
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=end - start, minlength=k)
        own = np.bincount(ids, weights=self.self_times(), minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no parent."""
        start, end, _, parent = self._arrays()
        return float(np.sum((end - start)[parent < 0]))

    def write(self, path: Path) -> None:
        """Write every span to an .npz file (start/end relative to the first span)."""
        start, end, ids, parent = self._arrays()
        t0 = start[0] if start.size else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=str), start=start - t0,
                 end=end - t0, name_id=ids, parent=parent)
