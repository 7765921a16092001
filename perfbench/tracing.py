"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of the affinv modules, at
every module attribute that binds it (so re-imported names such as
`invariants.eigen_loxodromic` and `spectra.eval_affine` are covered too),
with a wrapper that records a span: name, start, end, parent span and the
exception class if the call raised.  Generator functions get one span per
resumption, so lazy work is charged to the caller that drives it.
`mpmath.workdps` is wrapped to count precision passes and the largest
precision asked for.  Spans stay in memory until `write()`.

A layer's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import gzip
import inspect
import time
from collections import defaultdict

import mpmath

import affinv

MODULES = ("numkernel", "freegroup", "cartan", "invariants", "fuchsian",
           "spectra", "cli")
ROOT = "bench.op"


def public_functions():
    """{original function: span name} for every public function defined in
    the affinv modules."""
    out = {}
    for module_name in MODULES:
        module = getattr(affinv, module_name)
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and not name.startswith("_") \
                    and obj.__module__ == module.__name__:
                out[obj] = f"{module_name}.{name}"
    return out


class Tracer:
    def __init__(self):
        # One list per span: [name, start, end, parent index, exception name].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.workdps_calls = 0
        self.workdps_max = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        return index

    def _close(self, index: int, exc: BaseException | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if exc is not None:
            span[4] = type(exc).__name__
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(index, exc)
            raise
        self._close(index)
        return result

    def _wrap(self, fn, name: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(iterator)
                    except StopIteration as exc:
                        # recorded so that resumptions that yielded can be counted
                        tracer._close(index, exc)
                        return
                    except BaseException as exc:
                        tracer._close(index, exc)
                        raise
                    tracer._close(index)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _workdps(self, original):
        def wrapper(n, *args, **kwargs):
            self.workdps_calls += 1
            self.workdps_max = max(self.workdps_max, int(n))
            return original(n, *args, **kwargs)
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        names = public_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        for module_name in MODULES:
            module = getattr(affinv, module_name)
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        self._patched.append((mpmath, "workdps", mpmath.workdps))
        mpmath.workdps = self._workdps(mpmath.workdps)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def layer_totals(self, start: int = 0, stop: int | None = None) -> dict:
        """{name: {"calls", "self_s", "raised": {exception: count}}} over the
        spans in [start, stop)."""
        spans = self.spans[start:stop]
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= start:
                child_time[parent - start] += t1 - t0
        totals: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                            "raised": defaultdict(int)})
        for i, (name, t0, t1, _, exc) in enumerate(spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0) - child_time[i]
            if exc is not None:
                entry["raised"][exc] += 1
        return totals

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id,name,start_s,end_s,parent,raised\n")
            for i, (name, t0, t1, parent, exc) in enumerate(self.spans):
                handle.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{exc or ''}\n")
