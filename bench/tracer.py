"""Span tracing of the calls into mpfc's public functions, from outside the package.

``Tracer.installed`` rebinds, for the duration of a ``with`` block, every name
in every loaded ``mpfc`` module that refers to a traced function, so a call
made through ``g.laplacian_raw`` inside ``dynamics`` or through the
``measure_sample`` that ``run`` imported is recorded like a direct call.  The
package's files are not touched; on exit every name is bound back.

A span is (id, parent id, name, start ns, end ns).  Spans are kept in memory
and written out by ``dump``; ``layer_totals`` folds them into per-function
totals and self times (a span's duration minus its child spans' durations).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from contextlib import contextmanager


def _path_arg(index: int, key: str):
    def size(args, kwargs):
        return os.path.getsize(kwargs[key] if key in kwargs else args[index])

    return size


# Traced functions as (module, function).  ``BYTE_COUNTERS`` adds the size of
# the file a call wrote or read to the function's ``bytes`` total.
TRACED = (
    ("grid", "laplacian_raw"),
    ("grid", "helmholtz_solve_raw"),
    ("grid", "grad_dot_raw"),
    ("grid", "gradient_raw"),
    ("dynamics", "flow"),
    ("dynamics", "dissipation_rate"),
    ("dynamics", "advance"),
    ("dynamics", "project_constraint"),
    ("diagnostics", "measure_sample"),
    ("analysis", "mu_of_phi"),
    ("analysis", "brakke_rhs_integrand"),
    ("analysis", "brakke_residual"),
    ("analysis", "monotonicity_check"),
    ("analysis", "kernel_field"),
    ("snapshots", "write_snapshot"),
    ("snapshots", "read_snapshot"),
    ("snapshots", "emit_timeseries"),
    ("scenarios", "build_scenario"),
    ("run", "run_simulation"),
)
BYTE_COUNTERS = {
    "snapshots.write_snapshot": _path_arg(2, "path"),
    "snapshots.read_snapshot": _path_arg(0, "path"),
}


class Tracer:
    """Records one span per call of each function it is installed on."""

    def __init__(self, targets=TRACED):
        self.targets = tuple(targets)
        self.spans: list = []
        self.bytes: dict[str, int] = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        sizer = BYTE_COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
                if sizer is not None:
                    self.bytes[name] = self.bytes.get(name, 0) + sizer(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        rebound = []
        try:
            for module_name, func_name in self.targets:
                original = getattr(importlib.import_module(f"mpfc.{module_name}"), func_name)
                wrapper = self._wrap(f"{module_name}.{func_name}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "mpfc" or mod_name.startswith("mpfc.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            rebound.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(rebound):
                setattr(mod, attr, original)

    def first(self, name: str):
        """(start ns, end ns) of the first finished span of ``name``, or None."""
        for span in self.spans:
            if span is not None and span[2] == name:
                return span[3], span[4]
        return None

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total ms (outermost spans only), self ms, bytes."""
        done = [s for s in self.spans if s is not None]
        names = {s[0]: s[2] for s in done}
        parents = {s[0]: s[1] for s in done}
        child_ns: dict[int, int] = {}
        for sid, parent, _, start, end in done:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        out: dict[str, dict[str, float]] = {}
        for sid, parent, name, start, end in done:
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += (end - start - child_ns.get(sid, 0)) / 1e6
            ancestor = parent
            while ancestor >= 0 and names[ancestor] != name:
                ancestor = parents[ancestor]
            if ancestor < 0:
                row["ms"] += (end - start) / 1e6
        for name, nbytes in self.bytes.items():
            out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})["bytes"] = nbytes
        return out

    def dump(self, path: str | os.PathLike, meta: dict) -> None:
        names = sorted({s[2] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], s[1], index[s[2]], s[3], s[4]] for s in self.spans if s is not None]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"meta": meta, "names": names,
                       "columns": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": rows}, fh, separators=(",", ":"))
