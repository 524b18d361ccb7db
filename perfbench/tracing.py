"""Span tracing of rieszcone's layers from outside the package.

``Tracer.install`` replaces the public functions of ``gindikin``, ``algebra``,
``sampling``, ``verify`` and ``cli`` with recording wrappers, at every name a
module of the package uses to look them up (``cli.sample_riesz``,
``verify.u_from_s``, ``algebra.spectral``, ...), plus ``RieszSpec.build``.
Each call records one span (id, name, parent span, operation id, start, end)
in memory; ``Tracer.remove`` puts the original functions back.

Left unwrapped, with their time counted in the caller's self time:

* ``sampling.sample_stream`` and ``sampling.sample_gamma`` run once per draw
  and once per gamma variate; a span for each would cost more than the work
  it measures and would swamp ``sample_riesz``.
* ``cli.cmd_*`` and ``cli.entrypoint`` are the CLI's own dispatch, so that
  ``cli.main``'s self time covers argument parsing, the csv writer and file
  I/O.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import statistics
import threading
import time

LAYERS = ("gindikin", "algebra", "sampling", "verify", "cli")
SKIP = {
    "sampling": {"sample_stream", "sample_gamma"},
    "cli": {"entrypoint", "cmd_check", "cmd_sample", "cmd_verify",
            "cmd_density", "cmd_selftest"},
}
CPU_SPANS = {"sampling.sample_riesz"}
OP_SPAN = "bench.op"


class Tracer:
    """Records spans and counts at the layer boundaries of one process."""

    def __init__(self):
        # span: (id, name, parent id or -1, op id, start, end, cpu start, cpu end)
        self.spans = []
        self.counts = []  # (op id, key, amount)
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, cpu=False, on_result=None):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            sid = next(tracer._ids)
            stack.append(sid)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time() if cpu else 0.0
                stack.pop()
                tracer.spans.append((sid, name, parent, tracer.op, t0, t1, c0, c1))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, key, amount=1):
        self.counts.append((self.op, key, amount))

    # -- patching ----------------------------------------------------------

    def install(self, package):
        """Wrap the layers' public functions wherever the package names them."""
        modules = [getattr(package, name) for name in LAYERS]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or attr in SKIP.get(short, ())):
                    continue
                name = f"{short}.{attr}"
                on_result = None
                if name == "sampling.sample_riesz":
                    on_result = lambda batch: self.count("sampling.draws", len(batch))
                wrappers[id(fn)] = self.span(name, fn, cpu=name in CPU_SPANS,
                                             on_result=on_result)
        for owner in [package] + modules:
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
        spec_cls = package.sampling.RieszSpec
        build = vars(spec_cls)["build"]
        self._patches.append((spec_cls, "build", build))
        spec_cls.build = classmethod(self.span("sampling.spec_build", build.__func__))

    def remove(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """{span id: self time}: duration minus the time its children cover."""
        children = {}
        for span in self.spans:
            children.setdefault(span[2], []).append(span)
        out = {}
        for sid, _, _, _, t0, t1, _, _ in self.spans:
            covered, edge = 0.0, t0
            for child in sorted(children.get(sid, ()), key=lambda c: c[4]):
                lo, hi = max(child[4], edge), min(child[5], t1)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[sid] = (t1 - t0) - covered
        return out

    def per_op(self, ops):
        """Per traced op: self time and call count by span name, and counts."""
        selfs = self.self_times()
        table = {op: {"self": {}, "calls": {}, "counts": {}} for op in ops}
        for sid, name, _, op, *_ in self.spans:
            if op not in table:
                continue
            row = table[op]
            row["self"][name] = row["self"].get(name, 0.0) + selfs[sid]
            row["calls"][name] = row["calls"].get(name, 0) + 1
        for op, key, amount in self.counts:
            if op in table:
                row = table[op]["counts"]
                row[key] = row.get(key, 0) + amount
        return table

    def cpu_ratio(self, name):
        """Process CPU time over wall time, summed over the spans ``name``."""
        wall = cpu = 0.0
        for _, sname, _, _, t0, t1, c0, c1 in self.spans:
            if sname == name:
                wall += t1 - t0
                cpu += c1 - c0
        return cpu / wall if wall > 0 else 0.0

    def write(self, path):
        """Spans as gzipped JSON lines: [id, name, parent, op, start, end]."""
        base = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            for sid, name, parent, op, t0, t1, _, _ in self.spans:
                fh.write(json.dumps([sid, name, parent, op,
                                     round(t0 - base, 9), round(t1 - base, 9)]))
                fh.write("\n")


def median_over(table, pick):
    """Median over traced ops of ``pick(row)`` (0 when nothing was traced)."""
    values = [pick(row) for row in table.values()]
    return statistics.median(values) if values else 0.0
