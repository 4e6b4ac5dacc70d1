"""Spans around the calls into each odecond layer.

The tracer wraps a public function under every module attribute that holds
it, which is the name its callers look up (``odecond.condition.k_exact``
is what ``sweep`` calls, ``odecond.cli.k_exact`` what the spot check
calls).  Each call records one span: layer name, start, end and
operation id.  Spans stay in memory and become metrics when the run ends.

``<layer>.calls`` counts the calls of operations that exited with 0.  When
a sample raises inside ``sweep``'s pool, the pool cancels the samples not
yet started, and how many had started depends on thread timing; leaving
such operations out keeps every count exact from run to run.  Their spans
still count in ``busy_s`` and appear in the per-operation trace file.

The output layer is the two ``ConditionSeries`` writers, the CLI's JSON
writer and every ``write`` on a file that ``odecond.cli`` opened for
writing (its ``open`` is shadowed in that module only).
"""
from __future__ import annotations

import builtins
import functools
import sys
import time

import numpy as np

#: (layer name, module, attribute) of every traced function
LAYERS = (
    ("cli.main", "odecond.cli", "main"),
    ("condition.sweep", "odecond.condition", "sweep"),
    ("spectral.analyze_spectrum", "odecond.spectral", "analyze_spectrum"),
    ("condition.k_exact", "odecond.condition", "k_exact"),
    ("matrix_core.mat_exp", "odecond.matrix_core", "mat_exp"),
    ("condition.k_asym", "odecond.condition", "k_asym"),
    ("oscillator.g_factor", "odecond.oscillator", "g_factor"),
    ("condition.epsilon_bounds", "odecond.condition", "epsilon_bounds"),
    ("condition.ot_envelope", "odecond.condition", "ot_envelope"),
    ("minimax.h_envelope_sweep", "odecond.minimax", "h_envelope_sweep"),
    ("minimax.trace_branches", "odecond.minimax", "trace_branches"),
)
OUTPUT = "output"
#: layers whose time not covered by other spans is reported as self_s
SELF_TIMED = ("cli.main", "condition.sweep")


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for layer in [name for name, _, _ in LAYERS] + [OUTPUT]:
        names.append((f"{layer}.calls", "count"))
        names.append((f"{layer}.busy_s", "s"))
    names += [(f"{layer}.self_s", "s") for layer in SELF_TIMED]
    names += [("output.bytes", "bytes"), ("matrix_core.mat_exp.bytes", "bytes"),
              ("trace.overhead_s", "s")]
    return names


class _CountingFile:
    """File proxy that records a span and the byte count of each write."""

    def __init__(self, fh, tracer):
        self._fh = fh
        self._tracer = tracer

    def write(self, text):
        t0 = time.perf_counter()
        n = self._fh.write(text)
        self._tracer.record(OUTPUT + ".write", t0, time.perf_counter())
        self._tracer.output_bytes += len(text.encode())
        return n

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    """Installs the wrappers, records spans while ``active`` and turns
    them into per-layer metrics."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.spans = []  # (name id, start, end, op id)
        self.op_id = 0
        self.completed_ops = set()  # ids of operations that exited with 0
        self.active = False
        self.output_bytes = 0
        self.files_written = 0
        self.mat_exp_bytes = {}  # op id -> 8 n^2 summed over its calls
        self._undo = []

    def _id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def record(self, name, t0, t1):
        if self.active:
            self.spans.append((self._id(name), t0, t1, self.op_id))

    def _wrap(self, name, fn, on_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(name, t0, time.perf_counter())
        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def _count_mat_exp(self, args):
        n = np.shape(args[0])[0] if args else 0
        self.mat_exp_bytes[self.op_id] = \
            self.mat_exp_bytes.get(self.op_id, 0) + 8 * n * n

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "odecond" or k.startswith("odecond.")]
        for name, modname, attr in LAYERS:
            fn = getattr(sys.modules[modname], attr)
            hook = self._count_mat_exp if name == "matrix_core.mat_exp" \
                else None
            wrapped = self._wrap(name, fn, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapped)
        condition = sys.modules["odecond.condition"]
        cli = sys.modules["odecond.cli"]
        series = condition.ConditionSeries
        for attr in ("to_csv", "to_json"):
            self._patch(series, attr,
                        self._wrap(OUTPUT, getattr(series, attr)))
        self._patch(cli, "_write_json", self._wrap(OUTPUT, cli._write_json))

        def traced_open(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            if not self.active or "w" not in mode:
                return fh
            self.files_written += 1
            return _CountingFile(fh, self)

        self._patch(cli, "open", traced_open)

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    # ------------------------------------------------------------ metrics

    def _arrays(self):
        arr = np.asarray(self.spans, dtype=float).reshape(-1, 4)
        return arr[:, 0].astype(int), arr[:, 1], arr[:, 2], \
            arr[:, 3].astype(int)

    def _ids_of(self, prefix):
        return [k for k, n in enumerate(self.names)
                if n == prefix or n.startswith(prefix + ".")]

    def metrics(self, overhead_s):
        ids, start, end, ops = self._arrays()
        completed = np.isin(ops, list(self.completed_ops))
        out = {}
        for layer, _, _ in LAYERS:
            sel = np.isin(ids, self._ids_of(layer))
            out[f"{layer}.calls"] = int((sel & completed).sum())
            out[f"{layer}.busy_s"] = float((end[sel] - start[sel]).sum())
        is_out = np.isin(ids, self._ids_of(OUTPUT))
        out[f"{OUTPUT}.calls"] = int(self.files_written)
        out[f"{OUTPUT}.busy_s"] = _union_length(start[is_out], end[is_out])
        for layer in SELF_TIMED:
            out[f"{layer}.self_s"] = _self_time(
                np.isin(ids, self._ids_of(layer)), start, end)
        out["output.bytes"] = int(self.output_bytes)
        out["matrix_core.mat_exp.bytes"] = int(sum(
            b for op, b in self.mat_exp_bytes.items()
            if op in self.completed_ops))
        out["trace.overhead_s"] = float(overhead_s)
        return out

    def per_op_table(self):
        """Calls and busy seconds of each span name in each operation."""
        ids, start, end, ops = self._arrays()
        width = len(self.names)
        key = ops * width + ids
        size = (int(ops.max()) + 1) * width if ops.size else 0
        calls = np.bincount(key, minlength=size)
        busy = np.bincount(key, weights=end - start, minlength=size)
        table = {}
        for k in np.flatnonzero(calls):
            op, name = divmod(int(k), width)
            table.setdefault(op, {})[self.names[name]] = {
                "calls": int(calls[k]), "busy_s": float(busy[k])}
        return table


_MISSING = object()


def _union_length(start, end):
    """Length of the union of the intervals [start_i, end_i]."""
    if start.size == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    s, e = start[order], end[order]
    reach = np.maximum.accumulate(e)
    prev = np.concatenate(([-np.inf], reach[:-1]))
    return float(np.maximum(0.0, e - np.maximum(s, prev)).sum())


def _self_time(is_layer, start, end):
    """Summed duration of the layer's spans minus the part of each that
    other spans (of any thread) cover."""
    parents = np.flatnonzero(is_layer)
    others = ~is_layer
    total = 0.0
    for k in parents:
        inside = others & (start >= start[k]) & (end <= end[k])
        total += (end[k] - start[k]) - _union_length(start[inside], end[inside])
    return float(total)
