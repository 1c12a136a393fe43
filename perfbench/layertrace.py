"""Per-layer trace of one ``wpolys`` command, taken from outside ``src/``.

    PYTHONPATH=src python3 perfbench/layertrace.py OUT.json verify ID ...

imports the library, wraps the public boundaries listed in BOUNDARIES and
every ``STATEMENTS`` runner, runs the command through ``wpolys.cli.main`` so
that the report reaches stdout exactly as the CLI writes it, restores every
wrapped attribute, and writes the spans and their per-layer totals to
OUT.json.  The exit code is the command's own.

Spans are kept in memory while the command runs, one list per thread, and
are written out and reduced only at the end.  Each thread has its own span
stack; inside a grid the cell span is the root.  A span's self time is its
duration minus the time its direct child spans cover, tracer bookkeeping
included, so the tracer's own cost is charged to no layer.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import sys
import threading
import time


def _ql_shape(args, out):
    if out.is_zero():
        return (0, 0)
    return (out.max_q_exp() - out.min_q_exp() + 1, out.x_degree())


def _ql_qspan(args, out):
    return (0 if out.is_zero() else out.max_q_exp() - out.min_q_exp() + 1,)


def _fold_ratio(args, out):
    value, order = args[0], args[2]
    if value.is_zero():
        return (0.0,)
    return ((value.max_q_exp() - value.min_q_exp() + 1) / order,)


def _text_bytes(args, out):
    return (len(out.encode()),)


# layer -> (module, class or None, attribute names, probe, probe metrics)
# A probe maps (call arguments, result) to one number per probe metric, a
# (name, unit) pair; the metric reports the mean over calls.
BOUNDARIES = {
    "polyring.ql_mul": ("polyring", "QLaurent", ("__mul__",), _ql_shape,
                        (("out_qspan_mean", "terms"),
                         ("out_xdeg_mean", "degree"))),
    "polyring.qint_window": ("polyring", "QLaurent", ("mul_qint_power",),
                             _ql_qspan, (("out_qspan_mean", "terms"),)),
    "polyring.rem_cyclic": ("polyring", "QLaurent", ("rem_monic_cyclic",),
                            _fold_ratio, (("fold_ratio", "ratio"),)),
    "polyring.ql_add": ("polyring", "QLaurent", ("__add__",), None, ()),
    "polyring.qpoly_mul": ("polyring", "QPoly", ("__mul__",), None, ()),
    "polyring.qpoly_divexact": ("polyring", "QPoly", ("divexact",), None, ()),
    "polyring.xpoly_mul": ("polyring", "XPoly", ("__mul__",), None, ()),
    "polyring.xpoly_divexact": ("polyring", "XPoly", ("divexact",), None, ()),
    "polyring.ql_str": ("polyring", "QLaurent", ("__str__",), _text_bytes,
                        (("bytes", "bytes"),)),
    "qobjects.q_binomial_poly": ("qobjects", None, ("q_binomial_poly",),
                                 None, ()),
    "qobjects.cyclotomic": ("qobjects", None, ("cyclotomic",), None, ()),
    "qobjects.q_lucas_check": ("qobjects", None, ("q_lucas_check",), None, ()),
    "wpoly.q_w_poly": ("wpoly", None, ("q_w_poly",), None, ()),
    "wpoly.b_poly": ("wpoly", None, ("b_poly",), None, ()),
    "wpoly.lemma_check": ("wpoly", None, ("lemma_congruence_check",), None,
                          ()),
    "wpoly.w_alpha_poly": ("wpoly", None, ("w_alpha_poly",), None, ()),
    "intcomb.w_number": ("intcomb", None, ("w_number",), None, ()),
    "congruence.build": ("congruence", None,
                         ("qsum_plain", "qsum_alternating", "qsum_product",
                          "qsum_general"), None, ()),
    "congruence.decide": ("congruence", None,
                          ("verify_divisible_by_qn",
                           "verify_cyclotomic_product"), None, ()),
    "cli.emit": ("cli", None, ("emit_report",), None, ()),
}

# layer -> memo tables (module, attribute) whose cache_info() deltas give
# the layer's hit ratio
CACHES = {
    "qobjects.q_binomial_poly": (("qobjects", "_qbinom_poly"),),
    "wpoly.q_w_poly": (("wpoly", "q_w_poly"),),
    "wpoly.b_poly": (("wpoly", "b_poly"),),
    "wpoly.w_alpha_poly": (("wpoly", "w_alpha_poly"),),
    "intcomb.w_number": (("intcomb", "w_number"),),
    "congruence.memo": tuple(("congruence", name) for name in (
        "_w_power", "_w_power_q2", "_w_run", "_wx_power", "_wx_run")),
}

CELL = "congruence.cell"
_NO_CALLS = {"cli.emit"}


def _metric_list():
    # Self time is a share of trace.span_s, the summed self time of every
    # span.  A layer that a workload never calls then reads 0 as a ratio, not
    # as a time, and the shares hardly move with the machine's speed.
    out = []
    for layer, (_, _, _, _, probed) in BOUNDARIES.items():
        if layer not in _NO_CALLS:
            out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_share", "ratio", "lower"))
        for name, unit in probed:
            out.append((f"{layer}.{name}", unit, "lower"))
        if layer in CACHES:
            out.append((f"{layer}.hit_ratio", "ratio", "higher"))
    out += [
        ("congruence.memo.hit_ratio", "ratio", "higher"),
        ("congruence.memo.dup_misses", "count", "lower"),
        (f"{CELL}.calls", "count", "lower"),
        (f"{CELL}.wall_s", "s", "lower"),
        (f"{CELL}.wait_s", "s", "lower"),
        (f"{CELL}.p50_ms", "ms", "lower"),
        (f"{CELL}.p90_ms", "ms", "lower"),
        ("cli.emit.report_bytes", "bytes", "lower"),
        ("trace.span_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


# (name, unit, better) of every per-layer metric, in report order
METRICS = _metric_list()


class Tracer:
    """Wraps the library's public boundaries; ``restore`` undoes them."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []      # one span list per thread that recorded spans
        self._patches = []      # (owner, attribute, original)
        self._statements = {}   # statement id -> original table entry
        self._tables = {}       # layer -> its memo tables (CACHES)
        self._cache_start = {}

    def install(self):
        if self._patches or self._statements:
            raise RuntimeError("tracer already installed")
        self._tables = {layer: [getattr(_module(mod), attr)
                                for mod, attr in tables]
                        for layer, tables in CACHES.items()}
        self._cache_start = self._cache_counts()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "wpolys" or name.startswith("wpolys.")]
        for layer, (mod, cls, names, probe, _) in BOUNDARIES.items():
            owner = _module(mod)
            if cls is not None:
                owner = getattr(owner, cls)
            for name in names:
                original = owner.__dict__[name]
                traced = self._wrap(layer, original, probe)
                if cls is not None:
                    # aliases such as __rmul__ = __mul__ share the function
                    targets = [owner]
                else:
                    targets = modules
                for target in targets:
                    for attr, value in list(vars(target).items()):
                        if value is original:
                            self._patches.append((target, attr, original))
                            setattr(target, attr, traced)
        statements = _module("congruence").STATEMENTS
        for sid, entry in statements.items():
            self._statements[sid] = entry
            statements[sid] = dataclasses.replace(
                entry, runner=self._wrap_cell(entry.runner))

    def restore(self):
        """Put back every original attribute, newest patch first."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        statements = _module("congruence").STATEMENTS
        for sid, entry in self._statements.items():
            statements[sid] = entry
        left = [attr for target, attr, original in self._patches
                if vars(target)[attr] is not original]
        left += [sid for sid, entry in self._statements.items()
                 if statements[sid] is not entry]
        if left:
            raise RuntimeError(f"tracer wrappers left behind: {left}")
        self._patches = []
        self._statements = {}

    def spans(self):
        """Every span as [layer, parent index, start ns, end ns]."""
        return [[[layer, parent, start, end]
                 for layer, parent, _, start, end, _, _ in spans]
                for spans in self._threads]

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])   # (stack, spans)
            with self._lock:
                self._threads.append(state[1])
        return state

    def _wrap(self, layer, fn, probe):
        clock = time.perf_counter_ns
        state = self._state

        def traced(*args, **kwargs):
            # span: [layer, parent, enter, start, end, leave, probe values]
            enter = clock()
            stack, spans = state()
            span = [layer, stack[-1] if stack else -1, enter, 0, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = span[5] = clock()
                stack.pop()
            if probe is not None:
                span[6] = probe(args, out)
                span[5] = clock()
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_cell(self, runner):
        clock = time.perf_counter_ns
        cpu = time.thread_time_ns
        state = self._state

        def traced_cell(params, fault):
            enter = clock()
            stack, spans = state()
            span = [CELL, stack[-1] if stack else -1, enter, 0, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            cpu0 = cpu()
            span[3] = clock()
            try:
                return runner(params, fault)
            finally:
                span[4] = clock()
                span[6] = (cpu() - cpu0,)
                stack.pop()
                span[5] = clock()

        traced_cell.__wrapped__ = runner
        return traced_cell

    def _cache_counts(self):
        # layer -> [hits, misses, currsize], summed over the layer's tables
        out = {}
        for layer, tables in self._tables.items():
            infos = [table.cache_info() for table in tables]
            out[layer] = [sum(i.hits for i in infos),
                          sum(i.misses for i in infos),
                          sum(i.currsize for i in infos)]
        return out

    def totals(self):
        """Additive per-layer totals of every span recorded so far."""
        layers = {}
        cells = []
        for spans in self._threads:
            covered = [0] * len(spans)
            for layer, parent, enter, _, _, leave, _ in spans:
                if parent >= 0:
                    covered[parent] += leave - enter
            for i, (layer, _, _, start, end, _, probed) in enumerate(spans):
                entry = layers.setdefault(layer, _zero(layer))
                entry["calls"] += 1
                entry["self_ns"] += end - start - covered[i]
                if probed is not None:
                    entry["probe"] = [a + b
                                      for a, b in zip(entry["probe"], probed)]
                if layer == CELL:
                    cells.append([end - start, probed[0]])
        caches = {}
        now = self._cache_counts()
        for layer, start in self._cache_start.items():
            caches[layer] = [b - a for a, b in zip(start, now[layer])]
        return {"layers": layers, "cells": cells, "caches": caches}


def _module(name):
    return importlib.import_module(f"wpolys.{name}")


def _zero(layer):
    # the cell span's one probe value is its thread CPU time
    probed = BOUNDARIES[layer][4] if layer in BOUNDARIES else ("cpu",)
    return {"calls": 0, "self_ns": 0, "probe": [0] * len(probed)}


def merge(totals_list):
    """Sum the totals of several traced commands."""
    merged = {"layers": {}, "cells": [], "caches": {}}
    for totals in totals_list:
        for layer, entry in totals["layers"].items():
            into = merged["layers"].setdefault(layer, _zero(layer))
            into["calls"] += entry["calls"]
            into["self_ns"] += entry["self_ns"]
            into["probe"] = [a + b for a, b in zip(into["probe"],
                                                   entry["probe"])]
        merged["cells"].extend(totals["cells"])
        for layer, counts in totals["caches"].items():
            into = merged["caches"].get(layer, [0, 0, 0])
            merged["caches"][layer] = [a + b for a, b in zip(into, counts)]
    return merged


def _percentile(values, share):
    # nearest-rank percentile; 0 for an empty sample
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def layer_metrics(merged, report_bytes, overhead_ratio):
    """Every metric of METRICS from merged totals."""
    layers = merged["layers"]
    span_ns = sum(entry["self_ns"] for entry in layers.values())
    values = {"trace.span_s": span_ns / 1e9}
    for layer, (_, _, _, _, probed) in BOUNDARIES.items():
        entry = layers.get(layer, _zero(layer))
        calls = entry["calls"]
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_share"] = (entry["self_ns"] / span_ns
                                         if span_ns else 0.0)
        for (name, _), total in zip(probed, entry["probe"]):
            values[f"{layer}.{name}"] = total / calls if calls else 0.0
    for layer, (hits, misses, currsize) in merged["caches"].items():
        lookups = hits + misses
        values[f"{layer}.hit_ratio"] = hits / lookups if lookups else 0.0
        if layer == "congruence.memo":
            values["congruence.memo.dup_misses"] = misses - currsize
    walls = [wall / 1e6 for wall, _ in merged["cells"]]
    values[f"{CELL}.calls"] = len(walls)
    values[f"{CELL}.wall_s"] = sum(walls) / 1e3
    values[f"{CELL}.wait_s"] = sum(
        wall - cpu for wall, cpu in merged["cells"]) / 1e9
    values[f"{CELL}.p50_ms"] = _percentile(walls, 0.5)
    values[f"{CELL}.p90_ms"] = _percentile(walls, 0.9)
    values["cli.emit.report_bytes"] = report_bytes
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: values[name] for name, _, _ in METRICS}


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    from wpolys import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
        sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as sink:
        json.dump(dict(tracer.totals(), spans=tracer.spans()), sink)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
