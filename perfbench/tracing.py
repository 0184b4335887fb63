"""Spans around the calls into icdof's public functions, for the traced run.

`Tracer.installed()` replaces each traced function in every `icdof` module
namespace that holds it (`bounds` calls `convolve` through its own imported
name, so patching `icdof.dist` alone would miss those calls) and wraps
`DiscreteDist.__init__` as `dist.construct`. Spans stay in memory as
(name, start, end, parent, op id) and are written out when the run ends.
Counts are taken at the same boundaries, and garbage collection is timed
through `gc.callbacks`.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

import icdof

perf = time.perf_counter
POINT_SAMPLE = 1024  # support points kept for the scalar probe


def _convolve(raw, args, result, points):
    raw["dist.convolve.pairs"] += len(args[0]) * len(args[1])
    raw["dist.convolve.atoms_out"] += len(result)
    if len(points) < POINT_SAMPLE:
        points.extend(itertools.islice(result.atoms, 32))


def _kernel_basis(raw, args, result, points):
    rows = args[0]
    raw["linalg.kernel_basis.cells"] += len(rows) * len(rows[0]) if rows else 0
    raw["linalg.kernel_basis.kernel_dim"] += len(result)


def _check_condition_star(raw, args, result, points):
    H, d = args[0], args[1]
    raw["channel.check_condition_star.columns"] += icdof.phi(H.K, d + 1) + icdof.phi(H.K, d)
    raw["channel.check_condition_star.violated"] += result.status == "violated"


def _sumset(raw, args, result, points):
    raw["sumsets.sumset.pairs"] += len(args[0]) * len(args[1])
    raw["sumsets.sumset.size_out"] += len(result)


def _count(key, position=None):
    """Counter adding the size of one argument (or of the result) to `key`."""

    def count(raw, args, result, points):
        raw[key] += len(result if position is None else args[position])

    return count


# (module, function, metric prefix, counter)
TRACED = [
    ("dist", "convolve", "dist.convolve", _convolve),
    ("dist", "entropy_bits", "dist.entropy_bits", _count("dist.entropy_bits.atoms", 0)),
    ("dist", "scale", "dist.scale", _count("dist.scale.atoms", 1)),
    ("dist", "linear_combination", "dist.linear_combination", None),
    ("linalg", "kernel_basis", "linalg.kernel_basis", _kernel_basis),
    ("channel", "check_condition_star", "channel.check_condition_star", _check_condition_star),
    ("channel", "build_wn", "channel.build_wn", _count("channel.build_wn.values")),
    ("channel", "verify_witness", "channel.verify_witness", None),
    ("bounds", "theorem1_certified_bound", "bounds.theorem1_certified_bound", None),
    ("bounds", "integer_example_bound", "bounds.integer_example_bound", None),
    ("bounds", "hlambda_bound", "bounds.hlambda_bound", None),
    ("bounds", "theorem3_ratio", "bounds.theorem3_ratio", None),
    ("sumsets", "sumset", "sumsets.sumset", _sumset),
    ("sumsets", "entropy_inequality_suite", "sumsets.entropy_inequality_suite", None),
    ("sumsets", "is_arithmetic_progression", "sumsets.is_arithmetic_progression", None),
    ("infodim", "truncated_dist", "infodim.truncated_dist", _count("infodim.truncated_dist.atoms")),
    ("infodim", "empirical_infodim", "infodim.empirical_infodim", None),
    ("optimize", "optimize_hlambda", "optimize", None),
    ("optimize", "optimize_theorem3", "optimize", None),
]
OBJECTIVES = {"bounds.hlambda_bound", "bounds.theorem3_ratio"}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent span index or -1, op id)
        self.raw: defaultdict = defaultdict(float)  # counters of the current pass
        self.points: list = []  # support points sampled for the scalar probe
        self.op_id = -1
        self.recording = False  # on only while an op runs, so output checks are not traced
        self._open: list = []  # [span index, seconds covered by child spans]
        self._optimizing = 0
        self._gc_start = None

    def _call(self, name, prefix, count, fn, args, kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        raw = self.raw
        parent = self._open[-1][0] if self._open else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._open.append(frame)
        if prefix == "optimize":
            self._optimizing += 1
        elif self._optimizing and prefix in OBJECTIVES:
            raw["optimize.evaluations"] += 1
        start = perf()
        try:
            result = fn(*args, **kwargs)
        except icdof.BudgetExceededError:
            if prefix.startswith("bounds."):
                raw["bounds.refused"] += 1
                raw["bounds.refuse_s"] += perf() - start
            raise
        finally:
            end = perf()
            duration = end - start
            self._open.pop()
            if prefix == "optimize":
                self._optimizing -= 1
            if self._open:
                self._open[-1][1] += duration
            self.spans[frame[0]] = (name, start, end, parent, self.op_id)
            raw[prefix + ".calls"] += 1
            raw[prefix + ".s"] += duration
            raw[prefix + ".self_s"] += duration - frame[1]
        if count is not None:
            count(raw, args, result, self.points)
        return result

    def _wrap(self, name, prefix, count, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, prefix, count, fn, args, kwargs)

        return traced

    def _gc(self, phase, info):
        if not self.recording:
            return
        if phase == "start":
            self._gc_start = perf()
        elif self._gc_start is not None:
            self.raw["runtime.gc_s"] += perf() - self._gc_start
            self.raw["runtime.gc_collections"] += 1
            self._gc_start = None

    @contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "icdof" or n.startswith("icdof.")]
        patched = []
        for module, function, prefix, count in TRACED:
            original = getattr(sys.modules["icdof." + module], function)
            wrapper = self._wrap(f"{module}.{function}", prefix, count, original)
            for namespace in modules:
                if vars(namespace).get(function) is original:
                    setattr(namespace, function, wrapper)
                    patched.append((namespace, function, original))
        init = icdof.DiscreteDist.__init__
        construct = self._wrap("dist.construct", "dist.construct",
                               _count("dist.construct.atoms", 1), init)
        icdof.DiscreteDist.__init__ = construct
        gc.callbacks.append(self._gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._gc)
            icdof.DiscreteDist.__init__ = init
            for namespace, function, original in patched:
                setattr(namespace, function, original)

    def take(self) -> dict:
        """Counters of the pass that just ended; starts the next pass at zero."""
        raw, self.raw = self.raw, defaultdict(float)
        return raw

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(raw: dict, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass, from its counters."""
    c = lambda key: raw.get(key, 0.0)  # noqa: E731
    m = {}
    for prefix, fields in [
        ("dist.convolve", ("calls", "self_s", "pairs", "atoms_out")),
        ("dist.entropy_bits", ("calls", "self_s", "atoms")),
        ("dist.scale", ("self_s", "atoms")),
        ("dist.construct", ("self_s", "atoms")),
        ("dist.linear_combination", ("self_s",)),
        ("linalg.kernel_basis", ("calls", "self_s", "cells", "kernel_dim")),
        ("channel.check_condition_star", ("calls", "self_s", "columns", "violated")),
        ("channel.build_wn", ("self_s", "values")),
        ("channel.verify_witness", ("self_s",)),
        ("bounds.theorem1_certified_bound", ("s", "self_s")),
        ("bounds.integer_example_bound", ("s", "self_s")),
        ("bounds.hlambda_bound", ("calls", "self_s")),
        ("bounds.theorem3_ratio", ("calls", "self_s")),
        ("sumsets.sumset", ("calls", "self_s", "pairs", "size_out")),
        ("sumsets.entropy_inequality_suite", ("self_s",)),
        ("sumsets.is_arithmetic_progression", ("self_s",)),
        ("infodim.truncated_dist", ("s", "atoms")),
        ("infodim.empirical_infodim", ("self_s",)),
        ("optimize", ("calls", "evaluations", "self_s")),
    ]:
        for field in fields:
            m[f"{prefix}.{field}"] = c(f"{prefix}.{field}")
    m["dist.convolve.merge_ratio"] = _ratio(c("dist.convolve.atoms_out"), c("dist.convolve.pairs"))
    m["dist.convolve.ns_per_pair"] = 1e9 * _ratio(c("dist.convolve.self_s"), c("dist.convolve.pairs"))
    m["dist.entropy_bits.ns_per_atom"] = 1e9 * _ratio(c("dist.entropy_bits.self_s"),
                                                      c("dist.entropy_bits.atoms"))
    # the estimator's own work is the quantization of its truncation's atoms
    m["infodim.empirical_infodim.ns_per_atom"] = 1e9 * _ratio(
        c("infodim.empirical_infodim.self_s"), c("infodim.truncated_dist.atoms"))
    m["optimize.ms_per_evaluation"] = 1e3 * _ratio(c("optimize.s"), c("optimize.evaluations"))
    m["bounds.refused"] = c("bounds.refused")
    m["bounds.refuse_s"] = c("bounds.refuse_s")
    m["runtime.gc_s"] = c("runtime.gc_s")
    m["runtime.gc_collections"] = c("runtime.gc_collections")
    m["runtime.gc_share"] = _ratio(c("runtime.gc_s"), pass_s)
    return m


def layer_metrics(passes: list[tuple[dict, float]]) -> dict:
    """Median over the traced passes of each per-pass metric."""
    per_pass = [pass_metrics(raw, seconds) for raw, seconds in passes]
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}
