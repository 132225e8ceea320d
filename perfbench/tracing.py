"""Spans around the calls into each warpconv layer, recorded from outside.

A `Recorder` replaces layer entry points with timing wrappers.  Each wrapper
records one span (name, start, end, parent span, counters) in memory; the
spans go to a sidecar JSON file when the experiment ends, and
`layer_metrics` turns them into the per-layer metrics.

Wrappers sit on the name the caller resolves: `convergence` imports
`_shoot_monotone` and the `core` profile functions by name, so those are
patched in the `convergence` namespace; methods such as
`GridGraph.distances_from` are patched on the class.  All wrapped calls run
on the main thread (the library's pool threads only run the scipy sweep
inside `distances_from`), so one stack of open spans is enough.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("geodesy.build_s", "s", "lower"),
    ("geodesy.graphs", "count", "lower"),
    ("geodesy.nodes", "count", "lower"),
    ("geodesy.nnz", "count", "lower"),
    ("geodesy.csr_mb", "MiB", "lower"),
    ("geodesy.sweep_s", "s", "lower"),
    ("geodesy.sweeps", "count", "lower"),
    ("geodesy.sweep_calls", "count", "lower"),
    ("geodesy.node_visits", "count", "lower"),
    ("geodesy.pairs_per_sweep", "pairs/sweep", "higher"),
    ("geodesy.snap_s", "s", "lower"),
    ("geodesy.snaps", "count", "lower"),
    ("clairaut.shoot_s", "s", "lower"),
    ("clairaut.shots", "count", "lower"),
    ("clairaut.hit_ratio", "ratio", "higher"),
    ("torus3.build_s", "s", "lower"),
    ("torus3.graphs", "count", "lower"),
    ("torus3.nodes", "count", "lower"),
    ("torus3.nnz", "count", "lower"),
    ("torus3.csr_mb", "MiB", "lower"),
    ("torus3.sweep_s", "s", "lower"),
    ("torus3.sweeps", "count", "lower"),
    ("torus3.pairs_per_sweep", "pairs/sweep", "higher"),
    ("torus3.audit_s", "s", "lower"),
    ("limit.eval_s", "s", "lower"),
    ("limit.evals", "count", "lower"),
    ("convergence.audit_s", "s", "lower"),
    ("core.profile_s", "s", "lower"),
    ("core.profile_calls", "count", "lower"),
    ("reporting.emit_s", "s", "lower"),
    ("reporting.bytes", "bytes", "lower"),
    ("convergence.self_s", "s", "lower"),
    ("convergence.audit_self_s", "s", "lower"),
    ("torus3.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.experiment_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Counts that must repeat exactly between runs of one seed.
EXACT_COUNTS = ("geodesy.sweeps", "geodesy.node_visits", "geodesy.nnz",
                "torus3.sweeps", "clairaut.shots", "limit.evals")


class Recorder:
    """Spans of one traced experiment, kept in memory until `write`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, counters]
        self._open = []

    def wrap(self, name, fn, counters=None):
        """`fn` with a span named `name`; `counters(args, result)` gives the
        span's counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, time.perf_counter()
                self._open.pop()
            if counters is not None:
                span[4] = counters(args, out)
            return out

        return traced

    def install(self):
        """Wrap every layer entry point the workloads reach."""
        targets = [
            ("geodesy.GridGraph.__init__", "geodesy.build", _graph_counters),
            ("geodesy.GridGraph.distances_from", "geodesy.sweep", _sweep_counters),
            ("geodesy.GridGraph.snap", "geodesy.snap", None),
            ("convergence._shoot_monotone", "clairaut.shoot", _shot_counters),
            ("geodesy._shoot_monotone", "clairaut.shoot", _shot_counters),
            ("families.LimitMetric.distance", "limit.eval", None),
            ("torus3.limit3_distance", "limit.eval", None),
            ("convergence.run_family_experiment", "convergence.experiment", None),
            ("convergence.audit_theorem_bounds", "convergence.audit", None),
            ("torus3.Grid3Graph.__init__", "torus3.build", _graph_counters),
            ("torus3.Grid3Graph.distances_from", "torus3.sweep", _sweep_counters),
            ("torus3.run_torus3_experiment", "torus3.experiment", None),
            ("torus3._audit_rows3", "torus3.audit", None),
            ("reporting.json_report", "reporting.emit", _emit_counters),
            ("reporting.csv_report", "reporting.emit", _emit_counters),
        ] + [(f"convergence.{fn}", "core.profile", None)
             for fn in ("lp_profile_distance", "curve_length", "theta_energy",
                        "bilipschitz_lambda")]
        for path, name, counters in targets:
            module, *outer, attr = path.split(".")
            owner = importlib.import_module(f"warpconv.{module}")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                print(f"tracing: warpconv.{path} not found; no {name} span",
                      file=sys.stderr)
                continue
            setattr(owner, attr, self.wrap(name, fn, counters))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _csr_of(graph):
    """The graph's sparse matrix, whatever attribute holds it."""
    for value in vars(graph).values():
        if hasattr(value, "indptr") and hasattr(value, "nnz"):
            return value
    return None


def _graph_counters(args, _out):
    graph = args[0]
    csr = _csr_of(graph)
    if csr is None:
        return {"nodes": graph.n_nodes, "nnz": 0, "csr_bytes": 0}
    return {"nodes": graph.n_nodes, "nnz": int(csr.nnz),
            "csr_bytes": csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes}


def _sweep_counters(_args, out):
    table = out[0] if isinstance(out, tuple) else out
    sources, nodes = table.shape
    return {"sources": sources, "node_visits": sources * nodes}


def _shot_counters(_args, out):
    return {"hit": int(out is not None)}


def _emit_counters(_args, out):
    return {"bytes": len(out.encode("utf-8"))}


def report_pairs(report: dict) -> int:
    """Pairs certified by a report: each row's pairs once per limit."""
    return sum(row["n_pairs"] * (1 + len(row["alt_eps"])) for row in report["rows"])


def layer_metrics(spans, pairs: int) -> dict:
    """Per-layer metrics from one experiment's spans: every PER_LAYER name
    but trace.experiment_s and trace.overhead_s, which compare two runs."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    busy = defaultdict(float)
    calls = Counter()
    sums = Counter()
    self_s = defaultdict(float)
    for i, (name, start, end, _parent, counters) in enumerate(spans):
        busy[name] += end - start
        calls[name] += 1
        self_s[name] += end - start - child_s[i]
        for key, value in (counters or {}).items():
            sums[name, key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("geodesy", "torus3"):
        m[f"{layer}.build_s"] = busy[f"{layer}.build"]
        m[f"{layer}.graphs"] = calls[f"{layer}.build"]
        m[f"{layer}.nodes"] = sums[f"{layer}.build", "nodes"]
        m[f"{layer}.nnz"] = sums[f"{layer}.build", "nnz"]
        m[f"{layer}.csr_mb"] = sums[f"{layer}.build", "csr_bytes"] / 2 ** 20
        m[f"{layer}.sweep_s"] = busy[f"{layer}.sweep"]
        m[f"{layer}.sweeps"] = sums[f"{layer}.sweep", "sources"]
        m[f"{layer}.pairs_per_sweep"] = ratio(pairs, m[f"{layer}.sweeps"])
    m["geodesy.sweep_calls"] = calls["geodesy.sweep"]
    m["geodesy.node_visits"] = sums["geodesy.sweep", "node_visits"]
    m["geodesy.snap_s"] = busy["geodesy.snap"]
    m["geodesy.snaps"] = calls["geodesy.snap"]
    m["clairaut.shoot_s"] = busy["clairaut.shoot"]
    m["clairaut.shots"] = calls["clairaut.shoot"]
    m["clairaut.hit_ratio"] = ratio(sums["clairaut.shoot", "hit"],
                                    calls["clairaut.shoot"])
    m["torus3.audit_s"] = busy["torus3.audit"]
    m["limit.eval_s"] = busy["limit.eval"]
    m["limit.evals"] = calls["limit.eval"]
    m["convergence.audit_s"] = busy["convergence.audit"]
    m["core.profile_s"] = busy["core.profile"]
    m["core.profile_calls"] = calls["core.profile"]
    m["reporting.emit_s"] = busy["reporting.emit"]
    m["reporting.bytes"] = sums["reporting.emit", "bytes"]
    # Every other span is a leaf (torus3.audit holds only limit evaluations),
    # so its busy time is its self time.
    m["convergence.self_s"] = self_s["convergence.experiment"]
    m["convergence.audit_self_s"] = self_s["convergence.audit"]
    m["torus3.self_s"] = self_s["torus3.experiment"]
    m["trace.spans"] = len(spans)
    return m
