"""Benchmark of warpconv's convergence experiments.

    python3 perfbench/run.py --workload cinch-audit --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  One caller in a closed loop: each sample is
one experiment call, with its JSON and CSV emission, in a fresh process
(perfbench/child.py), started only after the previous one has ended.  The
library's default thread pool is the only parallelism.  Before the samples,
one warm-up process and SETUP_PROBES more measure set-up alone.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced samples and reports the per-layer metrics from the traced ones;
spans go to perfbench/out/.  Every report must pass the schema check, hold
only finite numbers (skipped audit rows keep their placeholders) and match
the golden report in perfbench/golden/ byte for byte.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the exit code is 0 only when every sample was correct.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
OUT = HERE / "out"
SETUP_PROBES = 5
DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("experiment_s", "s"),
    ("pairs_per_s", "pairs/s"),
    ("peak_rss_mb", "MiB"),
    ("grid_err_max", "distance"),
)

# Fields an audit row that was skipped leaves at their inf/NaN defaults.
SKIPPED_PLACEHOLDERS = {"slack", "bound", "observed"}


class SampleFailed(Exception):
    """A sample process crashed, timed out or printed no result."""


def preflight() -> list:
    """Reasons the benchmark cannot measure here; empty when it can."""
    problems = []
    if not (ROOT / "src" / "warpconv" / "__init__.py").is_file():
        problems.append(f"no warpconv sources under {ROOT / 'src'}")
    if "WARPCONV_THREADS" in os.environ:
        problems.append("WARPCONV_THREADS is set; unset it so the run measures "
                        "the library's default pool")
    return problems


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
    }


def golden_paths(workload: str, seed: int) -> dict:
    stem = GOLDEN / workload / f"seed{child.experiment_seed(seed)}"
    return {fmt: stem.with_suffix(f".{fmt}") for fmt in ("json", "csv")}


def sample(workload: str, seed: int, timeout: float, setup_only=False,
           trace_out=None) -> dict:
    """Run one child process to its end and return its result object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(time.monotonic())],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise SampleFailed(f"no result within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleFailed(f"exit code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SampleFailed(f"unreadable result {lines[-1][:80]!r}") from None


def nonfinite_fields(value, path="report", in_skipped_row=False) -> list:
    """Paths of non-finite numbers, except the placeholders of skipped
    audit rows."""
    if isinstance(value, float):
        if math.isfinite(value):
            return []
        if in_skipped_row and path.rsplit(".", 1)[-1] in SKIPPED_PLACEHOLDERS:
            return []
        return [path]
    if isinstance(value, dict):
        skipped = in_skipped_row or value.get("skipped") is True
        return [p for k, v in value.items()
                for p in nonfinite_fields(v, f"{path}.{k}", skipped)]
    if isinstance(value, list):
        return [p for i, v in enumerate(value)
                for p in nonfinite_fields(v, f"{path}[{i}]", in_skipped_row)]
    return []


def first_difference(fmt: str, want: str, got: str) -> str:
    """The first line (a CSV row, or one JSON field) where two reports differ."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for i in range(max(len(want_lines), len(got_lines))):
        a = want_lines[i] if i < len(want_lines) else "<end of report>"
        b = got_lines[i] if i < len(got_lines) else "<end of report>"
        if a != b:
            return f"{fmt} differs from golden at line {i + 1}: want {a!r}, got {b!r}"
    return f"{fmt} differs from golden in line endings"


def report_problems(result: dict, golden: dict) -> list:
    problems = [f"schema: {e}" for e in result["schema_errors"]]
    problems += [f"non-finite number at {p}"
                 for p in nonfinite_fields(json.loads(result["json"]))]
    problems += [first_difference(fmt, golden[fmt], result[fmt])
                 for fmt in ("json", "csv") if result[fmt] != golden[fmt]]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Benchmark of warpconv's convergence experiments.")
    ap.add_argument("--workload", required=True, choices=sorted(child.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problems = preflight()
    paths = golden_paths(args.workload, args.seed)
    if not problems and not all(p.is_file() for p in paths.values()):
        problems.append(f"no golden report {paths['json']}")
    if problems:
        for p in problems:
            print(f"run.py: {p}", file=sys.stderr)
        return 2
    golden = {fmt: p.read_text(encoding="utf-8") for fmt, p in paths.items()}
    golden_doc = json.loads(golden["json"])
    pairs = tracing.report_pairs(golden_doc)

    env = environment()
    print(f"workload {args.workload}: {child.WORKLOADS[args.workload]}")
    print(f"seed {args.seed} -> report seed {child.experiment_seed(args.seed)}; "
          f"{args.seconds:g} s; trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    start = time.monotonic()
    deadline = start + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    setups, untraced, traced, layer_runs = [], [], [], []
    attempted = failed = 0
    try:
        sample(args.workload, args.seed, deadline - time.monotonic(),
               setup_only=True)  # warm the bytecode and file caches
        for _ in range(SETUP_PROBES):
            setups.append(sample(args.workload, args.seed,
                                 deadline - time.monotonic(),
                                 setup_only=True)["setup_s"])
    except SampleFailed as exc:
        print(f"setup probe failed: {exc}", file=sys.stderr)
        attempted = failed = 1

    # Start another sample (a pair when tracing) only if it should end
    # within --seconds, judging by the last one; always take at least one.
    last_s = 0.0
    while not failed:
        t0 = time.monotonic()
        if attempted and t0 + last_s > min(start + args.seconds, deadline):
            break
        pair = []
        for traced_run in range(args.trace + 1):
            trace_out = None
            if traced_run:
                trace_out = OUT / f"{args.workload}-seed{args.seed}-{len(traced)}.json"
            attempted += 1
            try:
                result = sample(args.workload, args.seed,
                                deadline - time.monotonic(), trace_out=trace_out)
            except SampleFailed as exc:
                problems = [str(exc)]
            else:
                problems = report_problems(result, golden)
                if pair and result["json"] != pair[0]["json"]:
                    problems.append("traced report differs from the untraced one")
            kind = "traced" if traced_run else "untraced"
            if problems:
                failed += 1
                for p in problems:
                    print(f"FAILED {kind} sample {attempted}: {p}", file=sys.stderr)
                break
            pair.append(result)
            print(f"sample {attempted} ({kind}): setup {result['setup_s']:.3f} s, "
                  f"experiment {result['experiment_s']:.3f} s, "
                  f"peak rss {result['peak_rss_mb']:.1f} MiB")
        if failed:
            break
        last_s = time.monotonic() - t0
        untraced.append(pair[0])
        if args.trace:
            traced.append(pair[1])
            spans = json.loads(trace_out.read_text(encoding="utf-8"))
            layer_runs.append(tracing.layer_metrics(spans, pairs))

    correct = failed == 0 and bool(untraced)
    metrics = {}
    if untraced and not args.trace:
        exp_s = statistics.median(r["experiment_s"] for r in untraced)
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in untraced]),
            "experiment_s": exp_s,
            "pairs_per_s": pairs / exp_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "grid_err_max": max(row["grid_error"] for row in golden_doc["rows"]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    if layer_runs:
        for name in tracing.EXACT_COUNTS:
            seen = {per_run[name] for per_run in layer_runs}
            if len(seen) > 1:
                correct = False
                print(f"FAILED: count {name} differs between traced samples: "
                      f"{sorted(seen)}", file=sys.stderr)
        values = {name: statistics.median(per_run[name] for per_run in layer_runs)
                  for name in layer_runs[0]}
        values["trace.experiment_s"] = statistics.median(
            r["experiment_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.experiment_s"] - statistics.median(
            r["experiment_s"] for r in untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}

    print(f"samples: {len(untraced)} untraced, {len(traced)} traced; each metric "
          "is a median over the samples (no tail percentile has ten samples "
          "beyond it in one run)")
    print(f"  {'fail_rate':28s} {failed / attempted if attempted else 1.0:g} "
          f"failed/attempted ({failed} of {attempted})")
    for name, m in metrics.items():
        share = ""
        if args.trace and m["unit"] == "s" and not name.startswith("trace."):
            share = f"  ({m['value'] / values['trace.experiment_s']:.1%} of traced experiment)"
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{share}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
