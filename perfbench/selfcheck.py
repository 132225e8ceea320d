"""The benchmark's own test.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

Takes a few minutes.  It checks that
* BENCHMARK.json names exactly the metrics run.py and tracing.py report,
* run.py refuses to run, printing no result, where there are no sources,
* an untraced run of each workload is correct and reports every end-to-end
  metric as a nonzero number,
* two traced runs of each workload with one seed are correct (so traced
  reports equal untraced and golden ones byte for byte), read nonzero on
  every count the workload exercises and zero on the layers it bypasses,
  and repeat the exact counts (tracing.EXACT_COUNTS) to the last digit.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import child
import run
import tracing

# Per workload: counts that must read nonzero, and layers it must not reach.
EXERCISED = {
    "cinch-audit": (
        ("geodesy.graphs", "geodesy.sweeps", "geodesy.snaps", "clairaut.shots",
         "limit.evals", "core.profile_calls", "convergence.audit_s",
         "reporting.bytes"),
        ("torus3.graphs", "torus3.sweeps")),
    "ret-large": (
        ("geodesy.graphs", "geodesy.sweeps", "geodesy.snaps", "limit.evals",
         "core.profile_calls", "reporting.bytes"),
        ("clairaut.shots", "convergence.audit_s", "torus3.graphs",
         "torus3.sweeps")),
    "torus3-bump": (
        ("torus3.graphs", "torus3.sweeps", "torus3.audit_s", "limit.evals",
         "reporting.bytes"),
        ("geodesy.graphs", "geodesy.sweeps", "clairaut.shots",
         "core.profile_calls")),
}


def bench(cwd: Path, workload: str, seed: int, trace: int):
    """Run run.py once; returns (exit code, last stdout line as JSON or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(child.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    errors = []

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
            != list(tracing.PER_LAYER):
        errors.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(child.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from child.WORKLOADS")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, result = bench(bare, "cinch-audit", args.seed, 0)
    if code == 0 or result is not None:
        errors.append(f"without sources: exit code {code}, result {result}")
    shutil.rmtree(bare)

    for workload in args.workload or sorted(child.WORKLOADS):
        nonzero, zero = EXERCISED[workload]
        code, result = bench(run.ROOT, workload, args.seed, 0)
        if code or not result or not result["correct"]:
            errors.append(f"{workload}: untraced run failed ({result})")
        elif any(not result["metrics"].get(name, {}).get("value")
                 for name, _ in run.END_TO_END):
            errors.append(f"{workload}: an end-to-end metric is missing or 0")
        layer_runs = []
        for _ in range(2):
            code, result = bench(run.ROOT, workload, args.seed, 1)
            if code or not result or not result["correct"]:
                errors.append(f"{workload}: traced run failed ({result})")
                break
            layer_runs.append({k: v["value"] for k, v in result["metrics"].items()})
        if len(layer_runs) < 2:
            continue
        first, second = layer_runs
        errors += [f"{workload}: {name} reads 0" for name in nonzero if not first[name]]
        errors += [f"{workload}: {name} reads {first[name]}, expected 0"
                   for name in zero if first[name]]
        errors += [f"{workload}: {name} {first[name]} then {second[name]}"
                   for name in tracing.EXACT_COUNTS if first[name] != second[name]]
        sweep = first["geodesy.sweep_s"] + first["torus3.sweep_s"]
        print(f"{workload}: sweeps {sweep:.2f} s of {first['trace.experiment_s']:.2f} s "
              f"traced; overhead {first['trace.overhead_s']:+.3f} s, "
              f"{second['trace.overhead_s']:+.3f} s")

    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
