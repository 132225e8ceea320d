"""One experiment call in a fresh process.

run.py starts this script once per sample, so the peak resident set it
reports belongs to that one call.  Usage:

    python3 perfbench/child.py --workload cinch-audit --seed 3 \
        --t-spawn <time.monotonic() of the parent at spawn> [--setup-only]
        [--trace-out perfbench/out/spans.json]

The last line of standard output is one JSON object.  warpconv must be on
PYTHONPATH (run.py puts the checkout's ``src`` there).
"""

import argparse
import json
import resource
import sys
import time

# Report seeds are drawn from a fixed pool, so every (workload, seed) the
# benchmark can run has a golden report kept beside it.
SEED_POOL = 10

WORKLOADS = {
    # small graphs, many sweeps, reference reuse and the only Clairaut shots
    "cinch-audit": "cinched-torus j=1,2,4,8 with audits and the wrong limit, 256^2 k=2",
    # working set far beyond the caches: two 1024^2 graphs, 26 sweeps
    "ret-large": "ret-cinches j=1 on the pinned 1024^2 k=2 grid, no audits",
    # the separate 3D pipeline: 64^3 lattice, 26-neighbour stencil
    "torus3-bump": "moving-bump3 j=2,3,4 on the 64^3 grid with audits",
}


def experiment_seed(seed: int) -> int:
    """The report seed that benchmark seed `seed` selects."""
    return seed % SEED_POOL


def prepare(workload: str, seed: int):
    """Import warpconv and build the workload's inputs; returns the
    zero-argument experiment call.  The call looks its entry point up on the
    module when it runs, so wrappers installed afterwards are seen."""
    from warpconv import convergence, families, torus3

    s = experiment_seed(seed)
    if workload == "cinch-audit":
        fam = families.SequenceFamily("cinched-torus")
        return lambda: convergence.run_family_experiment(
            fam, [1, 2, 4, 8], with_audits=True, with_wrong_limit=True, seed=s)
    if workload == "ret-large":
        fam = families.SequenceFamily("ret-cinches")
        return lambda: convergence.run_family_experiment(fam, [1], seed=s)
    if workload == "torus3-bump":
        fam3 = torus3.Torus3Family()
        return lambda: torus3.run_torus3_experiment(fam3, [2, 3, 4], seed=s)
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    call = prepare(args.workload, args.seed)
    # CLOCK_MONOTONIC is system-wide on Linux, so this spans interpreter
    # start, the numpy/scipy/warpconv imports and building the inputs.
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from warpconv import reporting

    recorder = None
    if args.trace_out:
        import tracing
        recorder = tracing.Recorder()
        recorder.install()

    t0 = time.perf_counter()
    report = call()
    json_text = reporting.json_report(report)
    csv_text = reporting.csv_report(report)
    experiment_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if recorder is not None:
        recorder.write(args.trace_out)
    schema_errors = reporting.report_schema_errors(json.loads(json_text))
    print(json.dumps({
        "setup_s": setup_s,
        "experiment_s": experiment_s,
        "peak_rss_mb": peak_rss_mb,
        "schema_errors": schema_errors,
        "json": json_text,
        "csv": csv_text,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
