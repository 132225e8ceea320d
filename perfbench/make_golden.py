"""Write the golden reports the benchmark compares every sample against.

    python3 perfbench/make_golden.py [--workload NAME ...]

Runs each workload once per report seed in the pool (child.SEED_POOL) and
stores the JSON and CSV bytes under perfbench/golden/<workload>/.  Only
regenerate them for a change that is meant to alter the reports, and say
why in that change.
"""

import argparse
import sys

import child
import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(child.WORKLOADS))
    args = ap.parse_args(argv)
    problems = run.preflight()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    for workload in args.workload or sorted(child.WORKLOADS):
        for seed in range(child.SEED_POOL):
            result = run.sample(workload, seed, timeout=600.0)
            if result["schema_errors"]:
                print(f"{workload} seed {seed}: {result['schema_errors']}",
                      file=sys.stderr)
                return 1
            paths = run.golden_paths(workload, seed)
            paths["json"].parent.mkdir(parents=True, exist_ok=True)
            for fmt, path in paths.items():
                path.write_text(result[fmt], encoding="utf-8")
            print(f"{workload} seed {seed}: {result['experiment_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
