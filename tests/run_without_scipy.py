"""Run a surface and a 3-torus experiment with scipy out of reach.

    PYTHONPATH=src python tests/run_without_scipy.py

scipy is only a test oracle; the library needs numpy alone.  This script
refuses every scipy import, imports warpconv, runs cinched-torus j = 1 on a
32^2 grid with audits and moving-bump3 j = 2 on the 32^3 grid, emits both
reports, and fails if any scipy module was loaded.  It also fails if the
runs imported any module that importing warpconv did not: a lazy import
(numpy.ma behind np.unique takes about 10 ms) would be paid inside the
first experiment of every process.  It prints "ok" on success.  `tests/test_no_scipy.py` runs it in a subprocess; CI also runs it
in a fresh environment where numpy is the only package installed.
"""

import importlib.abc
import json
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused: the library must run without scipy")
        return None


def main():
    sys.meta_path.insert(0, RefuseScipy())
    from warpconv import GridSpec, SequenceFamily, run_family_experiment
    from warpconv.reporting import csv_report, json_report, report_schema_errors
    from warpconv.torus3 import Grid3Spec, Torus3Family, run_torus3_experiment
    imported = set(sys.modules)

    surface = run_family_experiment(
        SequenceFamily("cinched-torus"), [1], grid=GridSpec(32, 32, 2),
        with_audits=True, with_wrong_limit=True)
    torus3 = run_torus3_experiment(Torus3Family(), [2], grid=Grid3Spec(32))
    for report in (surface, torus3):
        errors = report_schema_errors(json.loads(json_report(report)))
        if errors or not csv_report(report):
            raise SystemExit(f"bad report: {errors}")
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    if loaded:
        raise SystemExit(f"scipy modules loaded: {loaded}")
    late = sorted(set(sys.modules) - imported)
    if late:
        raise SystemExit(f"modules first imported during the runs: {late}")
    print("ok")


if __name__ == "__main__":
    main()
