"""Byte-level pins of four small end-to-end reports.

The fixtures under tests/golden/ hold the JSON and CSV emitted for

* cinched-torus stages 1 and 2 on a 64 x 64 k=2 grid, with the audits and
  the wrong (plain product) limit,
* the same on an interval base (the base has 65 rows),
* many-ridges (height 1.5) stages 1 and 2 on a 65 x 65 k=2 grid, whose odd
  fiber has two mirror columns that fold onto one, with the audits and the
  wrong limit,
* moving-bump3 stage 2 on the 32^3 grid, with its audits.

A change to the grid oracle, the sample plans, the limit metrics, the
audits or the report formatting that moves any printed digit fails here.
Regenerate the fixtures only for a change meant to alter reports.
"""

from pathlib import Path

import pytest

from warpconv import GridSpec, SequenceFamily, run_family_experiment
from warpconv.reporting import csv_report, json_report
from warpconv.torus3 import Grid3Spec, Torus3Family, run_torus3_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    "cinched-torus-64": lambda: run_family_experiment(
        SequenceFamily("cinched-torus"), [1, 2], grid=GridSpec(64, 64, 2),
        with_audits=True, with_wrong_limit=True),
    "cinched-interval-64": lambda: run_family_experiment(
        SequenceFamily("cinched-torus", base_shape="interval"), [1, 2],
        grid=GridSpec(64, 64, 2), with_audits=True, with_wrong_limit=True),
    "many-ridges-65": lambda: run_family_experiment(
        SequenceFamily("many-ridges", depth=1.5), [1, 2], grid=GridSpec(65, 65, 2),
        with_audits=True, with_wrong_limit=True),
    "moving-bump3-32": lambda: run_torus3_experiment(
        Torus3Family(), [2], grid=Grid3Spec(32)),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(name):
    report = RUNS[name]()
    assert json_report(report) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert csv_report(report) == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
