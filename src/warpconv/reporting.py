"""Deterministic report emission.

Two formats, both byte-stable for a fixed scenario and seed:

* CSV with the fixed column set
  ``j, eps_hat, grid_err, l2_norm, lambda, gh_bound, flat_bound, worst_pair``
  (eps_hat is the raw uniform discrepancy; the grid-error column sits next
  to it so readers can do their own correction, and the corrected value
  lives in the JSON),
* JSON carrying the full report dictionary under a schema tag, floats
  canonicalized to 12 significant digits and keys sorted.

The worst_pair cell is a single token ``(a b)->(c d)`` with space-separated
coordinates, so the CSV stays comma-safe without quoting.
"""

import json
import math
from typing import List

import numpy as np

CSV_COLUMNS = ("j", "eps_hat", "grid_err", "l2_norm", "lambda",
               "gh_bound", "flat_bound", "worst_pair")
REPORT_SCHEMA = "warpconv-report-v1"


def fmt_sig(value) -> str:
    """Format one number at 12 significant digits."""
    return f"{float(value):.12g}"


def point_label(p) -> str:
    """Space-separated coordinate tuple for either surface or cube points."""
    return "(" + " ".join(f"{c:.6g}" for c in p) + ")"


def pair_label(pair) -> str:
    a, b = pair
    return f"{point_label(a)}->{point_label(b)}"


def csv_report(report) -> str:
    """Fixed-schema CSV for a surface or 3-torus convergence report."""
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        lines.append(",".join((
            str(int(row.j)),
            fmt_sig(row.eps_raw),
            fmt_sig(row.grid_error),
            fmt_sig(row.l2_norm),
            fmt_sig(row.lam),
            fmt_sig(row.gh_bound),
            fmt_sig(row.flat_bound),
            pair_label(row.worst_pair),
        )))
    return "\n".join(lines) + "\n"


def _canonical(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return float(f"{v:.12g}") if math.isfinite(v) else v
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    return value


def canonical_json(obj) -> str:
    """Sorted-key JSON with floats at 12 significant digits."""
    return json.dumps(_canonical(obj), sort_keys=True, indent=2) + "\n"


def json_report(report) -> str:
    payload = {"schema": REPORT_SCHEMA}
    payload.update(report.to_dict())
    return canonical_json(payload)


_ROW_NUMERIC = ("eps_raw", "eps_corrected", "grid_error", "l2_norm",
                "l2_bound", "lambda", "mass", "gh_bound", "flat_bound")
_AUDIT_KEYS = {"name", "slack", "tolerance", "bound", "observed",
               "n_samples", "skipped", "reason", "passed"}


def report_schema_errors(doc) -> List[str]:
    """Structural check for an emitted JSON report; empty list means valid."""
    errs: List[str] = []
    if not isinstance(doc, dict):
        return ["report must be an object"]
    if doc.get("schema") != REPORT_SCHEMA:
        errs.append(f"schema tag must be {REPORT_SCHEMA!r}")
    for key in ("family", "limit"):
        if not isinstance(doc.get(key), str):
            errs.append(f"{key} must be a string")
    if doc.get("dimension") not in (2, 3):
        errs.append("dimension must be 2 or 3")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errs.append("rows must be a non-empty list")
        rows = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errs.append(f"rows[{i}] must be an object")
            continue
        if not isinstance(row.get("j"), int):
            errs.append(f"rows[{i}].j must be an integer")
        for key in _ROW_NUMERIC:
            if not isinstance(row.get(key), (int, float)):
                errs.append(f"rows[{i}].{key} must be a number")
        wp = row.get("worst_pair")
        if (not isinstance(wp, list) or len(wp) != 2
                or any(not isinstance(pt, list) for pt in wp)):
            errs.append(f"rows[{i}].worst_pair must be a pair of point lists")
    audits = doc.get("audits")
    if not isinstance(audits, dict):
        errs.append("audits must be an object")
        audits = {}
    for j, entries in audits.items():
        if not isinstance(entries, list):
            errs.append(f"audits[{j}] must be a list")
            continue
        for a in entries:
            if not isinstance(a, dict) or not set(a) <= _AUDIT_KEYS:
                errs.append(f"audits[{j}] has a malformed row")
                break
    known = {"schema", "family", "limit", "dimension", "rows", "audits"}
    unknown = set(doc) - known
    if unknown:
        errs.append(f"unknown report fields: {sorted(unknown)}")
    return errs
