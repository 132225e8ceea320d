"""Tests for the discrepancy experiments and the inequality audits.

The turning-rate section freezes a hand-derived counterexample.  On the flat
unit product, the geodesic from (-1, 0) to (1, 3) is a straight line with

    length L = sqrt(13),  conserved fiber momentum c = 3 / sqrt(13),

and the two turning energies have closed forms

    theta_r = |dtheta| / sqrt(dr) = 3 / sqrt(2)        (r-parameterized)
    theta_s = c * sqrt(L)         = 3 / 13**0.25       (arclength)

against the claimed cap sqrt(L) / min f = 13**0.25 ~ 1.899.  theta_r ~ 2.121
exceeds the cap (steep fiber-ward geodesics make dtheta/dr blow up like
1 / sqrt(dr), so no bound of this shape can hold for the r-parameterized
energy), while theta_s stays below it.  The audit table reports the
violation as a negative slack instead of hiding it; these tests pin both
sides of that behavior.
"""

import math
from collections import Counter

import numpy as np
import pytest

from warpconv import (
    ConstantProfile,
    FiberSpace,
    GridSpec,
    HypothesisError,
    LimitMetric,
    SequenceFamily,
    SurfacePoint,
    WarpedSpace,
    circle_base,
    default_grid,
    exact_gap,
    flat_upper_bound,
    gh_upper_bound,
    reference_space,
    run_family_experiment,
)
from warpconv import convergence
from warpconv.convergence import (
    DiscrepancyResult,
    PlanValues,
    StageRow,
    _monotone_geodesic_stats,
    audit_theorem_bounds,
    lower_bound_row,
    point_columns,
    sandwich_row,
)
from warpconv.families import FAMILY_KINDS, RIDGE_KINDS
from warpconv.torus3 import Grid3Spec, Point3

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# bound formulas


def test_gh_upper_bound_values():
    assert gh_upper_bound(0.0) == 0.0
    assert gh_upper_bound(0.05) == pytest.approx(0.1)
    assert gh_upper_bound(1.5) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        gh_upper_bound(-0.1)


def test_flat_upper_bound_values():
    assert flat_upper_bound(0.0, 1.0, 2, 1.0) == 0.0
    got = flat_upper_bound(0.1, 2.0, 2, 4.0 * math.pi ** 2)
    assert got == pytest.approx(2.0 ** 1.5 * 8.0 * 0.2 * 4.0 * math.pi ** 2)
    assert got == pytest.approx(178.66, abs=0.01)
    assert flat_upper_bound(1.0, 1.0, 1, 1.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        flat_upper_bound(0.1, 0.5, 2, 1.0)
    with pytest.raises(ValueError):
        flat_upper_bound(0.1, 2.0, 2, 0.0)


def test_mass_estimate_values():
    base, fiber = circle_base(), FiberSpace()
    assert WarpedSpace(base, fiber, ConstantProfile(1.0)).mass() == \
        pytest.approx(4.0 * math.pi ** 2, rel=1e-12)
    assert WarpedSpace(base, fiber, ConstantProfile(2.0)).mass() == \
        pytest.approx(8.0 * math.pi ** 2, rel=1e-12)
    # one cosine cinch of half-width 1/8 removes area 2*pi * (1/8) * (1-h0):
    # the bump shape has mean 1/2 over its support of width 2/8
    cinch = SequenceFamily("cinched-torus", depth=0.5).space(8)
    assert cinch.mass() == pytest.approx(
        4.0 * math.pi ** 2 - TAU * 0.125 * 0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# grid schedule and reference spaces


def test_default_grid_schedule():
    assert default_grid(SequenceFamily("constant"), 4).n_r == 256
    assert default_grid(SequenceFamily("cinched-torus"), 32).n_r == 1024
    assert default_grid(SequenceFamily("ret-cinches"), 2).n_r == 1024
    # the ridge lattice keeps n odd so power-of-two centers fall between rows
    for j in (4, 8, 32):
        n = default_grid(SequenceFamily("many-ridges", depth=1.5), j).n_r
        assert n % 2 == 1
        assert n >= 257


def test_reference_space_product():
    grid = GridSpec(256, 256, 2)
    base, fiber = circle_base(), FiberSpace()
    ref = reference_space(LimitMetric("product", level=3.0), base, fiber, grid)
    assert ref.profile(0.123) == 3.0


def test_reference_space_cinch_sits_on_a_row():
    grid = GridSpec(256, 256, 2)
    base, fiber = circle_base(), FiberSpace()
    lim = LimitMetric("cinched-product", depth=0.5, cinch_r=1.0)
    ref = reference_space(lim, base, fiber, grid)
    hr = base.length / grid.n_r
    row_r = base.r_min + round((1.0 - base.r_min) / hr) * hr
    assert ref.profile(row_r) == pytest.approx(0.5)
    assert ref.profile(row_r + hr) == pytest.approx(1.0)


def test_reference_space_mix_needs_divisible_rows():
    base, fiber = circle_base(), FiberSpace()
    lim = LimitMetric("stretched-mix")
    ref = reference_space(lim, base, fiber, GridSpec(1024, 1024, 2))
    assert ref.profile_max() == pytest.approx(5.0)
    assert ref.profile_min() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        reference_space(lim, base, fiber, GridSpec(250, 250, 2))


def plan(pairs, values, errors):
    """`PlanValues` of the given snapped pairs, grid values and error bars."""
    return PlanValues(point_columns([p for p, _ in pairs]),
                      point_columns([q for _, q in pairs]),
                      np.array(values, dtype=float),
                      np.array(errors, dtype=float))


def test_discrepancy_result_gaps():
    p, q = SurfacePoint(0.0, 0.0), SurfacePoint(1.0, 1.0)
    one = DiscrepancyResult(2, "x", GridSpec(32, 32, 2),
                            plan([(p, q)], [1.5], [0.1]),
                            limit_values=np.array([1.2]),
                            reference_values=np.array([1.45]))
    assert one.eps_raw == pytest.approx(0.3)
    assert one.eps_corrected == pytest.approx(0.05)
    assert one.max_grid_error == 0.1
    assert one.worst_pair == (p, q)
    # two pairs of the largest corrected gap: the first is the worst
    r = SurfacePoint(2.0, 0.5)
    three = DiscrepancyResult(2, "x", GridSpec(32, 32, 2),
                              plan([(q, r), (p, r), (p, q)], [1.0, 2.0, 3.0],
                                   [0.3, 0.2, 0.1]),
                              limit_values=np.array([1.5, 2.0, 3.0]),
                              reference_values=np.array([1.25, 1.75, 3.25]))
    assert three.eps_raw == 0.5
    assert three.eps_corrected == 0.25
    assert three.max_grid_error == 0.3
    assert three.worst_pair == (q, r)
    assert all(type(c) is float for pt in three.worst_pair for c in pt)


@pytest.mark.parametrize("grid, pair, grid_list, pair_lists", [
    (GridSpec(64, 32, 2), (SurfacePoint(0.0, 0.0), SurfacePoint(1.0, 2.0)),
     [64, 32, 2], [[0, 0], [1, 2]]),
    (Grid3Spec(32), (Point3(0, 0, 0), Point3(1, 1, 1)),
     [32, 32, 32, 1], [[0, 0, 0], [1, 1, 1]]),
], ids=["surface", "torus3"])
def test_stage_row_to_dict(grid, pair, grid_list, pair_lists):
    row = StageRow(2, grid, 5, 0.1, 0.05, 0.01, 0.2, 0.21, 2.0, 250.0, 0.1,
                   100.0, pair)
    d = row.to_dict()
    assert d["j"] == 2 and d["lambda"] == 2.0 and d["alt_eps"] == {}
    assert d["grid"] == grid_list
    assert d["worst_pair"] == pair_lists


# ---------------------------------------------------------------------------
# the r-parameterized turning bound is false; the arclength one holds


def test_turning_energies_match_flat_closed_forms():
    space = WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.0))
    got = _monotone_geodesic_stats(space, SurfacePoint(-1.0, 0.0),
                                   SurfacePoint(1.0, 3.0))
    assert got is not None
    length, theta_r, theta_s = got
    assert length == pytest.approx(math.sqrt(13.0), abs=1e-9)
    assert theta_r == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-8)
    assert theta_s == pytest.approx(3.0 / 13.0 ** 0.25, abs=1e-8)


def test_turning_rate_counterexample_is_frozen():
    space = WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.0))
    length, theta_r, theta_s = _monotone_geodesic_stats(
        space, SurfacePoint(-1.0, 0.0), SurfacePoint(1.0, 3.0))
    cap = math.sqrt(length) / 1.0  # sqrt(n-1) * sqrt(L) / min f at n=2, f=1
    assert cap == pytest.approx(13.0 ** 0.25, abs=1e-9)
    # the r-parameterized energy violates the cap by a wide margin ...
    assert theta_r > cap + 0.2
    # ... while the arclength energy respects it
    assert theta_s < cap - 0.2


def reference_monotone_geodesic_stats(space, p, q):
    """`_monotone_geodesic_stats` as a loop over the breakpoint pieces: 6
    sub-pieces of the 12-point Gauss-Legendre rule per piece, each piece
    summed alone and added to a running total from 0.0.  The library keeps
    each float operation in this order, so the two agree with `==`."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    target = space.fiber.signed_minor(p.theta, q.theta)
    if p.r == q.r or target == 0.0:
        return None
    out = convergence._shoot_monotone(space, p.r, q.r, target, 1e-9, 60)
    if out is None or out[2] > 1e-6 * (1.0 + abs(target)):
        return None
    length, c, _resid = out
    lo, hi = min(p.r, q.r), max(p.r, q.r)
    edges = np.unique(np.concatenate(
        ([lo, hi], space.breakpoints_unwrapped(lo, hi))))
    total_r = 0.0
    total_s = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        grid = np.linspace(a, b, 7)
        mid = 0.5 * (grid[:-1] + grid[1:])
        half = 0.5 * np.diff(grid)
        x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        f = np.asarray(space.warp_at(x), dtype=float)
        v = 1.0 - (c / f) ** 2
        if np.any(v <= 0):
            return None
        total_r += float(np.sum(w * c * c / (f ** 4 * v)))
        total_s += float(np.sum(w * c * c / (f ** 4 * np.sqrt(v))))
    return length, math.sqrt(total_r), math.sqrt(total_s)


@pytest.mark.parametrize("j", [1, 2, 4, 8])
@pytest.mark.parametrize("base_shape", ["circle", "interval"])
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_turning_statistics_equal_the_loop_reference(kind, base_shape, j):
    fam = SequenceFamily(kind, depth=1.5 if kind in RIDGE_KINDS else 0.5,
                         base_shape=base_shape)
    space = fam.space(j)
    rng = np.random.default_rng(j)
    r = rng.uniform(fam.base.r_min, fam.base.r_max, (30, 2))
    theta = rng.uniform(0.0, TAU, (30, 2))
    for (r_p, r_q), (th_p, th_q) in zip(r, theta):
        p, q = SurfacePoint(r_p, th_p), SurfacePoint(r_q, th_q)
        got = _monotone_geodesic_stats(space, p, q)
        assert got == reference_monotone_geodesic_stats(space, p, q), (p, q)


def test_audit_reports_the_violation_and_the_companion():
    report = run_family_experiment(SequenceFamily("single-ridge", depth=1.5),
                                   [4], grid=GridSpec(128, 128, 2),
                                   with_audits=True)
    rows = {r.name: r for r in report.audits[4]}
    tr = rows["turning-rate"]
    assert not tr.skipped
    assert tr.slack < -1.0          # far beyond any numerical tolerance
    assert not tr.passed
    arc = rows["turning-rate-arclength"]
    assert not arc.skipped
    assert arc.passed
    assert arc.slack >= -arc.tolerance


# ---------------------------------------------------------------------------
# discrepancy estimation on the control family


@pytest.fixture(scope="module")
def constant_report():
    return run_family_experiment(SequenceFamily("constant"), [4],
                                 grid=GridSpec(96, 96, 2), with_audits=True)


def test_constant_family_raw_gap_is_grid_error(constant_report):
    (row,) = constant_report.rows
    assert row.eps_raw <= row.grid_error


def test_constant_family_reference_cancels_exactly(constant_report):
    # stage and reference discretize the identical space, so the corrected
    # gap vanishes to the last bit
    (row,) = constant_report.rows
    assert row.eps_corrected == 0.0


def test_constant_family_audit_slacks_equal_bounds(constant_report):
    rows = {r.name: r for r in constant_report.audits[4]}
    # difference-type observations vanish: slack collapses to the bound
    lower = rows["distance-lower-bound"]
    assert not lower.skipped
    assert abs(lower.observed) <= 1e-9
    assert lower.slack == pytest.approx(-lower.bound, abs=1e-9)
    mono = rows["monotone-length"]
    assert mono.bound == 0.0
    assert mono.observed == 0.0
    assert mono.slack == 0.0
    uni = rows["monotone-uniform"]
    assert uni.bound == 0.0
    assert abs(uni.observed) <= uni.tolerance
    for name, row in rows.items():
        if name != "turning-rate":
            assert row.passed, name


def test_hypothesis_violation_skips_lower_bound():
    report = run_family_experiment(SequenceFamily("cinched-torus", depth=0.5),
                                   [4], grid=GridSpec(96, 96, 2),
                                   with_audits=True)
    rows = {r.name: r for r in report.audits[4]}
    row = rows["distance-lower-bound"]
    assert row.skipped
    assert "dips below" in row.reason
    assert row.passed  # skipping is not failing


def test_skip_reason_reaches_the_report_verbatim():
    # the golden reports carry this string: cinch depth 0.5 against
    # level - 1/j at j = 4
    report = run_family_experiment(SequenceFamily("cinched-torus"), [4],
                                   grid=GridSpec(48, 48, 2), n_sources=2,
                                   n_targets=3, with_audits=True)
    row = next(a for a in report.audits[4] if a.name == "distance-lower-bound")
    assert row.skipped
    assert row.reason == "profile min 0.5 dips below level - 1/j = 0.75"


def test_wrong_limit_floor_for_cinched_torus():
    report = run_family_experiment(SequenceFamily("cinched-torus", depth=0.5),
                                   [8], grid=GridSpec(128, 128, 2),
                                   with_wrong_limit=True)
    (row,) = report.rows
    assert row.alt_eps["product(level=1)"] >= (1.0 - 0.5) * math.pi / 2.0


def test_moving_cinch_alternates_around_threshold():
    fam = SequenceFamily("moving-cinch", depth=0.5)
    lim0 = LimitMetric("cinched-product", depth=0.5, cinch_r=0.0)
    report = run_family_experiment(fam, [3, 5, 6, 10],
                                   grid=GridSpec(128, 128, 2))
    assert report.limit == lim0.describe()
    eps = {row.j: row.eps_corrected for row in report.rows}
    threshold = (1.0 - 0.5) * math.pi / 2.0
    # walk centers: j=3,6 sit at t=0, j=5,10 at t=1
    assert eps[3] < threshold < eps[5]
    assert eps[6] < threshold < eps[10]


# ---------------------------------------------------------------------------
# the experiment harness


def test_run_family_experiment_rows_are_consistent():
    fam = SequenceFamily("single-ridge", depth=1.5)
    report = run_family_experiment(fam, [2, 4], grid=GridSpec(96, 96, 2),
                                   n_sources=4, n_targets=8, with_audits=True)
    assert report.family == fam.describe()
    assert report.limit == "product(level=1)"
    assert report.dimension == 2
    assert [r.j for r in report.rows] == [2, 4]
    for row in report.rows:
        assert row.gh_bound == pytest.approx(2.0 * row.eps_corrected)
        assert row.flat_bound == pytest.approx(flat_upper_bound(
            row.eps_corrected, row.lam, 2, row.mass))
        assert row.l2_norm <= row.l2_bound * (1 + 1e-9)
        assert row.n_pairs == 4 * 8 + len(fam.special_pairs(row.j))
        assert not row.alt_eps  # naive limit coincides with the true one
    assert set(report.audits) == {2, 4}


@pytest.mark.parametrize("j_list", [[], [2, 2]])
def test_run_family_experiment_refuses_empty_or_repeated_stages(monkeypatch,
                                                               j_list):
    def built(*_args):
        raise AssertionError("a graph was built for a refused stage list")

    monkeypatch.setattr(convergence, "GridGraph", built)
    with pytest.raises(ValueError, match="distinct"):
        run_family_experiment(SequenceFamily("constant"), j_list,
                              grid=GridSpec(48, 48, 2), n_sources=2,
                              n_targets=3, with_audits=True)


def test_each_stage_value_is_computed_once(monkeypatch):
    # the audit reads delta and lambda from the stage row, not afresh
    calls = Counter()
    for name in ("lp_profile_distance", "bilipschitz_lambda"):
        def counted(*args, _fn=getattr(convergence, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(convergence, name, counted)
    seen = []
    audit = convergence.audit_theorem_bounds

    def recording(family, result, row):
        seen.append((result, row))
        return audit(family, result, row)

    monkeypatch.setattr(convergence, "audit_theorem_bounds", recording)
    report = run_family_experiment(SequenceFamily("single-ridge", depth=1.5),
                                   [2, 4], grid=GridSpec(48, 48, 2),
                                   n_sources=2, n_targets=3, with_audits=True)
    assert calls == {"lp_profile_distance": 2, "bilipschitz_lambda": 2}
    assert len(seen) == len(report.rows) == 2
    for (result, row), reported in zip(seen, report.rows):
        assert row is reported
        assert result.j == row.j
        assert result.limit == report.limit


def test_run_family_experiment_wrong_limit_column():
    fam = SequenceFamily("cinched-torus", depth=0.5)
    report = run_family_experiment(fam, [4], grid=GridSpec(96, 96, 2),
                                   n_sources=4, n_targets=8,
                                   with_wrong_limit=True)
    row = report.rows[0]
    assert set(row.alt_eps) == {"product(level=1)"}
    assert row.alt_eps["product(level=1)"] > row.eps_corrected


def test_run_family_experiment_moving_cinch_tracks_both_candidates():
    fam = SequenceFamily("moving-cinch", depth=0.5)
    report = run_family_experiment(fam, [3, 5], grid=GridSpec(96, 96, 2),
                                   n_sources=4, n_targets=8)
    assert report.limit == "cinched-product(depth=0.5, r=0)"
    for row in report.rows:
        assert set(row.alt_eps) == {"cinched-product(depth=0.5, r=1)"}
    # at j=3 the cinch sits at 0: near the first candidate, far from the
    # second; at j=5 the roles swap
    at0, at1 = report.rows
    alt = "cinched-product(depth=0.5, r=1)"
    assert at0.eps_corrected < at0.alt_eps[alt]
    assert at1.eps_corrected > at1.alt_eps[alt]


def test_report_serializes_to_plain_dicts():
    report = run_family_experiment(SequenceFamily("constant"), [2],
                                   grid=GridSpec(96, 96, 2),
                                   n_sources=2, n_targets=4, with_audits=True)
    d = report.to_dict()
    assert d["family"] == "constant(base=circle)"
    assert isinstance(d["rows"][0]["worst_pair"], list)
    assert d["rows"][0]["grid"] == [96, 96, 2]
    audit_rows = d["audits"]["2"]
    assert all(set(a) >= {"name", "slack", "passed"} for a in audit_rows)


# Exact pairs: on a circle at the profile's global minimum two points are
# min f times their fiber distance apart, so |d_j - d_lim| there is a gap
# no grid enters.  The antipodal pairs on the minimum circle give, in
# closed form: for the cinched torus 0 to its limit and (1 - depth) pi =
# pi/2 to the naive product; for the moving cinch centered at c = 1/2 (j =
# 4 and 8) 2 |c - r*| sqrt(1 - depth^2) = sqrt(3)/2 to the cinched products
# at r* = 0 and 1 (a leg to the cinch circle and back beats the flat
# route); for ret-cinches, on a dip circle (f = 1), 0 to the stretched mix
# and (5 - 1) 2 pi / 2 = 4 pi to the naive product at level 5.
EXACT_GAPS = [
    ("cinched-torus", j, limit, gap)
    for j in (1, 2, 8)
    for limit, gap in ((LimitMetric("cinched-product", depth=0.5), 0.0),
                       (LimitMetric("product"), math.pi / 2))
] + [
    ("moving-cinch", j, LimitMetric("cinched-product", depth=0.5, cinch_r=r),
     math.sqrt(3) / 2)
    for j in (4, 8) for r in (0.0, 1.0)
] + [
    ("ret-cinches", 3, LimitMetric("stretched-mix"), 0.0),
    ("ret-cinches", 3, LimitMetric("product", level=5.0), 4 * math.pi),
]


@pytest.mark.parametrize("kind, j, limit, gap", EXACT_GAPS)
def test_exact_gap_matches_the_closed_forms(kind, j, limit, gap):
    family = SequenceFamily(kind)
    assert exact_gap(family, j, limit) == pytest.approx(gap, rel=1e-12,
                                                        abs=1e-12)


def test_exact_gap_refuses_a_pair_off_the_minimum_circle():
    family = SequenceFamily("cinched-torus")
    limit = family.naive_limit()
    on = (SurfacePoint(0.0, 0.0), SurfacePoint(0.0, math.pi))
    assert exact_gap(family, 2, limit, [on]) == pytest.approx(math.pi / 2)
    # the special pair on the circle r = 1/(2j), inside the cinch
    off = family.special_pairs(2)[2]
    assert off[0].r == off[1].r == 0.25
    for pair in (off, (SurfacePoint(0.0, 0.0), SurfacePoint(0.25, 1.0))):
        with pytest.raises(HypothesisError):
            exact_gap(family, 2, limit, [on, pair])
    # ridge families have no special pair on a minimum circle: no bound
    assert exact_gap(SequenceFamily("single-ridge", depth=1.5), 2,
                     LimitMetric("product")) == 0.0


# ---------------------------------------------------------------------------
# audit tie rule: each pair check reports the first pair of the smallest
# slack, so two pairs of equal slack but different error bars give the
# first one's tolerance


TIE_PAIRS = [(SurfacePoint(0.0, 0.0), SurfacePoint(1.0, 1.0)),
             (SurfacePoint(0.5, 0.0), SurfacePoint(1.0, 2.0)),
             (SurfacePoint(1.0, 0.0), SurfacePoint(2.0, 1.0))]


def tie_audit(pairs, values, errors):
    """Audit rows, by name, of a constant-family stage (delta 0.25, lam 2)
    whose plan values are the given ones."""
    grid = GridSpec(32, 32, 2)
    stage = plan(pairs, values, errors)
    result = DiscrepancyResult(4, "x", grid, stage, stage.values,
                               stage.values)
    row = StageRow(4, grid, len(values), 0.0, 0.0, 0.0, 0.25, 0.25, 2.0, 1.0,
                   0.0, 0.0, pairs[0])
    return {a.name: a for a in audit_theorem_bounds(SequenceFamily("constant"),
                                                    result, row)}


def test_lower_bound_row_reports_the_first_of_equal_gaps():
    row = lower_bound_row(plan(TIE_PAIRS, [2.0, 1.5, 1.25], [0.03, 0.01, 0.02]),
                          np.array([1.0, 1.0, 0.75]), 1.0, 1.0, 4, 3.0)
    assert row.observed == 0.5
    assert row.tolerance == 0.01 + 1e-9


def test_sandwich_row_reports_the_first_of_equal_slacks():
    row = sandwich_row(plan(TIE_PAIRS, [2.0, 1.5, 2.5], [0.03, 0.01, 0.02]),
                       np.array([2.0, 1.0, 1.5]), 2.0)
    assert row.slack == 0.5
    assert row.tolerance == 0.01 + 1e-9


def test_level_detour_reports_the_first_of_equal_slacks():
    pairs = [(SurfacePoint(2.5, 0.0), SurfacePoint(2.5, 1.0)),
             (SurfacePoint(0.5, 0.0), SurfacePoint(0.5, 1.0)),
             (SurfacePoint(1.5, 2.0), SurfacePoint(1.5, 3.0))]
    row = tie_audit(pairs, [0.5, 1.0, 1.0], [0.03, 0.01, 0.02])["level-detour"]
    assert row.n_samples == 3
    assert row.observed == 1.0
    assert row.tolerance == 0.01


def test_monotone_uniform_reports_the_first_of_equal_slacks():
    # the excesses differ in the last bit, the slacks cap - excess do not:
    # the first pair is the worst, though the second has the larger excess
    pairs = [(SurfacePoint(0.0, 0.0), SurfacePoint(0.5, 0.0)),
             (SurfacePoint(0.0, 0.0), SurfacePoint(1.0, 0.0)),
             (SurfacePoint(1.0, 0.0), SurfacePoint(2.0, 0.0))]
    excess = np.nextafter(2.0, 3.0) - 1.0
    row = tie_audit(pairs, [0.5, 2.0, 1.0 + excess],
                    [0.03, 0.04, 0.05])["monotone-uniform"]
    assert excess > 1.0 and row.bound - 1.0 == row.bound - excess
    assert row.n_samples == 3
    assert row.observed == 1.0
    assert row.tolerance == 0.04
