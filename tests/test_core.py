"""Unit and property tests for the geometry core.

Closed-form values (bump integrals, Lp norms, mass) are checked against
independent dense-quadrature oracles computed here with numpy, not against
the library's own quadrature helpers.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import SumOfBumpsProfile
from warpconv import (
    TAU,
    BaseSpace,
    BumpLatticeProfile,
    BumpProfile,
    ConstantProfile,
    DomainError,
    FiberSpace,
    HypothesisError,
    InvalidDescriptor,
    PolylineCurve,
    SequenceFamily,
    SurfacePoint,
    WarpedSpace,
    bilipschitz_lambda,
    cinch_bump,
    circle_base,
    curve_length,
    diameter_upper_bound,
    interval_base,
    lp_profile_distance,
    ridge_bump,
    sandwich_bounds,
    segment_length,
    theta_energy,
)
from warpconv.core import sorted_distinct
from warpconv.families import FAMILY_KINDS, RIDGE_KINDS


def dense_integral(fn, lo: float, hi: float, n: int = 200001) -> float:
    """Trapezoid oracle on a uniform grid, independent of library quadrature."""
    xs = np.linspace(lo, hi, n)
    ys = np.asarray(fn(xs), dtype=float)
    return float(np.trapezoid(ys, xs)) if hasattr(np, "trapezoid") else float(np.trapz(ys, xs))


@given(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1e-300, math.pi])
                | st.floats(-10.0, 10.0), max_size=40))
@settings(max_examples=200, deadline=None)
def test_sorted_distinct_is_np_unique_bit_for_bit(values):
    got, want = sorted_distinct(values), np.unique(np.asarray(values, dtype=float))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# bump shape and single-bump profiles


def test_bump_shape_endpoints_and_center():
    b = BumpProfile(level=1.0, peak=2.0, center=0.0, half_width=1.0)
    assert b(0.0) == pytest.approx(2.0, abs=1e-15)
    assert b(1.0) == pytest.approx(1.0, abs=1e-15)
    assert b(-1.0) == pytest.approx(1.0, abs=1e-15)
    assert b(5.0) == 1.0  # far outside support


def test_bump_is_c1_at_support_edge():
    b = BumpProfile(level=1.0, peak=1.7, center=0.3, half_width=0.2)
    # one-sided difference quotients straddling the edge r = 0.5
    h = 1e-7
    inner = (b(0.5 - h) - b(0.5 - 2 * h)) / h
    outer = (b(0.5 + 2 * h) - b(0.5 + h)) / h
    assert abs(inner - outer) < 1e-4


def test_single_bump_integral_closed_form():
    # integral of the shape over its support is exactly half_width
    level, peak, delta = 1.0, 1.6, 0.37
    b = BumpProfile(level=level, peak=peak, center=-0.4, half_width=delta)
    excess = dense_integral(lambda x: b(x) - level, -0.4 - delta, -0.4 + delta)
    assert excess == pytest.approx((peak - level) * delta, rel=1e-9)


def test_single_bump_square_integral():
    # the squared shape integrates to 3/4 of the support half-width
    delta = 0.52
    b = BumpProfile(level=1.0, peak=2.0, center=0.1, half_width=delta)
    sq = dense_integral(lambda x: (b(x) - 1.0) ** 2, 0.1 - delta, 0.1 + delta)
    assert sq == pytest.approx(0.75 * delta, rel=1e-9)


def test_cinch_and_ridge_validation():
    assert cinch_bump(0.3, 0.0, 0.25)(0.0) == pytest.approx(0.3)
    assert ridge_bump(1.8, 0.0, 0.25)(0.0) == pytest.approx(1.8)
    with pytest.raises(InvalidDescriptor):
        cinch_bump(0.0, 0.0, 0.25)  # depth must stay positive
    with pytest.raises(InvalidDescriptor):
        cinch_bump(1.2, 0.0, 0.25)
    with pytest.raises(InvalidDescriptor):
        ridge_bump(1.0, 0.0, 0.25)  # a ridge must exceed the ambient level
    with pytest.raises(InvalidDescriptor):
        ridge_bump(2.5, 0.0, 0.25)


@pytest.mark.parametrize("build", [
    # a NaN center reads as no bump at all: the cinched-torus j=4 profile
    # at center NaN gave the flat distance 3.3734 on (-1, 0) -> (0, pi) at
    # 64^2 k=2, where center 0 gives 2.3791
    lambda: BumpProfile(1.0, 0.5, math.nan, 0.25),
    lambda: BumpProfile(1.0, 0.5, math.inf, 0.25),
    lambda: BumpProfile(math.inf, 0.5, 0.0, 0.25),
    lambda: BumpProfile(math.nan, 0.5, 0.0, 0.25),
    lambda: BumpProfile(1.0, math.inf, 0.0, 0.25),
    lambda: BumpProfile(1.0, 0.5, 0.0, math.inf),
    lambda: BumpProfile(1.0, 0.5, 0.0, math.nan),
    lambda: BumpLatticeProfile(5.0, 1.0, 2.5, 0.1),
    lambda: BumpLatticeProfile(5.0, 1.0, 4.0, 0.1),
    lambda: BumpLatticeProfile(5.0, 1.0, True, 0.1),
    lambda: BumpLatticeProfile(math.inf, 1.0, 4, 0.1),
    lambda: BumpLatticeProfile(math.nan, 1.0, 4, 0.1),
    lambda: BumpLatticeProfile(5.0, math.inf, 4, 0.1),
    lambda: ConstantProfile(math.inf),
    lambda: ConstantProfile(math.nan),
    lambda: FiberSpace(math.inf),
    lambda: FiberSpace(math.nan),
    lambda: interval_base(0.0, math.inf),
    lambda: interval_base(-math.inf, 0.0),
    lambda: interval_base(math.nan, 1.0),
], ids=["bump-center-nan", "bump-center-inf", "bump-level-inf", "bump-level-nan",
        "bump-peak-inf", "bump-width-inf", "bump-width-nan",
        "lattice-cells-float", "lattice-cells-integral-float", "lattice-cells-bool",
        "lattice-level-inf", "lattice-level-nan", "lattice-peak-inf",
        "constant-inf", "constant-nan", "fiber-inf", "fiber-nan",
        "interval-to-inf", "interval-from-inf", "interval-from-nan"])
def test_non_finite_or_non_integer_descriptors_are_refused_when_built(build):
    with pytest.raises(InvalidDescriptor):
        build()


def test_lattice_cells_may_be_a_numpy_integer():
    assert BumpLatticeProfile(5.0, 1.0, np.int64(4), 0.1)(0.0) == 1.0


@given(
    peak=st.floats(0.1, 3.0),
    center=st.floats(-3.0, 3.0),
    delta=st.floats(0.01, 1.0),
    lo=st.floats(-4.0, 4.0),
    width=st.floats(0.01, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_bump_min_max_on_window_match_dense_sampling(peak, center, delta, lo, width):
    prof = BumpProfile(level=1.0, peak=peak, center=center, half_width=delta)
    hi = lo + width
    xs = np.linspace(lo, hi, 4001)
    # candidate extremum locations are known from the construction, so the
    # dense grid plus those points is an exact oracle
    cands = [x for x in (center, center - delta, center + delta) if lo <= x <= hi]
    xs = np.concatenate([xs, np.array(cands)]) if cands else xs
    vals = prof(xs)
    assert prof.min_on(lo, hi) == pytest.approx(float(np.min(vals)), abs=1e-12)
    assert prof.max_on(lo, hi) == pytest.approx(float(np.max(vals)), abs=1e-12)


@given(
    a=st.floats(-3.0, 3.0),
    w1=st.floats(0.01, 2.0),
    w2=st.floats(0.01, 2.0),
)
@settings(max_examples=40, deadline=None)
def test_integral_additive_over_adjacent_windows(a, w1, w2):
    prof = BumpProfile(level=0.8, peak=1.9, center=0.25, half_width=0.4)
    b, c = a + w1, a + w1 + w2
    whole = prof.integral_on(a, c)
    parts = prof.integral_on(a, b) + prof.integral_on(b, c)
    assert whole == pytest.approx(parts, abs=1e-12)


# ---------------------------------------------------------------------------
# composite profiles


def test_sum_of_bumps_rejects_overlap():
    # overlapping cinches would dip to -0.536 while min_on reports -0.35
    with pytest.raises(InvalidDescriptor):
        SumOfBumpsProfile(level=1.0, bumps=((0.1, 0.0, 1.0), (0.1, 0.5, 1.0)))
    # supports meeting across the seam of a circle base overlap too
    with pytest.raises(InvalidDescriptor):
        SumOfBumpsProfile(level=1.0, bumps=((1.5, 3.0, 0.2), (1.5, -3.0, 0.2)))
    # touching supports are disjoint; each bump then evaluates on its own
    b1 = BumpProfile(level=1.0, peak=1.5, center=0.0, half_width=0.5)
    b2 = BumpProfile(level=1.0, peak=1.4, center=1.0, half_width=0.5)
    s = SumOfBumpsProfile(level=1.0, bumps=((1.5, 0.0, 0.5), (1.4, 1.0, 0.5)))
    xs = np.linspace(-1.0, 2.0, 61)
    assert np.allclose(s(xs), b1(xs) + b2(xs) - 1.0, atol=1e-14)
    assert s.min_on(-math.pi, math.pi) == 1.0


def test_bump_lattice_matches_explicit_sum():
    cells = 8
    lat = BumpLatticeProfile(level=1.0, peak=1.25, cells=cells, half_width=0.05)
    centers = [-math.pi + TAU * i / cells for i in range(1, cells)]
    explicit = SumOfBumpsProfile(level=1.0, bumps=tuple((1.25, c, 0.05) for c in centers))
    xs = np.linspace(-math.pi, math.pi, 1234)
    assert np.allclose(lat(xs), explicit(xs), atol=1e-13)


def test_bump_lattice_integral_and_l2_closed_forms():
    cells = 16
    peak, delta = 1.5, 0.02
    lat = BumpLatticeProfile(level=1.0, peak=peak, cells=cells, half_width=delta)
    num = dense_integral(lambda x: lat(x) - 1.0, -math.pi, math.pi, 400001)
    assert num == pytest.approx((cells - 1) * (peak - 1.0) * delta, rel=1e-6)

    l2_num = math.sqrt(dense_integral(lambda x: (lat(x) - 1.0) ** 2, -math.pi, math.pi, 400001))
    base, level = interval_base(-math.pi, math.pi), ConstantProfile(1.0)
    l2 = lp_profile_distance(lat, level, 2, base)
    assert l2 == pytest.approx(l2_num, rel=1e-6)
    # the squared bump shape integrates to 3/4 of its half-width
    l2_closed = math.sqrt((cells - 1) * (peak - 1.0) ** 2 * delta * 0.75)
    assert l2 == pytest.approx(l2_closed, rel=1e-9)
    l1 = lp_profile_distance(lat, level, 1, base)
    assert l1 == pytest.approx((cells - 1) * (peak - 1.0) * delta, rel=1e-9)


# ---------------------------------------------------------------------------
# base spaces and warped spaces


def test_circle_base_wrapping_and_distance():
    b = circle_base()
    assert b.is_circle
    assert b.distance(-math.pi + 0.1, math.pi - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert b.wrap(math.pi + 0.3) == pytest.approx(-math.pi + 0.3, abs=1e-12)


def test_interval_base_contains_and_rejects():
    b = interval_base(-1.0, 2.0)
    assert b.contains(0.0) and b.contains(2.0)
    assert not b.contains(2.0001)
    with pytest.raises(InvalidDescriptor):
        BaseSpace("interval", 1.0, 1.0)


def test_base_contains_is_elementwise():
    r = np.array([-1.0 - 1e-12, -1.0 - 2e-12, 0.5, 2.0 + 1e-12, 2.0001, np.nan])
    interval = interval_base(-1.0, 2.0)
    assert interval.contains(r).tolist() == [True, False, True, True, False, False]
    assert interval.contains(r).tolist() == [interval.contains(x) for x in r.tolist()]
    assert circle_base().contains(r).tolist() == [True] * r.size
    assert circle_base().contains(10.0)


def test_fiber_distance_minor_arc():
    f = FiberSpace()
    assert f.distance(0.1, TAU - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert f.diameter == pytest.approx(math.pi)
    assert f.signed_minor(0.1, TAU - 0.1) == pytest.approx(-0.2, abs=1e-12)


def test_mass_closed_form_single_cinch():
    h0, delta = 0.5, 0.125
    sp = WarpedSpace(circle_base(), FiberSpace(), cinch_bump(h0, 0.0, delta))
    # area = circumference * integral of f = 2pi * (2pi - delta*(1 - h0))
    expect = TAU * (TAU - delta * (1.0 - h0))
    assert sp.mass() == pytest.approx(expect, rel=1e-12)


def test_warp_min_max_on_wrapped_window():
    sp = WarpedSpace(circle_base(), FiberSpace(), ridge_bump(1.5, 3.0, 0.4))
    # window crossing the seam must still see the ridge at r=3.0
    assert sp.warp_max_on(2.8, math.pi + (3.4 - math.pi)) == pytest.approx(1.5, abs=1e-12)
    assert sp.warp_min_on(-0.5, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_warp_min_max_on_see_bumps_beyond_the_breakpoint_cap():
    # 2047 dips are more than breakpoints_in refines, so it gives none;
    # the extremes come from the lattice itself
    space = SequenceFamily("ret-cinches").space(11)
    assert space.profile.breakpoints_in(-math.pi, math.pi).size == 0
    assert space.warp_min_on(-math.pi, math.pi) == space.profile_min() == 1.0
    assert space.warp_max_on(-math.pi, math.pi) == space.profile_max() == 5.0


def test_lattice_min_on_a_short_window_around_a_ridge_center():
    space = SequenceFamily("many-ridges", depth=1.5).space(3)
    lat = space.profile
    center = -math.pi + 3 * lat.spacing
    lo, hi = center - 1e-4, center + 1e-4
    # the window never leaves the ridge: its min is at the ends, not the level
    want = float(np.min(lat(np.array([lo, hi]))))
    assert want == pytest.approx(1.49995, abs=1e-6)
    assert lat.min_on(lo, hi) == space.warp_min_on(lo, hi) == want
    assert lat.max_on(lo, hi) == space.warp_max_on(lo, hi) == 1.5


@given(
    cells=st.integers(2, 16),
    width=st.floats(0.05, 1.0),
    peak=st.sampled_from([0.2, 1.0, 1.5]),
    lo=st.floats(-3.5, 3.5),
    span=st.floats(0.0, 2.0),
)
@settings(max_examples=80, deadline=None)
def test_lattice_min_max_on_window_match_dense_sampling(cells, width, peak, lo,
                                                        span):
    lat = BumpLatticeProfile(1.0, peak, cells, width * math.pi / cells)
    hi = lo + span ** 3  # windows from a point to two lattice spacings and more
    # every center and every midway point between lattice points in the
    # window, where the profile turns or sits at the level
    marks = -math.pi + 0.5 * lat.spacing * np.arange(2 * cells + 1)
    xs = np.concatenate((np.linspace(lo, hi, 4001),
                         marks[(marks >= lo) & (marks <= hi)]))
    vals = lat(xs)
    assert lat.min_on(lo, hi) == pytest.approx(float(np.min(vals)), abs=1e-12)
    assert lat.max_on(lo, hi) == pytest.approx(float(np.max(vals)), abs=1e-12)


# ---------------------------------------------------------------------------
# curves and lengths


def test_flat_polyline_length_is_euclidean():
    sp = WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.0))
    pts = [SurfacePoint(0.0, 0.0), SurfacePoint(0.3, 0.4), SurfacePoint(0.3, 1.0)]
    crv = PolylineCurve(pts)
    assert curve_length(sp, crv) == pytest.approx(0.5 + 0.6, rel=1e-12)


def test_theta_wrap_counts_extend_segments():
    sp = WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.0))
    pts = [SurfacePoint(0.0, 0.0), SurfacePoint(0.0, 1.0)]
    crv = PolylineCurve(pts, theta_wraps=[1])
    assert curve_length(sp, crv) == pytest.approx(1.0 + TAU, rel=1e-12)


def test_pure_segments_are_exact():
    sp = WarpedSpace(circle_base(), FiberSpace(), ridge_bump(1.5, 0.0, 0.25))
    assert segment_length(sp, -0.5, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    # pure fiber segment respects the warp at its row
    assert segment_length(sp, 0.0, 0.0, 0.7) == pytest.approx(1.5 * 0.7, abs=1e-14)


def test_segment_length_bounded_by_warp_extremes():
    sp = WarpedSpace(circle_base(), FiberSpace(), cinch_bump(0.5, 0.0, 0.25))
    dr, dth = 0.8, 1.1
    val = segment_length(sp, -0.4, dr, dth)
    fmin = sp.warp_min_on(-0.4, 0.4)
    fmax = sp.warp_max_on(-0.4, 0.4)
    assert val >= math.hypot(dr, fmin * dth) - 1e-12
    assert val <= math.hypot(dr, fmax * dth) + 1e-12


@pytest.mark.parametrize("points", [0, -1, 2.5, True, np.float64(4)])
def test_segment_and_curve_length_reject_points_per_piece_not_an_integer_ge_1(points):
    # 0 divided by zero: a RuntimeWarning here, NaN elsewhere
    sp = WarpedSpace(circle_base(), FiberSpace(), cinch_bump(0.5, 0.0, 0.25))
    crv = PolylineCurve([SurfacePoint(-0.4, 0.0), SurfacePoint(0.4, 1.1)])
    with pytest.raises(ValueError, match="points_per_piece"):
        segment_length(sp, -0.4, 0.8, 1.1, points_per_piece=points)
    with pytest.raises(ValueError, match="points_per_piece"):
        curve_length(sp, crv, points_per_piece=points)


def test_segment_and_curve_length_take_numpy_integers():
    sp = WarpedSpace(circle_base(), FiberSpace(), cinch_bump(0.5, 0.0, 0.25))
    crv = PolylineCurve([SurfacePoint(-0.4, 0.0), SurfacePoint(0.4, 1.1)])
    assert segment_length(sp, -0.4, 0.8, 1.1, points_per_piece=np.int64(4)) == \
        segment_length(sp, -0.4, 0.8, 1.1, points_per_piece=4)
    assert curve_length(sp, crv, points_per_piece=np.int32(1)) == \
        curve_length(sp, crv, points_per_piece=1)


def test_curve_length_rejects_interval_exit():
    sp = WarpedSpace(interval_base(), FiberSpace(), ConstantProfile(1.0))
    crv = PolylineCurve([SurfacePoint(3.0, 0.0), SurfacePoint(4.0, 0.0)])
    with pytest.raises(DomainError):
        curve_length(sp, crv)


def test_theta_energy_on_monotone_staircase():
    sp = WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.0))
    pts = [SurfacePoint(0.0, 0.0), SurfacePoint(0.5, 1.0), SurfacePoint(1.0, 1.5)]
    crv = PolylineCurve(pts)
    expect = math.sqrt(1.0**2 / 0.5 + 0.5**2 / 0.5)
    assert theta_energy(sp, crv) == pytest.approx(expect, rel=1e-12)


def test_theta_energy_requires_monotone_base():
    sp = WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.0))
    crv = PolylineCurve([SurfacePoint(0.0, 0.0), SurfacePoint(0.5, 1.0), SurfacePoint(0.2, 1.5)])
    with pytest.raises(HypothesisError):
        theta_energy(sp, crv)
    flat = PolylineCurve([SurfacePoint(0.0, 0.0), SurfacePoint(0.0, 1.0)])
    with pytest.raises(HypothesisError):
        theta_energy(sp, flat)


def _ridge_quadrature_bound(prof, r0, dr, dth, points_per_piece, step):
    """Error bounds of the composite midpoint rule with `points_per_piece`
    midpoints per piece and of the trapezoid rule with step `step`, for
    the length integral of g(t) = sqrt(dr^2 + (f(r0 + t dr) dth)^2) on
    [0, 1] under the single bump `prof`.

    Per piece between breakpoints, the midpoint error is at most
    width (width / m)^2 / 24 max|g''| and the trapezoid error at most
    width step^2 / 12 max|g''|.  With u = f(r(t)), g'' = dth^2 (u'^2 +
    u u'') / g - g'^2 / g, and g >= |u dth|, |g'| <= |dth u'| give
    |g''| <= |dth| dr^2 (2 f'^2 / f + |f''|): zero off the bump, and on it
    at most |dth| dr^2 (2 F1^2 / min f + F2) with F1 = |amp| pi / (2 w)
    and F2 = |amp| pi^2 / (2 w^2) the cosine bump's derivative bounds.
    r stays in [-3.5, 3.5], away from the bump's 2 pi images.
    """
    if dr == 0.0:
        return 0.0, 0.0
    amp, w = abs(prof.peak - prof.level), prof.half_width
    f1, f2 = amp * math.pi / (2 * w), amp * math.pi ** 2 / (2 * w * w)
    g2 = abs(dth) * dr * dr * (2 * f1 * f1 / min(prof.level, prof.peak) + f2)
    cuts = sorted({0.0, 1.0} | {
        t for t in ((b - r0) / dr for b in (prof.center - w, prof.center,
                                             prof.center + w))
        if 0.0 < t < 1.0})
    midpoint = trapezoid = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if abs(r0 + 0.5 * (a + b) * dr - prof.center) < w:
            width = b - a
            midpoint += width * (width / points_per_piece) ** 2 / 24 * g2
            trapezoid += width * step * step / 12 * g2
    return midpoint, trapezoid


@given(
    r0=st.floats(-2.0, 2.0),
    dr=st.floats(-1.5, 1.5),
    dth=st.floats(-3.0, 3.0),
)
# the 8-point error is 3.5e-4 here (3.05e-4 relative) against a derived
# bound of 1.09e-3, all of it on the piece t in [0.1, 1]
@example(r0=0.71875, dr=-0.1875, dth=1.0)
@settings(max_examples=60, deadline=None)
def test_segment_length_matches_dense_quadrature(r0, dr, dth):
    prof = ridge_bump(1.7, 0.4, 0.3)
    sp = WarpedSpace(circle_base(), FiberSpace(), prof)
    ts = np.linspace(0.0, 1.0, 20001)
    rs = r0 + dr * ts
    f = sp.warp_at(rs)
    integrand = np.sqrt(dr * dr + (f * dth) ** 2)
    oracle = float(np.trapezoid(integrand, ts)) if hasattr(np, "trapezoid") else float(np.trapz(integrand, ts))
    coarse = segment_length(sp, r0, dr, dth, points_per_piece=8)
    fine = segment_length(sp, r0, dr, dth, points_per_piece=128)
    midpoint, trapezoid = _ridge_quadrature_bound(prof, r0, dr, dth, 8,
                                                  ts[1] - ts[0])
    assert abs(coarse - oracle) <= midpoint + trapezoid + 1e-12 * (1.0 + oracle)
    assert fine == pytest.approx(oracle, rel=3e-6, abs=1e-8)


# ---------------------------------------------------------------------------
# norms and bounds


def test_lp_profile_distance_single_bump_l2():
    h0, delta = 0.5, 0.125
    prof = cinch_bump(h0, 0.0, delta)
    flat = ConstantProfile(1.0)
    closed = abs(1.0 - h0) * math.sqrt(3.0 * delta) / 2.0
    got = lp_profile_distance(prof, flat, 2, circle_base())
    assert got == pytest.approx(closed, rel=1e-9)


def test_lp_profile_distance_l1_is_mass_deficit():
    h0, delta = 0.3, 0.2
    prof = cinch_bump(h0, 1.0, delta)
    got = lp_profile_distance(prof, ConstantProfile(1.0), 1, circle_base())
    assert got == pytest.approx(delta * (1.0 - h0), rel=1e-9)


def test_lp_profile_distance_keeps_the_plain_sum_at_p_1_and_2():
    # the bits the golden reports print: the rescaled sum is never taken
    cinch = cinch_bump(0.5, 0.0, 0.25)
    ret = SequenceFamily("ret-cinches").profile(1)
    flat = ConstantProfile(1.0)
    assert lp_profile_distance(cinch, flat, 1, circle_base()) == 0.125
    assert lp_profile_distance(cinch, flat, 2, circle_base()) == 0.2165063509461097
    assert lp_profile_distance(ret, flat, 1, circle_base()) == 24.13274122871835
    assert lp_profile_distance(ret, flat, 2, circle_base()) == 9.773994317313337


@pytest.mark.parametrize("profile, sup", [
    (cinch_bump(0.5, 0.0, 0.25), 0.5),  # each |a - b|^p underflows
    (SequenceFamily("ret-cinches").profile(1), 4.0),  # ... or overflows
], ids=["underflow", "overflow"])
def test_lp_profile_distance_tends_to_the_sup_distance_at_large_p(profile, sup):
    # ||g||_p / (2 pi)^(1/p) grows with p towards the sup of |g|
    flat = ConstantProfile(1.0)
    means = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in [100, 600, 1e3, 1e4, 1e6]:
            got = lp_profile_distance(profile, flat, p, circle_base())
            means.append(got / TAU ** (1 / p))
    assert all(0 < x <= y for x, y in zip(means, means[1:]))
    assert means[-1] <= sup and means[-1] == pytest.approx(sup, rel=1e-4)


def reference_lp_profile_distances(a, b, ps, base):
    """The L^p distances for each p in `ps` as a loop: every breakpoint
    piece cut into 16 sub-pieces, each summed alone under the 8-point
    Gauss-Legendre rule and added to a running total from 0.0.
    `lp_profile_distance` keeps each float operation in this order, so the
    two agree with `==`.  The profiles are evaluated once, on all nodes,
    which leaves each value's bits as they are."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    lo, hi = base.r_min, base.r_max
    cuts = np.unique(np.concatenate((
        [lo, hi], a.breakpoints_in(lo, hi), b.breakpoints_in(lo, hi))))
    halves, xs = [], []
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        sub = np.linspace(x0, x1, 17)
        for s0, s1 in zip(sub[:-1], sub[1:]):
            mid = 0.5 * (s0 + s1)
            half = 0.5 * (s1 - s0)
            halves.append(half)
            xs.append(mid + half * nodes)
    xs = np.concatenate(xs)
    diffs = np.split(np.abs(np.asarray(a(xs), dtype=float)
                            - np.asarray(b(xs), dtype=float)), len(halves))

    def power_sum(p, scale):
        total = 0.0
        for half, diff in zip(halves, diffs):
            total += half * np.sum(weights * (diff / scale) ** p)
        return total

    out = []
    for p in ps:
        with np.errstate(over="ignore"):
            total = power_sum(p, 1.0)
        largest = max(diff.max() for diff in diffs)
        if (total == 0 and largest > 0) or not math.isfinite(total):
            out.append(float(largest * power_sum(p, largest) ** (1.0 / p)))
        else:
            out.append(float(total ** (1.0 / p)))
    return out


@pytest.mark.parametrize("j", [1, 2, 4, 8])
@pytest.mark.parametrize("base_shape", ["circle", "interval"])
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_lp_profile_distance_equals_the_loop_reference(kind, base_shape, j):
    fam = SequenceFamily(kind, depth=1.5 if kind in RIDGE_KINDS else 0.5,
                         base_shape=base_shape)
    ps = [1, 2, 3.5, 50, 1e6]
    # the level, and a second profile whose breakpoints cut the pieces too
    for other in (ConstantProfile(fam.limit_level), fam.profile(j + 1)):
        got = [lp_profile_distance(fam.profile(j), other, p, fam.base)
               for p in ps]
        assert got == reference_lp_profile_distances(fam.profile(j), other,
                                                     ps, fam.base), other


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
def test_lp_profile_distance_rejects_p_outside_its_range(p):
    # the quadrature has no p = inf limit: the sup distance here is 0.5
    with pytest.raises(ValueError):
        lp_profile_distance(cinch_bump(0.5, 0.0, 0.25), ConstantProfile(1.0),
                            p, circle_base())


def test_diameter_upper_bound_components():
    sp = WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.0))
    db = diameter_upper_bound(sp, delta_l2=0.0)
    assert db.circle_base
    assert db.base_term == pytest.approx(TAU)
    assert db.fiber_term == pytest.approx(math.pi)  # sup f * fiber diameter
    assert db.value == pytest.approx(TAU + math.pi)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -0.5])
def test_diameter_upper_bound_rejects_a_distance_not_finite_and_nonnegative(delta):
    sp = WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.0))
    with pytest.raises(ValueError):
        diameter_upper_bound(sp, delta_l2=delta)


def test_sandwich_and_lambda():
    fiber = FiberSpace()
    cinchy = WarpedSpace(circle_base(), fiber, cinch_bump(0.5, 0.0, 0.25))
    assert sandwich_bounds(cinchy) == (0.5, 1.0)
    assert bilipschitz_lambda(cinchy) == pytest.approx(2.0)

    ridgey = WarpedSpace(circle_base(), fiber, ridge_bump(1.5, 0.0, 0.25))
    lo, hi = sandwich_bounds(ridgey)
    assert lo == 1.0  # the sandwich always contains the unit scale
    assert hi == pytest.approx(1.5)
    assert bilipschitz_lambda(ridgey) == pytest.approx(1.5)
