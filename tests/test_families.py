"""Tests for the stock warped-product sequences and their limit metrics.

The dyadic walk values are frozen from the enumeration rule (level k starts
at index 2^k + k and sweeps centers i/2^k), computed by hand before the
implementation existed; the L2 norms are checked against the closed-form
bounds by independent quadrature.
"""

import math

import pytest
from hypothesis import given, strategies as st

from warpconv import (
    ConstantProfile,
    HypothesisError,
    InvalidDescriptor,
    LimitMetric,
    SequenceFamily,
    SurfacePoint,
    lp_profile_distance,
)
from warpconv.families import (
    FAMILY_KINDS,
    MIX_STRETCH,
    RIDGE_KINDS,
    dyadic_walk,
    lattice_cells,
)

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# dyadic walk enumeration


def test_dyadic_walk_frozen_values():
    # level 0: centers 0, 1 with width 1
    assert dyadic_walk(1) == (0.0, 1.0)
    assert dyadic_walk(2) == (1.0, 1.0)
    # level 1 starts at 2^1 + 1 = 3
    assert dyadic_walk(3) == (0.0, 0.5)
    assert dyadic_walk(4) == (0.5, 0.5)
    assert dyadic_walk(5) == (1.0, 0.5)
    # level 2 starts at 2^2 + 2 = 6
    assert dyadic_walk(6) == (0.0, 0.25)
    assert dyadic_walk(8) == (0.5, 0.25)
    assert dyadic_walk(10) == (1.0, 0.25)
    # level 3 starts at 11, level 4 at 20, level 5 at 37
    assert dyadic_walk(11) == (0.0, 0.125)
    assert dyadic_walk(19) == (1.0, 0.125)
    assert dyadic_walk(20) == (0.0, 0.0625)
    assert dyadic_walk(36) == (1.0, 0.0625)
    assert dyadic_walk(37) == (0.0, 0.03125)
    # center 1/2 is revisited with ever smaller widths
    assert dyadic_walk(16) == (0.625, 0.125)
    assert dyadic_walk(32) == (0.75, 0.0625)


def test_dyadic_walk_rejects_zero():
    with pytest.raises(InvalidDescriptor):
        dyadic_walk(0)


@given(st.integers(min_value=1, max_value=100000))
def test_dyadic_walk_center_is_dyadic_multiple_of_width(j):
    center, width = dyadic_walk(j)
    assert 0.0 <= center <= 1.0
    i = center / width
    assert i == round(i)
    assert 0 <= round(i) <= round(1.0 / width)


def test_every_dyadic_rational_revisited():
    # the center returns to 0 at the start of every level
    starts = [2 ** k + k for k in range(8)]
    for k, j in enumerate(starts):
        assert dyadic_walk(j) == (0.0, 2.0 ** (-k))


def test_lattice_cells():
    assert lattice_cells(1) == 2
    assert lattice_cells(8) == 256
    with pytest.raises(InvalidDescriptor):
        lattice_cells(0)


# ---------------------------------------------------------------------------
# family validation and structure


def test_family_kind_validation():
    with pytest.raises(InvalidDescriptor):
        SequenceFamily("mystery")
    with pytest.raises(InvalidDescriptor):
        SequenceFamily("cinched-torus", depth=1.5)  # cinches dip below 1
    with pytest.raises(InvalidDescriptor):
        SequenceFamily("single-ridge", depth=0.5)  # ridges rise above 1
    with pytest.raises(InvalidDescriptor):
        SequenceFamily("cinched-torus", base_shape="sphere")
    with pytest.raises(InvalidDescriptor):
        SequenceFamily("single-ridge", depth=1.5).profile(0)


def test_cinch_profile_shape():
    fam = SequenceFamily("cinched-torus", depth=0.3)
    f = fam.profile(8)
    assert f(0.0) == pytest.approx(0.3)
    assert f(1.0 / 8.0) == pytest.approx(1.0)
    assert f(2.0) == pytest.approx(1.0)


def test_ridge_profile_shape():
    fam = SequenceFamily("single-ridge", depth=2.0)
    f = fam.profile(4)
    assert f(0.0) == pytest.approx(2.0)
    assert f(0.5) == pytest.approx(1.0)


def test_moving_profile_follows_walk():
    fam = SequenceFamily("moving-cinch", depth=0.5)
    f = fam.profile(4)  # center 0.5, width 0.5
    assert f(0.5) == pytest.approx(0.5)
    assert f(0.5 + 0.5) == pytest.approx(1.0)
    assert f(-0.5) == pytest.approx(1.0)


def test_many_ridges_lattice_layout():
    fam = SequenceFamily("many-ridges", depth=1.5)
    j = 3
    f = fam.profile(j)
    cells = lattice_cells(j)
    spacing = TAU / cells
    # interior centers carry the peak, the seam at -pi stays at 1
    assert f(-math.pi) == pytest.approx(1.0)
    assert f(-math.pi + spacing) == pytest.approx(1.5)
    assert f(-math.pi + 2 * spacing) == pytest.approx(1.5)
    # midpoints between bumps sit at the ambient level (width 4^-j << spacing)
    assert f(-math.pi + 1.5 * spacing) == pytest.approx(1.0)


def test_ret_cinches_dip_to_one():
    fam = SequenceFamily("ret-cinches")
    f = fam.profile(2)
    spacing = TAU / lattice_cells(2)
    assert f(-math.pi + spacing) == pytest.approx(1.0)
    assert f(-math.pi + 1.5 * spacing) == pytest.approx(MIX_STRETCH)
    assert fam.limit_level == MIX_STRETCH


def test_constant_family_is_flat():
    fam = SequenceFamily("constant")
    assert fam.profile(1)(0.37) == 1.0
    assert fam.profile(99)(0.37) == 1.0
    assert fam.l2_analytic_bound(5) == 0.0
    assert fam.limit().describe() == "product(level=1)"


# ---------------------------------------------------------------------------
# limits


def test_limit_assignments():
    assert SequenceFamily("cinched-torus").limit().kind == "cinched-product"
    assert SequenceFamily("single-ridge", depth=1.5).limit().kind == "product"
    assert SequenceFamily("many-ridges", depth=1.5).limit().kind == "product"
    assert SequenceFamily("ret-cinches").limit().kind == "stretched-mix"
    with pytest.raises(InvalidDescriptor):
        SequenceFamily("moving-cinch").limit()


def test_moving_cinch_candidates():
    cands = SequenceFamily("moving-cinch", depth=0.4).candidate_limits()
    assert len(cands) == 2
    assert {c.cinch_r for c in cands} == {0.0, 1.0}
    assert all(c.kind == "cinched-product" and c.depth == 0.4 for c in cands)


def test_naive_limit_level():
    assert SequenceFamily("ret-cinches").naive_limit().level == MIX_STRETCH
    assert SequenceFamily("cinched-torus").naive_limit().level == 1.0


def test_limit_metric_validation_and_describe():
    with pytest.raises(InvalidDescriptor):
        LimitMetric("weird")
    assert LimitMetric("product", level=5).describe() == "product(level=5)"
    assert (LimitMetric("cinched-product", depth=0.5, cinch_r=1.0).describe()
            == "cinched-product(depth=0.5, r=1)")
    assert LimitMetric("stretched-mix").describe() == "stretched-mix(R=5)"


@pytest.mark.parametrize("kind, kwargs", [
    ("product", {"level": -2.0}),
    ("product", {"level": 0.0}),
    ("product", {"level": math.nan}),
    ("product", {"level": math.inf}),
    ("cinched-product", {"depth": 0.0}),
    ("cinched-product", {"depth": 1.5}),
    ("cinched-product", {"depth": math.nan}),
    ("cinched-product", {"depth": 0.5, "cinch_r": math.nan}),
    ("cinched-product", {"depth": 0.5, "cinch_r": math.inf}),
    ("stretched-mix", {"stretch": 0.5}),
    ("stretched-mix", {"stretch": math.nan}),
    ("stretched-mix", {"stretch": math.inf}),
])
def test_limit_metric_rejects_bad_parameters_when_built(kind, kwargs):
    # each of these used to build; the level ones then gave the level-2
    # distance (level -2), a pseudometric (level 0) or nan, cinch_r nan gave
    # the flat distance, depth 0 and stretch 0.5 failed at the first call
    with pytest.raises(InvalidDescriptor):
        LimitMetric(kind, **kwargs)


def test_limit_metric_checks_the_cinch_level_against_the_base():
    lim = LimitMetric("cinched-product", depth=0.5, cinch_r=4.0)
    fam = SequenceFamily("cinched-torus", base_shape="interval")
    p, q = SurfacePoint(0.0, 0.0), SurfacePoint(0.5, 1.0)
    with pytest.raises(HypothesisError):
        lim.distance(fam.base, fam.fiber, p, q)


@pytest.mark.parametrize("base_shape", ["circle", "interval"])
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_every_family_limit_builds(kind, base_shape):
    depth = 1.5 if kind in RIDGE_KINDS else 0.5
    fam = SequenceFamily(kind, depth=depth, base_shape=base_shape)
    limits = list(fam.candidate_limits()) + [fam.naive_limit()]
    if kind != "moving-cinch":
        limits.append(fam.limit())
    p, q = SurfacePoint(0.0, 0.0), SurfacePoint(0.5, 1.0)
    for lim in limits:
        assert lim.distance(fam.base, fam.fiber, p, q) > 0.0


def test_limit_metric_distances_degenerate_cases():
    fam = SequenceFamily("cinched-torus")
    base, fiber = fam.base, fam.fiber
    p = SurfacePoint(0.3, 1.0)
    for kind, kwargs in (("product", {}),
                         ("cinched-product", {"depth": 0.5}),
                         ("stretched-mix", {})):
        lim = LimitMetric(kind, **kwargs)
        assert lim.distance(base, fiber, p, p) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# L2 norms against the closed-form bounds


@pytest.mark.parametrize("kind,depth,js", [
    ("cinched-torus", 0.5, (2, 5, 9)),
    ("single-ridge", 1.5, (2, 5, 9)),
    ("moving-cinch", 0.3, (3, 8, 13)),
    ("moving-ridges", 2.0, (3, 8, 13)),
    ("many-ridges", 1.5, (1, 3, 5)),
    ("ret-cinches", 0.5, (1, 2, 3)),
])
def test_l2_norm_below_analytic_bound(kind, depth, js):
    fam = SequenceFamily(kind, depth=depth)
    level = ConstantProfile(fam.limit_level)
    for j in js:
        norm = lp_profile_distance(fam.profile(j), level, 2, fam.base)
        bound = fam.l2_analytic_bound(j)
        assert norm <= bound * (1 + 1e-9), (j, norm, bound)
        # the bound is meant to be of the right order, not just an upper cap
        assert norm >= 0.2 * bound


def test_l2_bound_spot_values():
    assert SequenceFamily("cinched-torus").l2_analytic_bound(8) == \
        pytest.approx(0.5)
    assert SequenceFamily("many-ridges", depth=1.5).l2_analytic_bound(3) == \
        pytest.approx(math.sqrt(7 * 2.0 * 4.0 ** -3))
    # mix family: amplitude 4 = stretch - 1 scales the unit-amplitude norm
    assert SequenceFamily("ret-cinches").l2_analytic_bound(3) == \
        pytest.approx(4.0 * math.sqrt(7 * 2.0 * 4.0 ** -3))


# ---------------------------------------------------------------------------
# sample plans


@pytest.mark.parametrize("kind,depth", [
    ("cinched-torus", 0.5), ("moving-cinch", 0.5), ("single-ridge", 1.5),
    ("moving-ridges", 1.5), ("many-ridges", 1.5), ("ret-cinches", 0.5),
    ("constant", 0.5),
])
def test_sample_plan_wellformed(kind, depth):
    fam = SequenceFamily(kind, depth=depth)
    plan = fam.sample_plan(4)
    assert plan.n_pairs == 8 * 16 + len(fam.special_pairs(4))
    base, fiber = fam.base, fam.fiber
    for a, b in plan.pairs():
        for pt in (a, b):
            assert base.r_min - 1e-9 <= pt.r <= base.r_min + base.length + 1e-9
            assert -1e-9 <= pt.theta <= fiber.circumference * 1.3


def test_special_pairs_hit_the_bump():
    fam = SequenceFamily("cinched-torus", depth=0.5)
    pairs = fam.special_pairs(8)
    # an antipodal pair pinned to the cinch level r=0
    assert any(a.r == 0.0 and b.r == 0.0 and
               abs(a.theta - b.theta) == pytest.approx(math.pi)
               for a, b in pairs)


def test_describe_strings():
    assert SequenceFamily("cinched-torus").describe() == \
        "cinched-torus(depth=0.5, base=circle)"
    assert SequenceFamily("constant").describe() == "constant(base=circle)"
    assert SequenceFamily("single-ridge", depth=1.5,
                          base_shape="interval").describe() == \
        "single-ridge(depth=1.5, base=interval)"


def test_all_kinds_enumerated():
    assert set(FAMILY_KINDS) == {
        "cinched-torus", "moving-cinch", "single-ridge", "moving-ridges",
        "many-ridges", "ret-cinches", "constant"}
