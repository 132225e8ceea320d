"""Tests for the deterministic low-discrepancy sample plans."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from warpconv import (
    InvalidDescriptor,
    SamplePlan,
    SurfacePoint,
    circle_base,
    default_plan,
    halton_points,
    interval_base,
    radical_inverse,
    surface_samples,
)
from warpconv.core import FiberSpace
from warpconv.torus3 import cube_samples


def test_radical_inverse_known_values():
    # 6 = 110 in base 2, digits reversed behind the point: 0.011 = 3/8
    assert radical_inverse(6, 2) == 3 / 8
    assert radical_inverse(np.int64(6), np.int32(2)) == 3 / 8
    assert radical_inverse(0, 2) == 0.0
    assert radical_inverse(1, 2) == 0.5
    # 5 = 12_3, reversed behind the point 0.21_3 = 2/3 + 1/9 = 7/9
    assert radical_inverse(5, 3) == pytest.approx(7 / 9, rel=1e-15)


def test_radical_inverse_rejects_negative():
    with pytest.raises(ValueError):
        radical_inverse(-1, 2)


@pytest.mark.parametrize("index,base", [(5, 1), (5, 0), (2.5, 2)],
                         ids=["base-1", "base-0", "fractional-index"])
def test_radical_inverse_rejects_bad_base_and_index(index, base):
    # base 1 never shrinks the index, base 0 divides by zero, and a
    # fractional index has no digits
    with pytest.raises(ValueError):
        radical_inverse(index, base)


@given(st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=2, max_value=13))
def test_radical_inverse_lands_in_unit_interval(index, base):
    x = radical_inverse(index, base)
    assert 0.0 <= x < 1.0


@given(st.integers(min_value=1, max_value=2 ** 20).map(lambda i: 2 * i),
       st.integers(min_value=1, max_value=2 ** 20).map(lambda i: 2 * i + 1))
def test_radical_inverse_base2_parity(even, odd):
    # lowest input digit becomes the leading output digit
    assert radical_inverse(even, 2) < 0.5
    assert radical_inverse(odd, 2) >= 0.5


def test_halton_points_deterministic_and_offset_disjoint():
    a = halton_points(16, dims=2)
    b = halton_points(16, dims=2)
    assert a == b
    c = halton_points(16, dims=2, offset=16)
    assert not set(a) & set(c)


def test_halton_points_skip_origin():
    pts = halton_points(64, dims=3)
    assert (0.0, 0.0, 0.0) not in pts
    for p in pts:
        assert all(0.0 <= x < 1.0 for x in p)


def test_halton_points_dimension_cap():
    with pytest.raises(InvalidDescriptor):
        halton_points(4, dims=7)


@pytest.mark.parametrize("base", [circle_base(), interval_base()])
def test_surface_samples_stay_in_domain(base):
    fiber = FiberSpace()
    pts = surface_samples(base, fiber, 40)
    for p in pts:
        assert base.r_min <= p.r < base.r_min + base.length + 1e-12
        assert 0.0 <= p.theta < fiber.circumference


def test_sample_plan_counts():
    s = (SurfacePoint(0.0, 0.0), SurfacePoint(1.0, 1.0))
    t = (SurfacePoint(0.5, 2.0), SurfacePoint(-1.0, 3.0), SurfacePoint(2.0, 0.5))
    sp = ((SurfacePoint(0.0, 0.0), SurfacePoint(0.0, 3.14)),)
    plan = SamplePlan(s, t, sp)
    assert plan.n_pairs == 2 * 3 + 1
    assert len(list(plan.pairs())) == plan.n_pairs


def test_sample_plan_rejects_empty():
    with pytest.raises(InvalidDescriptor):
        SamplePlan((), ())
    # 3-torus plans share the type: cube sources without targets or
    # special pairs give no pairs either
    with pytest.raises(InvalidDescriptor):
        SamplePlan(cube_samples(3), (), ())


def test_default_plan_structure():
    base, fiber = circle_base(), FiberSpace()
    special = ((SurfacePoint(0.0, 0.0), SurfacePoint(0.0, 1.0)),)
    plan = default_plan(base, fiber, n_sources=4, n_targets=8, special=special)
    assert plan.n_pairs == 4 * 8 + 1
    # targets continue the sequence, so the two clouds never collide
    assert not set(plan.sources) & set(plan.targets)
    # rebuilding gives the identical plan (byte-level determinism upstream)
    again = default_plan(base, fiber, n_sources=4, n_targets=8, special=special)
    assert plan == again
