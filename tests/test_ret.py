"""Tests for the mixed euclidean/taxi metric.

The closed form is pinned by three hand-worked displacements and verified
against the brute-force split minimizer on large random batches.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import ret_distance_brute
from warpconv import (
    FiberSpace,
    InvalidDescriptor,
    LimitMetric,
    SurfacePoint,
    circle_base,
)
from warpconv.ret import ret_distance


# hand-worked values: (stretch, ds, dsigma, expected)
WORKED = [
    # threshold exactly at dsigma: euclidean branch, 4 on the nose
    (2.0, 2.0 * math.sqrt(3.0), 1.0, 4.0),
    # deep taxi branch
    (5.0, math.pi, math.pi, math.pi * (math.sqrt(24.0) / 5.0 + 1.0)),
    # long taxi tail
    (2.0, 1.0, 10.0, math.sqrt(3.0) / 2.0 + 10.0),
    # stretch 1 collapses to plain euclidean
    (1.0, 3.0, 4.0, 5.0),
]


@pytest.mark.parametrize("stretch,ds,dsig,expect", WORKED)
def test_worked_examples(stretch, ds, dsig, expect):
    assert ret_distance(ds, dsig, stretch) == pytest.approx(expect, rel=1e-14)


def test_branch_agreement_at_threshold():
    rng = np.random.default_rng(0)
    for _ in range(500):
        R = rng.uniform(1.01, 20.0)
        ds = rng.uniform(1e-3, 50.0)
        root = math.sqrt(R * R - 1.0)
        t0 = ds / (R * root)
        euclid = math.hypot(ds, R * t0)
        taxi = ds * root / R + t0
        assert abs(euclid - taxi) <= 1e-12 * max(1.0, euclid)


def test_brute_force_agrees_with_closed_form():
    rng = np.random.default_rng(1)
    n = 10_000
    ds = rng.uniform(0.0, 20.0, n)
    dsig = rng.uniform(0.0, 20.0, n)
    for R in (1.0, 1.5, 2.0, 5.0):
        closed = ret_distance(ds, dsig, R)
        brute = ret_distance_brute(ds, dsig, R)
        assert np.max(np.abs(closed - brute)) < 1e-9


def test_rejects_bad_arguments():
    with pytest.raises(InvalidDescriptor):
        ret_distance(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ret_distance(-1.0, 1.0, 2.0)


def test_rejects_an_infinite_stretch():
    # the taxi branch takes inf / inf
    with pytest.raises(InvalidDescriptor):
        ret_distance(1.0, 1.0, math.inf)


@given(
    ds=st.floats(0.0, 100.0),
    dsig=st.floats(0.0, 100.0),
    stretch=st.floats(1.0, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_sandwiched_between_euclidean_and_stretched(ds, dsig, stretch):
    d = float(ret_distance(ds, dsig, stretch))
    assert d >= math.hypot(ds, dsig) - 1e-9 * (1 + d)
    assert d <= math.hypot(ds, stretch * dsig) + 1e-9 * (1 + d)
    # the taxi expression is the unconstrained minimum of the split
    # function, hence a lower bound on the constrained distance
    taxi = ds * math.sqrt(max(stretch**2 - 1.0, 0.0)) / stretch + dsig
    assert d >= taxi - 1e-9 * (1 + d)


@given(
    s=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    t=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    u=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    stretch=st.floats(1.0, 20.0),
)
@settings(max_examples=300, deadline=None)
def test_triangle_inequality_in_the_plane(s, t, u, stretch):
    def d(a, b):
        return float(ret_distance(abs(a[0] - b[0]), abs(a[1] - b[1]), stretch))

    assert d(s, u) <= d(s, t) + d(t, u) + 1e-10


def test_triangle_inequality_on_product_space():
    base, fiber = circle_base(), FiberSpace()
    mix = LimitMetric("stretched-mix", stretch=5.0)

    def d(a, b):
        # every (a, b) pair of the two point sets, from one array call
        return mix.distance(base, fiber,
                            SurfacePoint(a.r[:, None], a.theta[:, None]),
                            SurfacePoint(b.r[None, :], b.theta[None, :]))

    rng = np.random.default_rng(2)
    pts = np.array([(rng.uniform(-math.pi, math.pi), rng.uniform(0, 2 * math.pi))
                    for _ in range(60)])
    a, b, c = (SurfacePoint(*pts[k:k + 20].T) for k in (0, 20, 40))
    lhs = d(a, c)[:, None, :]
    rhs = d(a, b)[:, :, None] + d(b, c)[None, :, :]
    assert np.all(lhs <= rhs + 1e-10)


def test_point_distance_uses_minor_arcs():
    # across the base seam and the fiber seam
    p = SurfacePoint(-math.pi + 0.05, 0.1)
    q = SurfacePoint(math.pi - 0.05, 2.0 * math.pi - 0.1)
    mix = LimitMetric("stretched-mix", stretch=2.0)
    assert mix.distance(circle_base(), FiberSpace(), p, q) == pytest.approx(
        float(ret_distance(0.1, 0.2, 2.0)), rel=1e-12
    )
