"""The limit metrics take points whose coordinates are arrays.

`LimitMetric.distance` (every kind, on circle and interval bases) and
`torus3.limit3_distance` answer a whole column of pairs in one call.  Each
element of that call must equal the one-pair call bit for bit, the metric
must be bit-exact symmetric, and a one-pair call returns a float.  The
experiments lean on this: they make one limit call per (stage, limit).
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpconv import (
    FiberSpace,
    GridSpec,
    LimitMetric,
    SequenceFamily,
    SurfacePoint,
    circle_base,
    interval_base,
    run_family_experiment,
)
from warpconv import torus3
from warpconv.torus3 import Grid3Spec, Point3, Torus3Family

TAU = 2.0 * math.pi

# coordinates near both sides of each seam, so that pairs cross it
seam_r = st.one_of(st.floats(-math.pi, math.pi),
                   st.floats(-math.pi, -math.pi + 0.1),
                   st.floats(math.pi - 0.1, math.pi))
seam_theta = st.one_of(st.floats(0.0, TAU), st.floats(0.0, 0.1),
                       st.floats(TAU - 0.1, TAU), st.floats(-7.0, 14.0))

limits = st.one_of(
    st.builds(lambda level: LimitMetric("product", level=level),
              st.floats(0.2, 5.0)),
    st.builds(lambda depth, r: LimitMetric("cinched-product", depth=depth,
                                           cinch_r=r),
              st.floats(0.05, 1.0), st.floats(-math.pi, math.pi)),
    st.builds(lambda stretch: LimitMetric("stretched-mix", stretch=stretch),
              st.floats(1.0, 20.0)),
)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def check_array_contract(distance, ps, qs, columns):
    """`distance` on the point columns of ps and qs equals its one-pair
    calls bit for bit, in both orders, and a one-pair call is a float."""
    p, q = columns(ps), columns(qs)
    both = distance(p, q)
    assert isinstance(both, np.ndarray) and both.shape == (len(ps),)
    assert np.array_equal(bits(distance(q, p)), bits(both))
    one = [distance(a, b) for a, b in zip(ps, qs)]
    assert all(type(d) is float for d in one)
    assert np.array_equal(bits(one), bits(both))
    assert np.array_equal(bits([distance(b, a) for a, b in zip(ps, qs)]),
                          bits(both))


def surface_columns(points):
    return SurfacePoint(np.array([pt.r for pt in points]),
                        np.array([pt.theta for pt in points]))


@given(limit=limits, base=st.sampled_from([circle_base(), interval_base()]),
       pairs=st.lists(st.tuples(st.builds(SurfacePoint, seam_r, seam_theta),
                                st.builds(SurfacePoint, seam_r, seam_theta)),
                      min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_limit_metric_array_call_equals_pair_calls(limit, base, pairs):
    fiber = FiberSpace()
    ps, qs = zip(*pairs)
    check_array_contract(lambda p, q: limit.distance(base, fiber, p, q),
                         ps, qs, surface_columns)


cube = st.floats(-4.0, 4.0)
cube_seam = st.one_of(cube, st.floats(-math.pi, -math.pi + 0.1),
                      st.floats(math.pi - 0.1, math.pi))
cube_points = st.builds(Point3, cube_seam, cube_seam, cube_seam)


@given(c=st.floats(0.2, 5.0),
       pairs=st.lists(st.tuples(cube_points, cube_points), min_size=1,
                      max_size=12))
@settings(max_examples=200, deadline=None)
def test_limit3_array_call_equals_pair_calls(c, pairs):
    ps, qs = zip(*pairs)
    check_array_contract(
        lambda p, q: torus3.limit3_distance(c, p, q), ps, qs,
        lambda pts: Point3(*(np.array(col) for col in zip(*pts))))


def test_one_limit_call_per_stage_and_limit(monkeypatch):
    calls = []
    distance = LimitMetric.distance

    def counted(self, base, fiber, p, q):
        calls.append(np.shape(p.r))
        return distance(self, base, fiber, p, q)

    monkeypatch.setattr(LimitMetric, "distance", counted)
    report = run_family_experiment(SequenceFamily("cinched-torus"), [1, 2],
                                   grid=GridSpec(32, 32, 2),
                                   with_wrong_limit=True)
    # 2 stages x (the proven limit, the naive product)
    assert len(calls) == 4
    assert calls == [(row.n_pairs,) for row in report.rows for _ in range(2)]


@pytest.mark.parametrize("with_audits, per_stage", [(False, 1), (True, 2)])
def test_torus3_limit_calls_per_stage(monkeypatch, with_audits, per_stage):
    # one call from `run_stages`, and one from the audit's sandwich row
    calls = Counter()
    distance = torus3.limit3_distance

    def counted(c, p, q):
        calls[np.shape(p.x)] += 1
        return distance(c, p, q)

    monkeypatch.setattr(torus3, "limit3_distance", counted)
    report = torus3.run_torus3_experiment(Torus3Family(), [2, 3],
                                          Grid3Spec(32), n_sources=2,
                                          n_targets=3, with_audits=with_audits)
    assert calls == {(report.rows[0].n_pairs,): per_stage * 2}
