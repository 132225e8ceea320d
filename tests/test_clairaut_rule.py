"""Clairaut legs: the quadrature rule is built once, the sums per c.

`geodesy._leg_rule` holds what a monotone leg's quadrature does not owe to
the conserved quantity c (the warp at the nodes and their weights), and
`geodesy._leg_sums` evaluates the leg for one c.  The reference below is the
one-call form both replace, which rebuilt the rule for every c.  The split
keeps each float operation in the same order, so the two must agree with
`==`, the NaN pair of an invalid c included, and `_shoot_monotone` must
return exactly what the same bisection over the reference returns.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from warpconv import SequenceFamily, WarpedSpace
from warpconv import geodesy
from warpconv.geodesy import _leg_rule, _leg_sums, _shoot_monotone

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)

SPACES = {
    "cinched": SequenceFamily("cinched-torus").space(8),
    "cinched-interval": SequenceFamily("cinched-torus", base_shape="interval").space(3),
    "ridge": SequenceFamily("single-ridge", depth=2.0).space(2),
    "ret": SequenceFamily("ret-cinches").space(2),
    "constant": SequenceFamily("constant").space(1),
}


def reference_leg_integrals(space, c, r_from, r_to):
    """Fiber advance and arc length of one leg, the rule rebuilt per call."""
    if r_to == r_from:
        return 0.0, 0.0
    lo, hi = min(r_from, r_to), max(r_from, r_to)
    bps = space.breakpoints_unwrapped(lo, hi)
    edges = np.unique(np.concatenate(([lo, hi], bps)))
    sub = 6
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 0:
            continue
        grid = np.linspace(a, b, sub + 1)
        mid = 0.5 * (grid[:-1] + grid[1:])
        half = 0.5 * np.diff(grid)
        xs.append((mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel())
        ws.append((half[:, None] * _GL_WEIGHTS[None, :]).ravel())
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    f = np.asarray(space.warp_at(x), dtype=float)
    v = 1.0 - (c / f) ** 2
    if np.any(v <= 0.0):
        return math.nan, math.nan
    inv = 1.0 / np.sqrt(v)
    theta = float(np.sum(w * c / (f * f) * inv))
    length = float(np.sum(w * inv))
    return theta, length


def reference_shoot_monotone(space, r_p, r_q, target, tol, max_iter):
    """The monotone shot's bisection over `reference_leg_integrals`."""
    if r_q == r_p or target == 0.0:
        return None
    lo, hi = min(r_p, r_q), max(r_p, r_q)
    c_sup = space.warp_min_on(lo, hi)
    want = abs(target)

    def advance(c):
        th, ln = reference_leg_integrals(space, c, r_p, r_q)
        return abs(th), ln

    c_hi = c_sup * (1.0 - 1e-10)
    a_hi, _ = advance(c_hi)
    if not math.isfinite(a_hi) or a_hi < want:
        return None
    c_lo = 0.0
    best = None
    for _ in range(max_iter):
        c_mid = 0.5 * (c_lo + c_hi)
        a_mid, l_mid = advance(c_mid)
        if best is None or abs(a_mid - want) < best[0]:
            best = (abs(a_mid - want), c_mid, a_mid, l_mid)
        if a_mid < want:
            c_lo = c_mid
        else:
            c_hi = c_mid
        if c_hi - c_lo < 1e-15 or abs(a_mid - want) < 0.1 * tol:
            break
    if best is None:
        return None
    resid, c, _adv, ln = best
    return ln, math.copysign(c, target), resid


def same_floats(got, want) -> bool:
    """Equal with `==`, where NaN matches only NaN."""
    return len(got) == len(want) and all(
        g == w or (math.isnan(g) and math.isnan(w)) for g, w in zip(got, want))


def leg_ends(space, r_from, span):
    """Clip a leg to an interval base; circle legs stay unwrapped."""
    if space.base.is_circle:
        return r_from, r_from + span
    lo, hi = space.base.r_min, space.base.r_max
    r_from = min(max(r_from, lo), hi)
    return r_from, min(max(r_from + span, lo), hi)


@given(
    name=st.sampled_from(sorted(SPACES)),
    r_from=st.floats(-2.0 * math.pi, 2.0 * math.pi),
    span=st.one_of(st.just(0.0), st.floats(-2.0 * math.pi, 2.0 * math.pi)),
    level=st.floats(-1.5, 1.5),
)
@example(name="cinched", r_from=3.0, span=3.5, level=0.9)  # seam
@example(name="cinched", r_from=-1.0, span=2.0, level=1.2)  # v <= 0
@settings(max_examples=200, deadline=None)
def test_rule_and_sums_equal_the_one_call_reference(name, r_from, span, level):
    space = SPACES[name]
    r_from, r_to = leg_ends(space, r_from, span)
    # c as a multiple of the leg's lowest warp, so levels past 1 are invalid
    c = level * space.warp_min_on(r_from, r_to)
    got = _leg_sums(_leg_rule(space, r_from, r_to), c)
    want = reference_leg_integrals(space, c, r_from, r_to)
    assert same_floats(got, want), (got, want)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_invalid_level_gives_the_nan_pair_and_empty_leg_gives_zeros(name):
    space = SPACES[name]
    r_from, r_to = leg_ends(space, -1.0, 2.5)
    c = 1.01 * space.warp_max_on(r_from, r_to)
    got = _leg_sums(_leg_rule(space, r_from, r_to), c)
    assert all(math.isnan(v) for v in got)
    assert same_floats(got, reference_leg_integrals(space, c, r_from, r_to))
    assert _leg_sums(_leg_rule(space, r_from, r_from), c) == (0.0, 0.0)


@given(
    name=st.sampled_from(sorted(SPACES)),
    r_p=st.floats(-math.pi, math.pi),
    span=st.one_of(st.just(0.0), st.floats(-2.0 * math.pi, 2.0 * math.pi)),
    target=st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
    max_iter=st.sampled_from([1, 5, 60]),
)
@example(name="cinched", r_p=-1.0, span=2.0, target=1.0, max_iter=60)
@example(name="ridge", r_p=3.0, span=3.5, target=-0.3, max_iter=60)  # seam
@settings(max_examples=120, deadline=None)
def test_shoot_monotone_equals_the_reference_bisection(name, r_p, span, target, max_iter):
    space = SPACES[name]
    r_p, r_q = leg_ends(space, r_p, span)
    got = _shoot_monotone(space, r_p, r_q, target, 1e-9, max_iter)
    want = reference_shoot_monotone(space, r_p, r_q, target, 1e-9, max_iter)
    assert (got is None) == (want is None)
    if got is not None:
        assert same_floats(got, want), (got, want)


@pytest.mark.parametrize("max_iter", [5, 60])
def test_one_shot_builds_its_leg_rule_once(monkeypatch, max_iter):
    space = SPACES["cinched"]
    calls = {"rule": 0, "sums": 0, "breakpoints": 0}
    real_rule, real_sums = geodesy._leg_rule, geodesy._leg_sums
    real_breakpoints = WarpedSpace.breakpoints_unwrapped

    def rule(*args, **kwargs):
        calls["rule"] += 1
        return real_rule(*args, **kwargs)

    def sums(*args, **kwargs):
        calls["sums"] += 1
        return real_sums(*args, **kwargs)

    def breakpoints(self, lo, hi):
        calls["breakpoints"] += 1
        return real_breakpoints(self, lo, hi)

    monkeypatch.setattr(geodesy, "_leg_rule", rule)
    monkeypatch.setattr(geodesy, "_leg_sums", sums)
    monkeypatch.setattr(WarpedSpace, "breakpoints_unwrapped", breakpoints)
    out = _shoot_monotone(space, -1.0, 1.0, 1.0, 1e-9, max_iter)
    assert out is not None
    # every bisection step (plus the reach test at c_sup) evaluates the sums
    assert calls["sums"] > min(max_iter, 5)
    assert calls["rule"] == 1
    # one breakpoint scan, for its rule: the leg's warp minimum asks the
    # profile alone
    assert calls["breakpoints"] == 1
