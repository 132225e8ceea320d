"""Node layout, node points and snapping of the grid graphs' one lattice.

`OrbitSweepCache` snaps points of either graph on arrays.  The scalar snaps
the surface and 3-torus graphs had before are kept here as the reference:
the array snap must pick the same nodes and give the same node points, bit
for bit, on a circle base, on an interval base and on the 3-torus, at seams,
at negative coordinates, at the clamped ends of an interval and at exact
ties halfway between two nodes.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpconv import (
    ConstantProfile,
    FiberSpace,
    GridGraph,
    GridSpec,
    HypothesisError,
    SurfacePoint,
    WarpedSpace,
    circle_base,
    interval_base,
)
from warpconv.convergence import point_columns
from warpconv.torus3 import ConstantField, Grid3Graph, Grid3Spec, Point3, wrap_cube


def old_surface_snap(graph, p):
    """The scalar snap `GridGraph` had: (node index, node point)."""
    base = graph.space.base
    r = float(base.wrap(p.r)) if base.is_circle else float(p.r)
    if not base.r_min - 1e-12 <= r <= base.r_max + 1e-12:
        raise HypothesisError(f"point r={p.r} outside the base interval")
    i = int(round((r - base.r_min) / graph.hr))
    if base.is_circle:
        i %= graph.n_rows
    else:
        i = min(max(i, 0), graph.n_rows - 1)
    th = p.theta % graph.space.fiber.circumference
    l = int(round(th / graph.htheta)) % graph.n_theta
    return (i * graph.n_theta + l,
            SurfacePoint(float(graph.rows[i]), float(graph.htheta * l)))


def old_cube_snap(graph, p):
    """The scalar snap `Grid3Graph` had: (node index, node point)."""
    n = graph.spec.n
    ix, iy, iz = [int(round((wrap_cube(v) + math.pi) / graph.h)) % n for v in p]
    return ((ix * n + iy) * n + iz,
            Point3(*(float(graph.coords[i]) for i in (ix, iy, iz))))


# odd node counts and interval ends that no step divides evenly
GRAPHS = {
    "circle": lambda: GridGraph(
        WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.0)),
        GridSpec(12, 10, 1)),
    "interval": lambda: GridGraph(
        WarpedSpace(interval_base(-1.3, 2.1), FiberSpace(3.7),
                    ConstantProfile(1.0)),
        GridSpec(9, 11, 1)),
    "torus3": lambda: Grid3Graph(ConstantField(1.0), Grid3Spec(33)),
}


@functools.cache
def graph(kind):
    return GRAPHS[kind]()


def old_snap(kind, p):
    return (old_cube_snap if kind == "torus3" else old_surface_snap)(graph(kind), p)


def periodic(lo, step, n, period):
    """Coordinates on a periodic axis: anywhere over a few periods, on
    nodes, at exact ties lo + (k + 1/2) step, and at the seams and one ulp
    either side of them."""
    seams = st.integers(-3, 3).map(lambda k: lo + k * period)
    return st.one_of(
        st.floats(lo - 3 * period, lo + 4 * period),
        st.integers(-3 * n, 4 * n).map(lambda k: lo + k * step),
        st.integers(-3 * n, 4 * n).map(lambda k: lo + (k + 0.5) * step),
        seams,
        seams.map(lambda x: float(np.nextafter(x, -np.inf))),
        seams.map(lambda x: float(np.nextafter(x, np.inf))))


def interval(lo, hi, step, n):
    """Coordinates on an interval [lo, hi] of n nodes: anywhere within the
    1e-12 `BaseSpace.contains` allows, at exact ties and at the ends."""
    return st.one_of(
        st.floats(lo - 1e-12, hi + 1e-12),
        st.integers(0, n - 2).map(lambda k: lo + (k + 0.5) * step),
        st.sampled_from([lo - 1e-12, lo, hi, hi + 1e-12,
                         float(np.nextafter(lo, -np.inf)),
                         float(np.nextafter(hi, np.inf))]))


def axis_coordinates(kind):
    g = graph(kind)
    if kind == "torus3":
        return [periodic(-math.pi, g.h, g.spec.n, 2 * math.pi)] * 3
    base = g.space.base
    r = (periodic(base.r_min, g.hr, g.n_rows, base.length) if base.is_circle
         else interval(base.r_min, base.r_max, g.hr, g.n_rows))
    return [r, periodic(0.0, g.htheta, g.n_theta, g.space.fiber.circumference)]


def shape(kind):
    g = graph(kind)
    return [g.spec.n] * 3 if kind == "torus3" else [g.n_rows, g.n_theta]


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("kind", sorted(GRAPHS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_array_snap_matches_the_scalar_snaps_bit_for_bit(kind, data):
    g = graph(kind)
    point = st.tuples(*axis_coordinates(kind)).map(
        lambda c: g.point_type(*map(float, c)))
    points = data.draw(st.lists(point, min_size=1, max_size=12))
    want = [old_snap(kind, p) for p in points]
    nodes, snapped = g.snap(point_columns(points))
    assert nodes.tolist() == [node for node, _ in want]
    assert type(snapped) is g.point_type
    for axis, column in enumerate(snapped):
        assert bits(column) == bits([pt[axis] for _, pt in want])
    # one point at a time: an int and a point of floats
    for p, (node, pt) in zip(points, want):
        got_node, got_pt = g.snap(p)
        assert type(got_node) is int and got_node == node
        assert type(got_pt) is g.point_type
        assert all(type(c) is float for c in got_pt)
        assert bits(got_pt) == bits(pt)


@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_node_index_and_node_point_take_ints_or_arrays(kind):
    g = graph(kind)
    rng = np.random.default_rng(3)
    ids = [rng.integers(0, n, size=7) for n in shape(kind)]
    nodes = g.node_index(*ids)
    assert nodes.tolist() == np.ravel_multi_index(ids, shape(kind)).tolist()
    points = g.node_point(nodes)
    assert type(points) is g.point_type
    for k, node in enumerate(nodes.tolist()):
        one = g.node_index(*(int(i[k]) for i in ids))
        assert type(one) is int and one == node
        assert tuple(g.node_point(one)) == tuple(float(c[k]) for c in points)
        # a node snaps to itself
        assert g.snap(g.node_point(one)) == (one, g.node_point(one))


@pytest.mark.parametrize("kind", sorted(GRAPHS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_coordinate_does_not_snap(kind, bad):
    g = graph(kind)
    fine = [0.5] * len(shape(kind))
    for axis in range(len(fine)):
        coords = list(fine)
        coords[axis] = bad
        with pytest.raises(ValueError, match="non-finite") as one:
            g.snap(g.point_type(*coords))
        assert not isinstance(one.value, HypothesisError)
        arrays = [np.full(3, c) for c in fine]
        arrays[axis][1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            g.snap(g.point_type(*arrays))


def test_one_point_off_an_interval_base_fails_the_whole_snap():
    g = graph("interval")
    r_max = g.space.base.r_max
    with pytest.raises(HypothesisError):
        old_surface_snap(g, SurfacePoint(r_max + 1e-11, 0.0))
    with pytest.raises(HypothesisError):
        g.snap(SurfacePoint(r_max + 1e-11, 0.0))
    with pytest.raises(HypothesisError):
        g.snap(SurfacePoint(np.array([0.0, r_max + 1e-11, 1.0]), np.zeros(3)))
    with pytest.raises(HypothesisError):
        g.snap(SurfacePoint(np.array([-1.4, 0.0]), 0.5))
    # the ends themselves snap, to the first and the last row
    nodes, _ = g.snap(SurfacePoint(np.array([-1.3, r_max]), 0.0))
    assert (nodes // g.n_theta).tolist() == [0, g.n_rows - 1]
