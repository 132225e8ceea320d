"""Warped 3-torus module: fields, stencil bound, grid oracle, experiment.

The anisotropy bound is cross-checked against a linear-program oracle: the
grid metric's cost per unit distance in direction u is the cheapest
nonnegative combination of stencil steps summing to u, which is exactly the
LP that the convex-hull computation solves geometrically.  Facet normals of
the hull are the worst directions, so the LP maximum over them must equal
the hull bound.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from warpconv import (
    GridSpec,
    HypothesisError,
    InvalidDescriptor,
    SamplePlan,
    SequenceFamily,
    SurfacePoint,
    run_family_experiment,
)
from warpconv.convergence import PairProbe
from warpconv.core import TAU
from warpconv.reporting import point_label
from warpconv.geodesy import GridSizeError
from warpconv.torus3 import (
    BumpField,
    ConstantField,
    Grid3Graph,
    Grid3Spec,
    Point3,
    SumOfBumpsField,
    Torus3Family,
    bilip_lambda3,
    cube_samples,
    diameter3_upper_bound,
    grid3_distance,
    limit3_distance,
    run_torus3_experiment,
    stencil_anisotropy3,
    stencil_offsets3,
    wrap_cube,
    _quadrature_l2,
)

point_st = st.builds(
    Point3,
    st.floats(-math.pi, math.pi - 1e-9),
    st.floats(-math.pi, math.pi - 1e-9),
    st.floats(-math.pi, math.pi - 1e-9),
)


def quad_integral(fld, n=512):
    xs = -math.pi + TAU * (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return float(np.sum(np.asarray(fld(X, Y))) * (TAU / n) ** 2)


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


class TestFields:
    def test_constant_field_basics(self):
        f = ConstantField(1.5)
        assert f(0.0, 0.0) == 1.5
        assert np.all(f(np.zeros(4), np.ones(4)) == 1.5)
        assert f.integral() == pytest.approx(1.5 * TAU * TAU)
        assert f.l2_vs_level(1.5) == 0.0
        assert f.l2_vs_level(0.5) == pytest.approx(TAU)

    def test_constant_field_rejects_nonpositive(self):
        with pytest.raises(InvalidDescriptor):
            ConstantField(0.0)
        with pytest.raises(InvalidDescriptor):
            ConstantField(-2.0)

    def test_bump_field_peak_and_tail(self):
        f = BumpField(1.0, 2.0, (0.5, 0.5), 0.5)
        assert f(0.5, 0.5) == pytest.approx(2.0)
        assert f(0.5 + 0.6, 0.5) == pytest.approx(1.0)
        assert f(0.5, 0.5 - 0.25) == pytest.approx(1.5)
        assert f.min_value() == 1.0 and f.max_value() == 2.0

    def test_bump_field_wraps_around_seam(self):
        f = BumpField(1.0, 3.0, (math.pi - 0.1, 0.0), 0.5)
        # the opposite seam side sits 0.2 from the center, inside the bump
        expected = 1.0 + 2.0 * 0.5 * (1.0 + math.cos(math.pi * 0.4))
        assert f(-math.pi + 0.1, 0.0) == pytest.approx(expected)
        assert f(-math.pi + 0.1, 0.0) > 2.0

    def test_bump_integral_matches_quadrature(self):
        f = BumpField(1.0, 2.0, (0.5, 0.5), 0.5)
        assert f.integral() == pytest.approx(quad_integral(f), rel=1e-7)

    def test_bump_l2_matches_quadrature(self):
        f = BumpField(1.0, 2.0, (-1.0, 2.0), 0.75)
        for c in (1.0, 1.3, 0.7):
            assert f.l2_vs_level(c) == pytest.approx(
                _quadrature_l2(f, c, 512), rel=1e-6)

    def test_bump_field_validation(self):
        with pytest.raises(InvalidDescriptor):
            BumpField(0.0, 2.0, (0, 0), 0.5)
        with pytest.raises(InvalidDescriptor):
            BumpField(1.0, -1.0, (0, 0), 0.5)
        with pytest.raises(InvalidDescriptor):
            BumpField(1.0, 2.0, (0, 0), 0.0)
        with pytest.raises(InvalidDescriptor):
            BumpField(1.0, 2.0, (0, 0), 4.0)

    def test_sum_of_bumps_integral(self):
        f = SumOfBumpsField(1.0, ((2.0, 0.0, 0.0, 0.4), (1.5, 2.0, -1.0, 0.3)))
        assert f.integral() == pytest.approx(quad_integral(f), rel=1e-7)
        assert f.min_value() == 1.0
        assert f.max_value() == 2.0

    def test_sum_of_bumps_validation(self):
        with pytest.raises(InvalidDescriptor):
            SumOfBumpsField(0.0, ())
        with pytest.raises(InvalidDescriptor):
            SumOfBumpsField(1.0, ((2.0, 0, 0, 5.0),))
        # supports overlapping across the x seam of the torus
        with pytest.raises(InvalidDescriptor):
            SumOfBumpsField(1.0, ((2.0, 3.0, 0.0, 0.3), (2.0, -3.0, 0.1, 0.3)))


# ---------------------------------------------------------------------------
# limit metric and closed-form bounds
# ---------------------------------------------------------------------------


class TestLimitMetric:
    def test_unit_diagonal(self):
        d = limit3_distance(1.0, Point3(0, 0, 0), Point3(1, 1, 1))
        assert d == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_stretched_z(self):
        d = limit3_distance(2.0, Point3(0, 0, 0), Point3(0, 0, math.pi))
        assert d == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_wrap_picks_minor_arc(self):
        d = limit3_distance(1.0, Point3(0, 0, 0), Point3(0, 0, 1.9 * math.pi))
        assert d == pytest.approx(0.1 * math.pi, abs=1e-12)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(InvalidDescriptor):
            limit3_distance(0.0, Point3(0, 0, 0), Point3(1, 0, 0))

    @given(point_st, point_st, st.floats(0.2, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_bounds(self, p, q, c):
        d = limit3_distance(c, p, q)
        assert d == limit3_distance(c, q, p)
        assert 0.0 <= d <= math.sqrt(2.0 + c * c) * math.pi + 1e-12

    @given(point_st, point_st, point_st)
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, p, q, r):
        ab = limit3_distance(1.3, p, q)
        bc = limit3_distance(1.3, q, r)
        ac = limit3_distance(1.3, p, r)
        assert ac <= ab + bc + 1e-12

    def test_diameter_bound_values(self):
        base = 4.0 * math.sqrt(2.0) * math.pi
        assert diameter3_upper_bound(0.0, 1.0) == pytest.approx(
            base + 2.0 * math.pi)
        assert diameter3_upper_bound(0.0, 5.0) == pytest.approx(
            base + 10.0 * math.pi)
        assert diameter3_upper_bound(1.0, 1.0) == pytest.approx(
            base + 2.0 * math.pi + 1.0)

    def test_diameter_bound_guards(self):
        with pytest.raises(HypothesisError):
            diameter3_upper_bound(TAU, 0.0)
        with pytest.raises(InvalidDescriptor):
            diameter3_upper_bound(-0.5, 1.0)

    def test_bilip_lambda(self):
        # lambda comes from the field's own range [a, b]
        assert bilip_lambda3(BumpField(1.0, 2.0, (0.0, 0.0), 0.5)) == 2.0
        assert bilip_lambda3(ConstantField(1.0)) == 1.0
        assert bilip_lambda3(ConstantField(0.5)) == 2.0
        assert bilip_lambda3(BumpField(1.0, 0.4, (0.0, 0.0), 0.5)) == 2.5
        # stage j = 1 of the moving bump is legal: its range is [1, 2]
        assert bilip_lambda3(Torus3Family().field(1)) == 2.0


# ---------------------------------------------------------------------------
# stencil anisotropy vs the LP oracle
# ---------------------------------------------------------------------------


def lp_direction_cost3(steps, weights, u):
    """Cheapest nonnegative step combination realizing displacement u."""
    res = linprog(weights, A_eq=np.asarray(steps).T, b_eq=u,
                  bounds=[(0, None)] * len(weights), method="highs")
    assert res.status == 0
    return float(res.fun)


def hull_of_scaled_stencil(scale):
    steps = np.asarray(stencil_offsets3(), dtype=float)
    steps[:, 2] *= scale
    weights = np.linalg.norm(steps, axis=1)
    pts = steps / weights[:, None]
    return steps, weights, ConvexHull(pts)


class TestAnisotropy3:
    def test_offsets_are_the_26_cube_directions(self):
        offs = stencil_offsets3()
        assert len(offs) == 26
        assert len(set(offs)) == 26
        assert all(max(abs(c) for c in o) == 1 for o in offs)
        assert (0, 0, 0) not in offs

    @pytest.mark.parametrize("scale", [1.0, 2.0, 0.5])
    def test_hull_bound_matches_lp_at_facet_normals(self, scale):
        steps, weights, hull = hull_of_scaled_stencil(scale)
        raw = 1.0 / float(np.min(-hull.equations[:, -1])) - 1.0
        worst_lp = 0.0
        for eq in hull.equations:
            u = eq[:3] / np.linalg.norm(eq[:3])
            worst_lp = max(worst_lp, lp_direction_cost3(steps, weights, u) - 1.0)
        assert worst_lp == pytest.approx(raw, abs=1e-7)
        got = stencil_anisotropy3(scale, scale)
        assert got >= worst_lp
        assert got <= 1.005 * worst_lp + 2e-4

    def test_sphere_sweep_never_exceeds_bound(self):
        steps, weights, _ = hull_of_scaled_stencil(1.37)
        bound = stencil_anisotropy3(1.37, 1.37)
        idx = np.arange(200)
        phi = math.pi * (3.0 - math.sqrt(5.0)) * idx
        zs = 1.0 - 2.0 * (idx + 0.5) / 200
        rs = np.sqrt(1.0 - zs * zs)
        dirs = np.stack([rs * np.cos(phi), rs * np.sin(phi), zs], axis=1)
        worst = max(lp_direction_cost3(steps, weights, u) - 1.0 for u in dirs)
        assert worst <= bound

    def test_frozen_reference_values(self):
        assert stencil_anisotropy3(1.0, 1.0) == pytest.approx(0.1288, abs=5e-4)
        assert stencil_anisotropy3(2.0, 2.0) == pytest.approx(0.2009, abs=5e-4)
        assert stencil_anisotropy3(0.5, 0.5) == pytest.approx(0.2373, abs=5e-4)

    def test_range_dominates_members(self):
        full = stencil_anisotropy3(0.8, 2.5)
        for a in (0.8, 1.0, 1.7, 2.5):
            assert full >= stencil_anisotropy3(a, a) - 2e-3

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            stencil_anisotropy3(0.0, 1.0)
        with pytest.raises(ValueError):
            stencil_anisotropy3(2.0, 1.0)
        with pytest.raises(ValueError):
            stencil_anisotropy3(1.0, math.inf)


# ---------------------------------------------------------------------------
# the 3D grid oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def flat_graph():
    return Grid3Graph(ConstantField(1.0), Grid3Spec(32))


@pytest.fixture(scope="module")
def stretched_graph():
    return Grid3Graph(ConstantField(1.3), Grid3Spec(32))


class TestGrid3:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            Grid3Spec(16)
        with pytest.raises(ValueError):
            Grid3Spec(64, k=2)

    def test_memory_guard(self):
        with pytest.raises(GridSizeError):
            Grid3Graph(ConstantField(1.0), Grid3Spec(260))

    def test_node_roundtrip(self, flat_graph):
        g = flat_graph
        assert g.node_index(3, 5, 7) == (3 * 32 + 5) * 32 + 7
        p = g.node_point(g.node_index(3, 5, 7))
        assert p.x == pytest.approx(g.coords[3])
        assert p.z == pytest.approx(g.coords[7])

    def test_snap_exact_node_has_zero_cost(self, flat_graph):
        idx, pt, cost = flat_graph.snap(Point3(*[float(flat_graph.coords[4])] * 3))
        assert cost == 0.0
        assert idx == flat_graph.node_index(4, 4, 4)

    def test_snap_wraps_the_seam(self, flat_graph):
        idx, pt, cost = flat_graph.snap(Point3(math.pi - 1e-6, 0.0, 0.0))
        # nearest row across the seam is x = -pi
        assert pt.x == pytest.approx(-math.pi)
        assert cost < flat_graph.h

    def test_axis_distance_is_exact(self, flat_graph):
        r = grid3_distance(ConstantField(1.0), Point3(0, 0, 0),
                           Point3(0, 0, math.pi), graph=flat_graph)
        assert r.distance == pytest.approx(math.pi, abs=1e-10)
        assert r.method == "grid3-32^3"

    def test_symmetry_exact(self, flat_graph):
        p, q = Point3(0.3, -1.2, 2.0), Point3(-2.0, 1.1, -0.4)
        a = grid3_distance(ConstantField(1.0), p, q, graph=flat_graph)
        b = grid3_distance(ConstantField(1.0), q, p, graph=flat_graph)
        assert a.distance == b.distance

    def test_identity(self, flat_graph):
        p = Point3(0.3, -1.2, 2.0)
        r = grid3_distance(ConstantField(1.0), p, p, graph=flat_graph)
        assert r.distance == 0.0

    def test_triangle_inequality_on_grid_nodes(self, flat_graph, full_rows):
        g = flat_graph
        nodes = [g.node_index(i, j, k)
                 for i, j, k in [(0, 0, 0), (8, 16, 24), (20, 4, 12),
                                 (31, 31, 31), (5, 25, 9)]]
        table = full_rows(g, nodes)
        for a in range(len(nodes)):
            for b in range(len(nodes)):
                for c in range(len(nodes)):
                    assert (table[a, nodes[c]] <=
                            table[a, nodes[b]] + table[b, nodes[c]] + 1e-9)

    def test_constant_field_agrees_with_limit_on_50_pairs(self, stretched_graph,
                                                          full_rows):
        sources = cube_samples(5)
        targets = cube_samples(10, offset=5)
        fld = ConstantField(1.3)
        lefts = [stretched_graph.snap(p) for p in sources]
        table = full_rows(stretched_graph, [n for n, _, _ in lefts])
        checked = 0
        for row, (_, ps, _) in enumerate(lefts):
            for q in targets:
                nq, qs, _ = stretched_graph.snap(q)
                d = float(table[row, nq])
                err = stretched_graph.aniso_bound * d + 1e-9
                assert abs(d - limit3_distance(1.3, ps, qs)) <= err
                checked += 1
        assert checked == 50

    def test_grid_never_undershoots_limit_much(self, stretched_graph, full_rows):
        # graph paths approximate true geodesics from above up to quadrature
        for p, q in zip(cube_samples(6), cube_samples(6, offset=6)):
            np_, ps, _ = stretched_graph.snap(p)
            nq, qs, _ = stretched_graph.snap(q)
            d = float(full_rows(stretched_graph, [np_])[0, nq])
            assert d >= limit3_distance(1.3, ps, qs) - 1e-6

    def test_mass_constant_field(self, flat_graph):
        assert flat_graph.mass() == pytest.approx(TAU ** 3)

    def test_bump_raises_distance_near_peak_only(self):
        fld = BumpField(1.0, 2.0, (0.0, 0.0), 0.5)
        g = Grid3Graph(fld, Grid3Spec(32))
        near = grid3_distance(fld, Point3(0, 0, 0), Point3(0, 0, math.pi),
                              graph=g)
        far = grid3_distance(fld, Point3(math.pi, 0, 0),
                             Point3(math.pi, 0, math.pi), graph=g)
        assert far.distance == pytest.approx(math.pi, abs=1e-9)
        assert near.distance > math.pi + 0.5
        # detouring around the bump beats climbing it
        assert near.distance < 2.0 * math.pi - 0.5


# ---------------------------------------------------------------------------
# family, plan, experiment
# ---------------------------------------------------------------------------


class TestTorus3Family:
    def test_field_follows_dyadic_walk(self):
        fam = Torus3Family("moving-bump", level=1.0, peak=2.0)
        f2 = fam.field(2)
        assert isinstance(f2, BumpField)
        assert f2.center == (1.0, 1.0) and f2.half_width == 1.0
        f16 = fam.field(16)
        assert f16.center == (0.625, 0.625) and f16.half_width == 0.125

    def test_constant_kind(self):
        fam = Torus3Family("constant", level=1.5)
        assert isinstance(fam.field(3), ConstantField)
        assert fam.describe() == "constant3(level=1.5)"

    def test_validation(self):
        with pytest.raises(InvalidDescriptor):
            Torus3Family("ridge")
        with pytest.raises(InvalidDescriptor):
            Torus3Family("moving-bump", level=1.0, peak=0.5)
        with pytest.raises(InvalidDescriptor):
            Torus3Family("constant", level=0.0)
        with pytest.raises(InvalidDescriptor):
            Torus3Family("moving-bump").field(0)

    def test_special_pairs_are_z_antipodal(self):
        fam = Torus3Family("moving-bump")
        pairs = fam.special_pairs(4)
        assert len(pairs) == 4
        for a, b in pairs:
            dz = abs(wrap_cube(a.z - b.z))
            assert dz == pytest.approx(math.pi)
        # the first three probes are purely vertical; the last straddles
        for a, b in pairs[:3]:
            assert a.x == pytest.approx(b.x) and a.y == pytest.approx(b.y)

    def test_plan_shape(self):
        fam = Torus3Family("moving-bump")
        plan = fam.sample_plan(4, n_sources=3, n_targets=5)
        assert plan.n_pairs == 3 * 5 + 4
        assert len(list(plan.pairs())) == plan.n_pairs
        assert isinstance(plan, SamplePlan)

    def test_describe(self):
        s = Torus3Family("moving-bump", level=1.0, peak=2.0).describe()
        assert s == "moving-bump3(level=1, peak=2)"


@pytest.fixture(scope="module")
def small_run():
    fam = Torus3Family("moving-bump", level=1.0, peak=2.0)
    return run_torus3_experiment(fam, [2, 4], Grid3Spec(32),
                                 n_sources=3, n_targets=4)


class TestExperiment3:
    def test_eps_decreases(self, small_run):
        eps = [row.eps_corrected for row in small_run.rows]
        assert eps[1] < eps[0]

    def test_row_contents(self, small_run):
        row = small_run.rows[0]
        assert row.j == 2
        assert row.n_pairs == 3 * 4 + 4
        assert row.lam == 2.0
        assert row.gh_bound == pytest.approx(2.0 * row.eps_corrected)
        assert row.l2_norm == pytest.approx(row.l2_bound, rel=1e-6)
        assert row.mass == pytest.approx(
            TAU * Torus3Family("moving-bump").field(2).integral())

    def test_audits_pass(self, small_run):
        assert set(small_run.audits) == {2, 4}
        for rows in small_run.audits.values():
            names = [a.name for a in rows]
            assert names == ["distance-lower-bound", "diameter",
                             "bilip-sandwich"]
            assert all(a.passed for a in rows)
            assert not any(a.skipped for a in rows)

    def test_report_metadata(self, small_run):
        assert small_run.dimension == 3
        assert small_run.limit == "flat3(level=1)"
        d = small_run.to_dict()
        assert d["rows"][0]["grid"] == [32, 32, 32, 1]
        assert len(d["rows"][0]["worst_pair"]) == 2

    def test_constant_family_matches_reference_exactly(self):
        fam = Torus3Family("constant", level=1.0)
        rep = run_torus3_experiment(fam, [2, 3], Grid3Spec(32),
                                    n_sources=2, n_targets=3,
                                    with_audits=False)
        for row in rep.rows:
            assert row.eps_corrected == 0.0
            assert row.eps_raw <= row.grid_error

    def test_stage_one_runs(self):
        # c - 1/j = 0 at j = 1; only the lower-bound audit's hypothesis
        # check reads that floor, lambda comes from the field's range
        rep = run_torus3_experiment(Torus3Family(), [1], Grid3Spec(32),
                                    n_sources=2, n_targets=3)
        assert rep.rows[0].lam == 2.0
        assert [a.name for a in rep.audits[1]] == [
            "distance-lower-bound", "diameter", "bilip-sandwich"]

    def test_probe_gap_fields(self):
        # the 3-torus experiment records its probes in the surface probe type
        pr = PairProbe(Point3(0, 0, 0), Point3(1, 0, 0), 1.05, 0.01, 1.0, 1.04)
        assert pr.raw_gap == pytest.approx(0.05)
        assert pr.corrected_gap == pytest.approx(0.01)
        bare = PairProbe(Point3(0, 0, 0), Point3(1, 0, 0), 1.05, 0.01, 1.0)
        assert bare.corrected_gap == bare.raw_gap

    def test_rows_share_the_surface_row_type(self, small_run):
        surface = run_family_experiment(
            SequenceFamily("constant"), [2], grid=GridSpec(32, 32, 2),
            n_sources=2, n_targets=3)
        row3, row2 = small_run.rows[0], surface.rows[0]
        assert type(row3) is type(row2)
        assert set(row3.to_dict()) == set(row2.to_dict())


def test_point_label_formats_surface_and_cube_points():
    assert point_label(SurfacePoint(0.5, 1.25)) == "(0.5 1.25)"
    assert point_label(Point3(-math.pi, 0.0, 1.0 / 3.0)) == \
        "(-3.14159 0 0.333333)"
