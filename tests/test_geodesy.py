"""Tests for the grid shortest-path oracle and the closed forms.

The grid is checked against the closed forms and, on warped profiles,
bracketed between the flat floor of every curve and the lengths of explicit
curves.

The direction-anisotropy constants frozen in ANISOTROPY_BOUND are verified
here by an independent brute-force sweep: for every direction in the plane,
the cheapest nonnegative combination of neighborhood offsets reaching that
direction is solved as a small linear program, and the worst-case stretch is
compared against both the closed forms and the frozen table.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from oracle import mirror_start_rows
from warpconv import (
    ANISOTROPY_BOUND,
    ConstantProfile,
    FiberSpace,
    GridGraph,
    GridSpec,
    HypothesisError,
    InvalidDescriptor,
    SamplePlan,
    SequenceFamily,
    SurfacePoint,
    WarpedSpace,
    cinch_bump,
    cinch_limit_distance,
    circle_base,
    flat_product_distance,
    interval_base,
    level_set_distance,
    neighborhood_offsets,
    ridge_bump,
    segment_length,
    stencil_anisotropy,
)
from warpconv.convergence import default_grid, plan_values
from warpconv.families import FAMILY_KINDS, RIDGE_KINDS
from warpconv.torus3 import Grid3Spec


def grid_values(graph, pairs):
    """(snapped p, snapped q, grid distance, error bar) of each pair, read
    as the experiments read a plan: `plan_values` snaps both ends to nodes,
    reads the distances with `pair_distances` and bars them with
    `error_bound`."""
    stage = plan_values(graph, SamplePlan((), (), tuple(pairs)))
    return [stage.pair(i) + (d, err) for i, (d, err) in
            enumerate(zip(stage.values.tolist(), stage.errors.tolist()))]


def random_surface_pairs(rng, count):
    def point():
        return SurfacePoint(rng.uniform(-math.pi, math.pi),
                            rng.uniform(0, 2 * math.pi))

    return [(point(), point()) for _ in range(count)]

# ---------------------------------------------------------------------------
# anisotropy constants: independent brute-force verification


def lp_direction_cost(offsets, ux: float, uy: float) -> float:
    """Cheapest cost of writing (ux, uy) as a nonnegative combination of the
    offset vectors, where each offset costs its euclidean norm.  This is the
    exact continuum relaxation of chaining grid moves in a fixed direction.
    """
    vs = np.asarray(offsets, dtype=float)
    cost = np.linalg.norm(vs, axis=1)
    res = linprog(
        cost,
        A_eq=vs.T,
        b_eq=[ux, uy],
        bounds=[(0, None)] * len(vs),
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


def worst_stretch(k: int, n_sweep: int = 720) -> float:
    """Max over directions of (grid path cost / straight-line length) - 1."""
    offs = neighborhood_offsets(k)
    worst = 0.0
    # the offset pattern has the symmetries of the square, so a quarter
    # turn of directions covers everything
    angles = np.linspace(0.0, math.pi / 2, n_sweep)
    for phi in angles:
        c = lp_direction_cost(offs, math.cos(phi), math.sin(phi))
        worst = max(worst, c - 1.0)
    return worst


def closed_form_stretch(k: int) -> float:
    # worst direction bisects the widest angular gap in the offset fan;
    # for radius k the gap is between (1, k-ish) steps, giving these forms
    if k == 1:
        return math.sqrt(1.0 + (math.sqrt(2.0) - 1.0) ** 2) - 1.0
    if k == 2:
        return math.sqrt(10.0 - 4.0 * math.sqrt(5.0)) - 1.0
    if k == 3:
        return math.sqrt(1.0 + (math.sqrt(10.0) - 3.0) ** 2) - 1.0
    raise ValueError(k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_anisotropy_constant_brute_force(k):
    brute = worst_stretch(k)
    closed = closed_form_stretch(k)
    # sweep uses finitely many directions, so it can only undershoot the
    # true supremum, and only by O(gap^2)
    assert brute <= closed + 1e-9
    assert brute >= closed - 1e-5
    # the frozen table rounds the closed form up at the 4th decimal
    assert ANISOTROPY_BOUND[k] >= closed - 1e-12
    assert ANISOTROPY_BOUND[k] == pytest.approx(closed, abs=5e-5)


def test_neighborhood_offsets_structure():
    offs = neighborhood_offsets(2)
    assert len(offs) == 16
    s = set(offs)
    for di, dj in offs:
        assert (-di, -dj) in s  # closed under negation
        assert math.gcd(abs(di), abs(dj)) == 1
        assert max(abs(di), abs(dj)) <= 2
    assert len(neighborhood_offsets(1)) == 8


# ---------------------------------------------------------------------------
# grid oracle: symmetry, triangle inequality, flat-space accuracy


@pytest.fixture(scope="module")
def flat_graph():
    sp = WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.0))
    return sp, GridGraph(sp, GridSpec(256, 256, 2))


@pytest.fixture(scope="module")
def cinch_graph():
    sp = WarpedSpace(circle_base(), FiberSpace(), cinch_bump(0.5, 0.0, 0.25))
    return sp, GridGraph(sp, GridSpec(128, 128, 2))


def test_grid_edge_matrix_is_bitwise_symmetric(cinch_graph):
    # every stencil edge (cell, target, step, weight) has its reverse
    # (target, cell, -step, weight) with the same weight bits
    _, graph = cinch_graph
    _m, start, target, step, weight = graph._stencil
    cell = np.repeat(np.arange(len(start) - 1), np.diff(start))
    bits = weight.view(np.int64)
    edges = np.stack([cell, target, step, bits])
    reverse = np.stack([target, cell, -step, bits])
    assert np.array_equal(edges[:, np.lexsort(edges[::-1])],
                          reverse[:, np.lexsort(reverse[::-1])])


def test_grid_distances_symmetric_and_triangle(cinch_graph, full_rows):
    sp, graph = cinch_graph
    rng = np.random.default_rng(7)
    nodes = rng.integers(0, graph.n_nodes, size=24)
    dmat = full_rows(graph, nodes)
    for a in range(len(nodes)):
        for b in range(len(nodes)):
            d_ab = dmat[a, nodes[b]]
            d_ba = dmat[b, nodes[a]]
            assert d_ab == pytest.approx(d_ba, abs=1e-11)
    # triangle inequality over all sampled triples, float-sum slack only
    for a in range(8):
        for b in range(8):
            for c in range(8):
                lhs = dmat[a, nodes[c]]
                rhs = dmat[a, nodes[b]] + dmat[b, nodes[c]]
                assert lhs <= rhs + 1e-11


def test_flat_grid_accuracy_within_declared_anisotropy(flat_graph, full_rows):
    sp, graph = flat_graph
    rng = np.random.default_rng(3)
    bound = ANISOTROPY_BOUND[2]
    src_nodes = rng.integers(0, graph.n_nodes, size=6)
    dmat = full_rows(graph, src_nodes)
    dst_nodes = rng.integers(0, graph.n_nodes, size=40)
    checked = 0
    for a, src in enumerate(src_nodes):
        p = graph.node_point(int(src))
        for dst in dst_nodes:
            q = graph.node_point(int(dst))
            exact = flat_product_distance(sp.base, sp.fiber, 1.0, p, q)
            if exact < 0.5:
                continue  # short hops are fully inside the offset fan
            got = dmat[a, dst]
            assert got >= exact - 1e-9  # paths can never beat the metric
            assert got <= exact * (1.0 + bound) + 1e-9
            checked += 1
    assert checked >= 100


def worst_quadrature_deviation(sp, graph):
    """Largest relative difference of any edge's 4-point midpoint weight
    from a 64-point rule on the same segment; axis directions are closed
    forms and must be exact, on the canonical rows where the graph builds
    mirrored weights, whose other rows copy their mirror image's weight."""
    worst = 0.0
    for di, dj in neighborhood_offsets(graph.spec.k):
        idx, w = graph._direction_weights(di, dj)
        fine = np.array([segment_length(sp, float(r), di * graph.hr,
                                        dj * graph.htheta, points_per_piece=64)
                         for r in graph.rows[idx]])
        rel = np.abs(w - fine) / fine
        if di == 0 or dj == 0:
            image = mirror_start_rows(graph, idx, di)
            own = np.ones(idx.size, dtype=bool) if image is None else idx <= image
            assert np.array_equal(w[own], fine[own]), (di, dj)
            if image is not None:
                assert np.array_equal(w, w[image - idx[0]]), (di, dj)
        worst = max(worst, float(rel.max()))
    return worst


def test_direction_weights_match_fine_quadrature(cinch_graph):
    assert 0.0 < worst_quadrature_deviation(*cinch_graph) <= 3e-4


# Worst relative deviation of the edge weights from the 64-point rule on
# each family's default grid, as measured: the quadrature term a grid
# distance's error bar must carry.  Constant profiles have exact weights.
QUADRATURE_DEVIATION = {
    ("cinched-torus", 1): 3.854e-6, ("cinched-torus", 4): 6.118e-5,
    ("moving-cinch", 1): 3.854e-6, ("moving-cinch", 4): 1.534e-5,
    ("single-ridge", 1): 3.683e-6, ("single-ridge", 4): 5.468e-5,
    ("moving-ridges", 1): 3.683e-6, ("moving-ridges", 4): 1.432e-5,
    ("many-ridges", 1): 5.018e-5, ("many-ridges", 4): 9.649e-5,
    ("ret-cinches", 1): 3.321e-5, ("ret-cinches", 4): 4.658e-6,
    ("constant", 1): 0.0, ("constant", 4): 0.0,
}


@pytest.mark.parametrize("j", [1, 4])
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_direction_weights_match_fine_quadrature_on_every_family(kind, j):
    fam = SequenceFamily(kind, depth=1.5 if kind in RIDGE_KINDS else 0.5)
    sp = fam.space(j)
    worst = worst_quadrature_deviation(sp, GridGraph(sp, default_grid(fam, j)))
    assert worst == pytest.approx(QUADRATURE_DEVIATION[kind, j], rel=1e-3, abs=0.0)


# ---------------------------------------------------------------------------
# closed-form candidates and special-pair helpers


def test_level_set_distance_requires_minimum():
    sp = WarpedSpace(circle_base(), FiberSpace(), cinch_bump(0.5, 0.0, 0.25))
    assert level_set_distance(sp, 0.0, 0.0, math.pi) == pytest.approx(0.5 * math.pi)
    with pytest.raises(HypothesisError):
        level_set_distance(sp, 1.0, 0.0, math.pi)  # f=1 there, not the min


# ---------------------------------------------------------------------------
# grid oracle between the flat floor and explicit curves


def explicit_curve_length(sp, p, q):
    """Length of the shorter of two explicit curves from p to q on a circle
    base: the straight parameter line along the minor displacements, by the
    64-point rule, and the best descend/traverse/climb curve, radial legs
    to a level r and the minor fiber arc along it, over 4097 levels."""
    base, fiber = sp.base, sp.fiber
    dr = (q.r - p.r + 0.5 * base.length) % base.length - 0.5 * base.length
    line = segment_length(sp, p.r, dr, fiber.signed_minor(p.theta, q.theta),
                          points_per_piece=64)
    levels = np.linspace(base.r_min, base.r_max, 4097)
    via = (base.distance(p.r, levels) + base.distance(q.r, levels)
           + sp.warp_at(levels) * fiber.distance(p.theta, q.theta))
    return min(line, float(via.min()))


@pytest.mark.parametrize(
    "profile",
    [
        ConstantProfile(1.0),
        ridge_bump(1.5, 0.0, 0.25),
        cinch_bump(0.5, 0.0, 0.25),
    ],
    ids=["flat", "ridge", "cinch"],
)
def test_grid_oracle_within_explicit_curve_bracket(profile):
    # No curve beats the flat product at the lowest warp, and a grid
    # distance is the length of a grid path up to the edge weights'
    # quadrature error (at most 9.6e-5 relative, pinned above).  So g sits
    # above that floor, and at most its anisotropy bar above any curve.
    sp = WarpedSpace(circle_base(), FiberSpace(), profile)
    graph = GridGraph(sp, GridSpec(256, 256, 2))
    pairs = random_surface_pairs(np.random.default_rng(17), 20)
    for ps, qs, d, err in grid_values(graph, pairs):
        floor = math.hypot(sp.base.distance(ps.r, qs.r),
                           sp.profile_min() * sp.fiber.distance(ps.theta, qs.theta))
        assert floor * (1.0 - 1e-4) - 1e-9 <= d
        assert d <= explicit_curve_length(sp, ps, qs) + err + 1e-6


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 256, 2)
    with pytest.raises(ValueError):
        GridSpec(256, 256, 7)


@pytest.mark.parametrize("make", [
    lambda: GridSpec(64.0, 64, 2),
    lambda: GridSpec(64, 64.5, 2),
    lambda: GridSpec(64, 64, True),
    lambda: GridSpec(64, 64, np.bool_(True)),
    lambda: GridSpec("64", 64, 2),
    lambda: Grid3Spec(32.0),
    lambda: Grid3Spec(True),
    lambda: Grid3Spec(np.float64(64)),
], ids=["float-n_r", "fraction", "bool-k", "numpy-bool-k", "str",
        "float-n", "bool-n3", "numpy-float-n"])
def test_grid_specs_reject_non_integer_sizes(make):
    with pytest.raises(ValueError):
        make()


def test_grid_specs_store_numpy_integers_as_int():
    spec = GridSpec(np.int64(64), np.int32(48), np.uint8(2))
    spec3 = Grid3Spec(np.int64(33))
    for value in spec.as_list() + spec3.as_list():
        assert type(value) is int
    assert spec == GridSpec(64, 48, 2) and spec3 == Grid3Spec(33)


# ---------------------------------------------------------------------------
# aspect-aware anisotropy: independent brute force with rescaled offsets


def anisotropic_worst_stretch(k: int, aspect: float, n_sweep: int = 180) -> float:
    """LP brute force of the worst grid-metric stretch when fiber steps are
    `aspect` times as long as radial steps.  Mirrors worst_stretch but feeds
    the rescaled offset vectors to the direction LP."""
    offs = [(di, aspect * dj) for di, dj in neighborhood_offsets(k)]
    worst = 0.0
    for phi in np.linspace(0.0, math.pi / 2, n_sweep):
        c = lp_direction_cost(offs, math.cos(phi), math.sin(phi))
        worst = max(worst, c - 1.0)
    return worst


@pytest.mark.parametrize("k,aspect", [(1, 0.5), (1, 2.0), (2, 0.5), (2, 2.0)])
def test_stencil_anisotropy_matches_lp_brute_force(k, aspect):
    brute = anisotropic_worst_stretch(k, aspect)
    got = stencil_anisotropy(k, aspect, aspect)
    # the returned bound carries a 0.5% safety factor; the sweep undershoots
    # the supremum by at most O(step^2)
    assert got >= brute - 1e-9
    assert got <= 1.005 * (brute + 2e-4) + 1.1e-4


def test_stencil_anisotropy_reduces_to_square_constants():
    for k, frozen in ANISOTROPY_BOUND.items():
        got = stencil_anisotropy(k, 1.0, 1.0)
        assert frozen <= got <= 1.006 * frozen + 1.1e-4


def test_stencil_anisotropy_symmetric_in_inverse_aspect():
    # the offset pattern is symmetric under swapping the two axes, so
    # stretching the fiber by a and shrinking it by a look alike
    for k in (1, 2):
        for a in (1.5, 3.0, 7.0):
            assert stencil_anisotropy(k, a, a) == pytest.approx(
                stencil_anisotropy(k, 1.0 / a, 1.0 / a), rel=1e-9)


def test_stencil_anisotropy_range_dominates_members():
    lo, hi = 0.5, 4.0
    for k in (1, 2):
        over_range = stencil_anisotropy(k, lo, hi)
        for a in (lo, 1.0, 2.0, hi):
            assert over_range >= stencil_anisotropy(k, a, a) - 1e-4


def test_stencil_anisotropy_rejects_bad_ranges():
    with pytest.raises(ValueError):
        stencil_anisotropy(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        stencil_anisotropy(2, 2.0, 1.0)
    with pytest.raises(ValueError):
        stencil_anisotropy(2, 1.0, math.inf)


def test_grid_graph_carries_aspect_aware_bound():
    # a plateau-5 space on a square grid spans aspects [1, 5]; its error
    # bound must exceed the square-aspect constant
    sp = WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.0))
    flat = GridGraph(sp, GridSpec(64, 64, 2))
    assert flat.aniso_bound == pytest.approx(
        stencil_anisotropy(2, flat.htheta / flat.hr, flat.htheta / flat.hr))
    tall = WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(5.0))
    stretched = GridGraph(tall, GridSpec(64, 64, 2))
    assert stretched.aniso_bound > flat.aniso_bound


# ---------------------------------------------------------------------------
# the cinched limit space: closed form vs 2D brute-force minimization


def brute_cinch_distance(depth, cinch_r, base, fiber, p, q, n=720):
    """Min over a dense n x n grid of circle junction angles of
    leg(p -> junction1) + depth * arc(junction1 -> junction2) +
    leg(junction2 -> q), floored by the plain product distance.  Each leg is
    the flat cost sqrt(base_dist^2 + minor_arc^2)."""
    C = fiber.circumference
    phis = np.arange(n) * (C / n)

    def minor(delta):
        d = np.abs(np.mod(delta, C))
        return np.minimum(d, C - d)

    a1 = base.distance(p.r, cinch_r)
    a2 = base.distance(q.r, cinch_r)
    leg1 = np.sqrt(a1 * a1 + minor(phis - p.theta) ** 2)
    leg2 = np.sqrt(a2 * a2 + minor(phis - q.theta) ** 2)
    arc = minor(phis[:, None] - phis[None, :])
    total = leg1[:, None] + depth * arc + leg2[None, :]
    flat = flat_product_distance(base, fiber, 1.0, p, q)
    return min(flat, float(total.min()))


def test_cinch_limit_pinned_value_against_brute_force():
    base, fiber = circle_base(), FiberSpace()
    p, q = SurfacePoint(-1.0, 0.0), SurfacePoint(1.0, math.pi)
    closed = cinch_limit_distance(0.5, 0.0, base, fiber, p, q)
    # frozen: legs 2 * sqrt(1 - 0.25) plus half a fiber at rate 0.5
    assert closed == pytest.approx(math.sqrt(3.0) + math.pi / 2, abs=1e-12)
    assert closed == pytest.approx(3.3028471343637738, abs=1e-12)
    brute = brute_cinch_distance(0.5, 0.0, base, fiber, p, q)
    # the closed form is an infimum over all routes, the brute force a min
    # over a dense but finite route family
    assert closed <= brute + 1e-12
    assert brute - closed <= 0.01


@pytest.mark.parametrize("depth,cinch_r,pr,pth,qr,qth", [
    (0.3, 0.0, -2.0, 0.5, 2.5, 4.0),
    (0.7, 1.0, 0.2, 6.0, -3.0, 2.0),
    (0.9, -2.5, -2.0, 0.0, -3.0, 3.2),
    (0.5, 0.0, 0.5, 1.0, 0.5, 1.2),   # short hop, flat route wins
    (0.1, 2.0, 2.0, 0.0, 2.0, math.pi),  # on-cinch pair
])
def test_cinch_limit_matches_brute_force(depth, cinch_r, pr, pth, qr, qth):
    base, fiber = circle_base(), FiberSpace()
    p, q = SurfacePoint(pr, pth), SurfacePoint(qr, qth)
    closed = cinch_limit_distance(depth, cinch_r, base, fiber, p, q)
    brute = brute_cinch_distance(depth, cinch_r, base, fiber, p, q)
    assert closed <= brute + 1e-12
    assert brute - closed <= 0.01


def test_cinch_limit_on_cinch_pairs_ride_the_circle():
    base, fiber = circle_base(), FiberSpace()
    for depth in (0.3, 0.5, 0.9):
        for dth in (0.5, 2.0, math.pi):
            p, q = SurfacePoint(0.0, 1.0), SurfacePoint(0.0, 1.0 + dth)
            got = cinch_limit_distance(depth, 0.0, base, fiber, p, q)
            assert got == pytest.approx(depth * dth, abs=1e-12)


def test_cinch_limit_depth_one_is_flat():
    base, fiber = circle_base(), FiberSpace()
    p, q = SurfacePoint(-1.2, 0.3), SurfacePoint(2.0, 4.4)
    assert cinch_limit_distance(1.0, 0.0, base, fiber, p, q) == \
        flat_product_distance(base, fiber, 1.0, p, q)


@pytest.mark.parametrize("level", [-1.0, 0.0, math.nan, math.inf])
def test_flat_product_distance_rejects_a_level_not_finite_and_positive(level):
    # np.hypot drops the sign: level -1 read as 1
    p, q = SurfacePoint(0.0, 0.0), SurfacePoint(1.0, 1.0)
    with pytest.raises(InvalidDescriptor):
        flat_product_distance(circle_base(), FiberSpace(), level, p, q)


def test_cinch_limit_validation():
    base, fiber = circle_base(), FiberSpace()
    p = SurfacePoint(0.0, 0.0)
    with pytest.raises(InvalidDescriptor):
        cinch_limit_distance(0.0, 0.0, base, fiber, p, p)
    with pytest.raises(InvalidDescriptor):
        cinch_limit_distance(1.5, 0.0, base, fiber, p, p)
    with pytest.raises(HypothesisError):
        cinch_limit_distance(0.5, 9.0, interval_base(), fiber, p, p)


@given(
    depth=st.floats(0.05, 1.0),
    cr=st.floats(-math.pi, math.pi),
    pr=st.floats(-math.pi, math.pi),
    pth=st.floats(0.0, 2.0 * math.pi),
    qr=st.floats(-math.pi, math.pi),
    qth=st.floats(0.0, 2.0 * math.pi),
)
@settings(max_examples=60, deadline=None)
def test_cinch_limit_bounded_by_flat_and_symmetric(depth, cr, pr, pth, qr, qth):
    base, fiber = circle_base(), FiberSpace()
    p, q = SurfacePoint(pr, pth), SurfacePoint(qr, qth)
    d = cinch_limit_distance(depth, cr, base, fiber, p, q)
    flat = flat_product_distance(base, fiber, 1.0, p, q)
    assert 0.0 <= d <= flat + 1e-12
    assert d == pytest.approx(
        cinch_limit_distance(depth, cr, base, fiber, q, p), abs=1e-12)


def test_cinch_limit_triangle_inequality():
    base, fiber = circle_base(), FiberSpace()
    rng = np.random.default_rng(7)
    pts = [SurfacePoint(rng.uniform(-math.pi, math.pi),
                        rng.uniform(0.0, 2.0 * math.pi)) for _ in range(12)]

    def d(a, b):
        return cinch_limit_distance(0.4, 0.0, base, fiber, a, b)

    for a in pts[:6]:
        for b in pts[3:9]:
            for c in pts[6:]:
                assert d(a, c) <= d(a, b) + d(b, c) + 1e-10


def test_cinch_limit_agrees_with_shrinking_grid_family():
    # stage spaces with cinch width 1/j approach the singular limit; a
    # two-point Richardson step in 1/j cancels the leading width effect,
    # leaving only grid error.  Both grids share their nodes, so the limit
    # is evaluated once, at the snapped endpoints.
    base, fiber = circle_base(), FiberSpace()
    pair = (SurfacePoint(-1.0, 0.0), SurfacePoint(1.0, math.pi))
    vals, errs = [], []
    for j in (8, 16):
        sp = WarpedSpace(base, fiber, cinch_bump(0.5, 0.0, 1.0 / j))
        [(ps, qs, d, err)] = grid_values(GridGraph(sp, GridSpec(256, 256, 2)),
                                         [pair])
        vals.append(d)
        errs.append(err)
    target = cinch_limit_distance(0.5, 0.0, base, fiber, ps, qs)
    extrapolated = 2.0 * vals[1] - vals[0]
    assert abs(extrapolated - target) <= max(errs) + 0.02
