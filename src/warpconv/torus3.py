"""Warped 3-torus laboratory: metrics dx^2 + dy^2 + f(x,y)^2 dz^2.

The cube [-pi, pi]^3 is periodic in all three coordinates.  A scalar field
f on the (x, y) torus scales only the z direction, so xy-travel costs plain
Euclidean length while z-travel costs f times the height; the limit of a
field sequence collapsing to a constant c in L2 is the flat metric with the
z axis stretched by c.

Pieces:

* scalar fields (constant, one radial cosine bump, a sum of bumps) with
  closed-form integrals and L2 distances to a constant,
* a periodic 3D grid graph over the full 26-direction unit stencil with
  midpoint edge weights and an aspect-aware anisotropy bound derived from
  the stencil's convex hull,
* the closed-form limit metric, a diameter bound, a bi-Lipschitz constant,
* a stage family (one bump walking the dyadic rationals of the diagonal
  while it narrows) and the convergence experiment through the surface
  pipeline: the plan, probe and stage-row code of `convergence` gives the
  reference-corrected discrepancies, and this module adds the audit rows.

The z-stencil choice deliberately exceeds the minimal axis+corner set: with
only axis moves available inside the xy-plane, a diagonal xy pair costs a
factor sqrt(2) too much no matter how fine the grid, which would swamp any
convergence measurement.  The full stencil keeps the worst-case stretch
near 13% at unit aspect (about 20% across a [1, 2] field range), and the
per-graph bound is computed from the stencil geometry rather than assumed;
the reference-corrected discrepancies cancel the systematic part.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import ConvexHull

from .core import TAU, HypothesisError, InvalidDescriptor, _bump_shape
from .convergence import (
    AuditRow,
    ConvergenceReport,
    DiscrepancyResult,
    PairProbe,
    StageRow,
    probe_plan,
    stage_row,
)
from .families import dyadic_walk
from .geodesy import (
    GeodesicResult,
    GridSizeError,
    OrbitSweepCache,
    _integer_fields,
    fibered_csr,
)
from .sampling import SamplePlan, halton_points

MAX_NODES_3D = 2 ** 24
VOLUME_DIM = 3

# disc moments of the canonical cosine bump b: 2*pi*int_0^1 u b(u)^p du
_BUMP_DISC_MEAN = 2.0 * math.pi * (0.25 - 1.0 / math.pi ** 2)
_BUMP_DISC_SQUARE = 2.0 * math.pi * (3.0 / 16.0 - 1.0 / math.pi ** 2)


def wrap_cube(v: float) -> float:
    """Wrap a coordinate to [-pi, pi)."""
    return (v + math.pi) % TAU - math.pi


def _minor(delta):
    """Minor-arc magnitude of a coordinate difference on the 2*pi circle.

    The absolute value comes first so the result is bit-exact symmetric
    in the sign of `delta`."""
    d = np.mod(np.abs(delta), TAU)
    return np.minimum(d, TAU - d)


def _signed_minor(delta: float) -> float:
    """Signed minor-arc representative in (-pi, pi]."""
    d = math.fmod(delta + math.pi, TAU)
    if d < 0:
        d += TAU
    return d - math.pi


class Point3(NamedTuple):
    x: float
    y: float
    z: float

    def wrapped(self) -> "Point3":
        return Point3(wrap_cube(self.x), wrap_cube(self.y), wrap_cube(self.z))


# ---------------------------------------------------------------------------
# scalar fields on the (x, y) torus
# ---------------------------------------------------------------------------


class ScalarField2D:
    """Positive field on the periodic square, z-scale of the 3-metric."""

    def __call__(self, x, y):
        raise NotImplementedError

    def min_value(self) -> float:
        raise NotImplementedError

    def max_value(self) -> float:
        raise NotImplementedError

    def integral(self) -> float:
        """Integral of f over the fundamental square [-pi, pi]^2."""
        raise NotImplementedError

    def l2_vs_level(self, c: float) -> float:
        """Exact L2([-pi,pi]^2) distance to the constant field c."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantField(ScalarField2D):
    level: float = 1.0

    def __post_init__(self):
        if not (self.level > 0 and math.isfinite(self.level)):
            raise InvalidDescriptor("field level must be positive and finite")

    def __call__(self, x, y):
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        if shape:
            return np.full(shape, self.level)
        return self.level

    def min_value(self):
        return self.level

    def max_value(self):
        return self.level

    def integral(self):
        return TAU * TAU * self.level

    def l2_vs_level(self, c):
        return abs(self.level - c) * TAU


@dataclass(frozen=True)
class BumpField(ScalarField2D):
    """Constant level with one radially symmetric cosine bump.

    f(x, y) = level + (peak - level) * b(dist((x,y), center) / half_width)
    with torus distance and the canonical C^1 cosine bump b.
    """

    level: float
    peak: float
    center: Tuple[float, float]
    half_width: float

    def __post_init__(self):
        if not (self.level > 0 and self.peak > 0):
            raise InvalidDescriptor("field values must stay positive")
        if not (0.0 < self.half_width <= math.pi):
            raise InvalidDescriptor("half_width must lie in (0, pi]")

    def __call__(self, x, y):
        dx = _minor(np.asarray(x, dtype=float) - self.center[0])
        dy = _minor(np.asarray(y, dtype=float) - self.center[1])
        t = np.hypot(dx, dy) / self.half_width
        return self.level + (self.peak - self.level) * _bump_shape(t)

    def min_value(self):
        return min(self.level, self.peak)

    def max_value(self):
        return max(self.level, self.peak)

    def integral(self):
        return TAU * TAU * self.level + \
            (self.peak - self.level) * self.half_width ** 2 * _BUMP_DISC_MEAN

    def l2_vs_level(self, c):
        # expand ((level - c) + amp * b)^2; the b-moments are closed forms
        amp = self.peak - self.level
        base = self.level - c
        sq = (base * base * TAU * TAU
              + 2.0 * base * amp * self.half_width ** 2 * _BUMP_DISC_MEAN
              + amp * amp * self.half_width ** 2 * _BUMP_DISC_SQUARE)
        return math.sqrt(max(sq, 0.0))


@dataclass(frozen=True)
class SumOfBumpsField(ScalarField2D):
    """Constant level plus several cosine bumps: (peak, cx, cy, half_width).

    Bump supports (discs in the torus distance) must be disjoint: the range
    and the closed-form integrals read each bump on its own.
    """

    level: float
    bumps: Tuple[Tuple[float, float, float, float], ...]

    def __post_init__(self):
        if self.level <= 0:
            raise InvalidDescriptor("field level must be positive")
        for peak, _cx, _cy, hw in self.bumps:
            if peak <= 0 or not (0.0 < hw <= math.pi):
                raise InvalidDescriptor("bump peaks positive, widths in (0, pi]")
        for i, (_peak, cx, cy, hw) in enumerate(self.bumps):
            for _peak2, cx2, cy2, hw2 in self.bumps[i + 1:]:
                if math.hypot(_minor(cx - cx2), _minor(cy - cy2)) < hw + hw2:
                    raise InvalidDescriptor("bump supports must not overlap")

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.full(np.broadcast(x, y).shape, self.level, dtype=float)
        for peak, cx, cy, hw in self.bumps:
            t = np.hypot(_minor(x - cx), _minor(y - cy)) / hw
            out = out + (peak - self.level) * _bump_shape(t)
        return out

    def min_value(self):
        # sound because construction rejects overlapping bumps
        lows = [min(self.level, peak) for peak, *_ in self.bumps]
        return min([self.level] + lows)

    def max_value(self):
        highs = [max(self.level, peak) for peak, *_ in self.bumps]
        return max([self.level] + highs)

    def integral(self):
        total = TAU * TAU * self.level
        for peak, _cx, _cy, hw in self.bumps:
            total += (peak - self.level) * hw * hw * _BUMP_DISC_MEAN
        return total


# ---------------------------------------------------------------------------
# limit metric and closed-form bounds
# ---------------------------------------------------------------------------


def limit3_distance(c: float, p: Point3, q: Point3) -> float:
    """Flat distance with the z axis stretched by c: per-coordinate minor
    arcs (each coordinate enters monotonically, so wrapping separates)."""
    if not (c > 0):
        raise InvalidDescriptor("limit level must be positive")
    dx = float(_minor(p.x - q.x))
    dy = float(_minor(p.y - q.y))
    dz = float(_minor(p.z - q.z))
    return math.sqrt(dx * dx + dy * dy + c * c * dz * dz)


def diameter3_upper_bound(delta_l2: float, c_sup: float) -> float:
    """Diameter cap for any 3-metric whose field is within delta_l2 of a
    constant with sup norm c_sup: xy travel plus one z sweep."""
    if not (c_sup > 0):
        raise HypothesisError("field sup must be positive")
    if delta_l2 < 0:
        raise InvalidDescriptor("L2 distance cannot be negative")
    return 4.0 * math.sqrt(2.0) * math.pi + TAU * (c_sup + delta_l2 / TAU)


def bilip_lambda3(fld: ScalarField2D) -> float:
    """Bi-Lipschitz constant against the unit flat 3-torus:
    max(1/min(a,1), max(1,b)) for the field's range [a, b]."""
    return max(1.0 / min(fld.min_value(), 1.0), max(1.0, fld.max_value()))


# ---------------------------------------------------------------------------
# 3D stencil and its anisotropy
# ---------------------------------------------------------------------------


def stencil_offsets3() -> List[Tuple[int, int, int]]:
    """All 26 unit-cube directions in a fixed deterministic order."""
    offs = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx or dy or dz:
                    offs.append((dx, dy, dz))
    return offs


def stencil_anisotropy3(scale_lo: float, scale_hi: float) -> float:
    """Worst-case relative overestimate of the 26-direction grid metric when
    the z step is scale times as long as the xy steps, maxed over
    scale in [scale_lo, scale_hi].

    Rescaled steps are unit vectors, so the grid metric's unit ball is the
    convex hull of the 26 step directions; the worst stretch over a facet is
    at most 1/(facet plane's distance to the origin) - 1.  A 0.5% margin
    covers the finite scale sampling.
    """
    if not (0 < scale_lo <= scale_hi) or not math.isfinite(scale_hi):
        raise ValueError("scale range must be positive and finite")
    offs = np.asarray(stencil_offsets3(), dtype=float)
    lo, hi = math.log(scale_lo), math.log(scale_hi)
    samples = np.exp(np.linspace(lo, hi, 65)) if hi > lo else [scale_lo]
    worst = 0.0
    for a in samples:
        pts = offs * np.array([1.0, 1.0, a])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        hull = ConvexHull(pts)
        offset = float(np.min(-hull.equations[:, -1]))
        worst = max(worst, 1.0 / offset - 1.0)
    return 1.005 * worst + 1e-4


# ---------------------------------------------------------------------------
# the 3D grid oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid3Spec:
    """Per-axis resolution of the periodic 3D grid (unit stencil)."""

    n: int = 64
    k: int = 1

    def __post_init__(self):
        _integer_fields(self)
        if self.n < 32:
            raise ValueError("3D grid needs at least 32 subdivisions per axis")
        if self.k != 1:
            raise ValueError("only the unit (26-direction) stencil is supported")

    def as_list(self) -> List[int]:
        """Subdivisions per axis, then the stencil radius."""
        return [self.n, self.n, self.n, self.k]


class Grid3Graph(OrbitSweepCache):
    """Weighted graph over the periodic n^3 lattice.

    Edge weights use midpoint metric evaluation: a step (dx, dy, dz) from a
    node costs h * sqrt(dx^2 + dy^2 + f(mid)^2 dz^2) with f read at the
    step's xy midpoint.  Weights depend on (x, y) only and are even in dz,
    so each mirror pair (dx, dy, +-dz) is one n x n sheet of weights, and
    `fibered_csr` writes the CSR from the sheets with the (x, y) cells as
    base cells (`_base_shape` (n, n)) and z as the fiber, folded by the
    mirror z -> -z: it holds z = 0..n//2 of every cell, about half the nodes
    and edges.  z rolls are automorphisms, so one sweep per source (x, y),
    run on the folded graph from the cell's z = 0, answers every pair.  When
    every sheet is constant, `base_invariant` is set: one sweep answers all.
    """

    def __init__(self, fld: ScalarField2D, spec: Grid3Spec = Grid3Spec()):
        n = spec.n
        if n ** 3 > MAX_NODES_3D:
            raise GridSizeError(
                f"3D grid {n}^3 exceeds the {MAX_NODES_3D} node memory guard")
        self.field = fld
        self.spec = spec
        self.h = TAU / n
        self.coords = -math.pi + self.h * np.arange(n)
        self.n_nodes = n ** 3
        self.aniso_bound = stencil_anisotropy3(fld.min_value(), fld.max_value())
        self._base_shape = (n, n)
        self._matrix, self._stencil, self.base_invariant = self._build()
        self._orbit_rows = {}

    def _build(self):
        """Folded CSR matrix and stencil of the graph, and whether every
        weight sheet is constant (xy shifts are then automorphisms too)."""
        n = self.spec.n
        h = self.h
        xs = self.coords
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        plane = np.arange(n * n).reshape(n, n)
        directions = []
        # one direction per pair +-(dx, dy, +-dz): fibered_csr adds the rest
        halves = [o for o in stencil_offsets3()
                  if o[:2] >= (0, 0) and o[2] >= 0 and o != (0, 0, 0)]
        base_invariant = True
        for dx, dy, dz in halves:
            if dz == 0:
                w_sheet = np.full((n, n), h * math.hypot(dx, dy))
            else:
                f = np.asarray(self.field(X + 0.5 * dx * h, Y + 0.5 * dy * h),
                               dtype=float)
                w_sheet = h * np.sqrt(dx * dx + dy * dy + (f * dz) ** 2)
            base_invariant = base_invariant and bool(np.all(w_sheet == w_sheet[0, 0]))
            sheet_to = plane[(np.arange(n) + dx) % n][:, (np.arange(n) + dy) % n]
            directions.append((plane.ravel(), sheet_to.ravel(), dz, w_sheet.ravel()))
        matrix, stencil = fibered_csr(n * n, n, directions)
        return matrix, stencil, base_invariant

    # -- queries --------------------------------------------------------

    def node_index(self, ix: int, iy: int, iz: int) -> int:
        n = self.spec.n
        return (ix * n + iy) * n + iz

    def node_point(self, idx: int) -> Point3:
        n = self.spec.n
        ixy, iz = divmod(int(idx), n)
        ix, iy = divmod(ixy, n)
        return Point3(float(self.coords[ix]), float(self.coords[iy]),
                      float(self.coords[iz]))

    def snap(self, p: Point3) -> Tuple[int, Point3, float]:
        """Nearest node: (index, node point, metric cost of the snap hop)."""
        n = self.spec.n
        ids = [int(round((wrap_cube(v) + math.pi) / self.h)) % n
               for v in (p.x, p.y, p.z)]
        node = self.node_index(*ids)
        q = self.node_point(node)
        dx = _signed_minor(p.x - q.x)
        dy = _signed_minor(p.y - q.y)
        dz = _signed_minor(p.z - q.z)
        if not (dx or dy or dz):
            return node, q, 0.0
        fmid = float(self.field(q.x + 0.5 * dx, q.y + 0.5 * dy))
        return node, q, math.sqrt(dx * dx + dy * dy + (fmid * dz) ** 2)

    def mass(self) -> float:
        """Riemannian volume: the z circle sweeps the field's area integral."""
        return TAU * self.field.integral()


def grid3_distance(fld: ScalarField2D, p: Point3, q: Point3,
                   spec: Grid3Spec = Grid3Spec(),
                   graph: Optional[Grid3Graph] = None) -> GeodesicResult:
    """Grid-oracle distance on the warped 3-torus, with the same error
    convention as the surface oracle: snap costs plus anisotropy times the
    path length.  The value is read from the graph's orbit cache."""
    g = graph if graph is not None else Grid3Graph(fld, spec)
    src, _ps, cost_p = g.snap(p)
    dst, _qs, cost_q = g.snap(q)
    dist = g.pair_distances([(src, dst)])[0]
    return GeodesicResult(dist, f"grid3-{g.spec.n}^3",
                          g.error_bound(dist, cost_p + cost_q))


# ---------------------------------------------------------------------------
# sample plans in the cube
# ---------------------------------------------------------------------------

Pair3 = Tuple[Point3, Point3]


def cube_samples(count: int, offset: int = 0) -> Tuple[Point3, ...]:
    """Low-discrepancy points in the periodic cube."""
    pts = halton_points(count, dims=3, offset=offset)
    return tuple(Point3(-math.pi + u * TAU, -math.pi + v * TAU,
                        -math.pi + w * TAU) for u, v, w in pts)


# ---------------------------------------------------------------------------
# the moving-bump stage family and the experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Torus3Family:
    """Stage sequence of 3-torus fields.

    kind ``moving-bump``: one radial bump of height `peak` walking the
    dyadic rationals of the main diagonal (center (t_j, t_j)) while its
    half-width tracks the walk's level spacing.  kind ``constant``: the
    trivial control, f_j = level at every stage.
    """

    kind: str = "moving-bump"
    level: float = 1.0
    peak: float = 2.0

    def __post_init__(self):
        if self.kind not in ("moving-bump", "constant"):
            raise InvalidDescriptor(f"unknown 3D family kind {self.kind!r}")
        if self.level <= 0:
            raise InvalidDescriptor("limit level must be positive")
        if self.kind == "moving-bump" and self.peak <= self.level:
            raise InvalidDescriptor("bump peak must exceed the limit level")

    def field(self, j: int) -> ScalarField2D:
        if j < 1:
            raise InvalidDescriptor("family stages are 1-indexed")
        if self.kind == "constant":
            return ConstantField(self.level)
        t, width = dyadic_walk(j)
        return BumpField(self.level, self.peak, (t, t), width)

    def special_pairs(self, j: int) -> Tuple[Pair3, ...]:
        """z-antipodal probes on, near, and off the bump center."""
        if self.kind == "constant":
            cx = cy = 0.0
            width = 1.0
        else:
            t, width = dyadic_walk(j)
            cx = cy = t
        far_x = wrap_cube(cx + math.pi)
        pairs = [
            (Point3(cx, cy, 0.0), Point3(cx, cy, math.pi)),
            (Point3(cx + 0.5 * width, cy, 0.0),
             Point3(cx + 0.5 * width, cy, math.pi)),
            (Point3(far_x, cy, 0.0), Point3(far_x, cy, math.pi)),
            (Point3(cx - 2.0 * width, cy, 0.0),
             Point3(wrap_cube(cx + 2.0 * width), cy, math.pi)),
        ]
        return tuple((a.wrapped(), b.wrapped()) for a, b in pairs)

    def sample_plan(self, j: int, n_sources: int = 6,
                    n_targets: int = 10, offset: int = 0) -> SamplePlan:
        return SamplePlan(cube_samples(n_sources, offset=offset),
                          cube_samples(n_targets, offset=offset + n_sources),
                          self.special_pairs(j))

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant3(level={self.level:g})"
        return f"moving-bump3(level={self.level:g}, peak={self.peak:g})"


def _quadrature_l2(fld: ScalarField2D, c: float, n: int = 256) -> float:
    """Midpoint-rule L2 distance of the field to the constant c."""
    xs = -math.pi + TAU * (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = np.asarray(fld(X, Y), dtype=float) - c
    return float(math.sqrt(np.sum(vals * vals) * (TAU / n) ** 2))


def run_torus3_experiment(family: Torus3Family, j_list: Sequence[int],
                          grid: Grid3Spec = Grid3Spec(),
                          n_sources: int = 6, n_targets: int = 10,
                          with_audits: bool = True,
                          seed: int = 0) -> ConvergenceReport:
    """Stage-by-stage discrepancy against the constant-field limit, with a
    same-grid constant reference run cancelling the oracle's systematic
    error, plus the lower-bound / diameter / sandwich audit rows."""
    c = family.level
    limit = f"flat3(level={c:g})"
    reference = Grid3Graph(ConstantField(c), grid)
    rows: List[StageRow] = []
    audits: Dict[int, Tuple[AuditRow, ...]] = {}
    for j in j_list:
        fld = family.field(j)
        graph = Grid3Graph(fld, grid)
        plan = family.sample_plan(j, n_sources=n_sources, n_targets=n_targets,
                                  offset=seed)
        res = DiscrepancyResult(
            family.describe(), j, limit, grid,
            probe_plan(graph, plan, lambda p, q: limit3_distance(c, p, q),
                       reference))
        l2 = _quadrature_l2(fld, c)
        l2_bound = fld.l2_vs_level(c) if not isinstance(fld, SumOfBumpsField) \
            else l2
        lam = bilip_lambda3(fld)
        rows.append(stage_row(res, l2, l2_bound, lam, graph.mass(), VOLUME_DIM))
        if with_audits:
            audits[j] = tuple(_audit_rows3(family, j, fld, res.probes, l2, lam))
    return ConvergenceReport(family.describe(), limit, VOLUME_DIM,
                             tuple(rows), audits)


def _audit_rows3(family: Torus3Family, j: int, fld: ScalarField2D,
                 probes: Tuple[PairProbe, ...], l2: float, lam: float):
    c = family.level
    fmin = fld.min_value()
    rows: List[AuditRow] = []

    # stage distances cannot undershoot the limit by more than the pinched
    # detour cost; the cap uses the stage diameter bound
    name = "distance-lower-bound"
    if fmin < c - 1.0 / j or fmin <= 0:
        rows.append(AuditRow(name, skipped=True,
                             reason=f"field min {fmin:g} dips below "
                                    f"c - 1/j = {c - 1.0 / j:g}"))
    else:
        diam_j = diameter3_upper_bound(l2, c)
        rhs = -math.sqrt(2.0) * math.sqrt(c) * diam_j / (fmin * math.sqrt(j))
        observed, tol = math.inf, 0.0
        for pr in probes:
            gap = pr.grid_value - pr.limit_value
            if gap < observed:
                observed, tol = gap, pr.grid_error
        rows.append(AuditRow(name, slack=observed - rhs, tolerance=tol + 1e-9,
                             bound=rhs, observed=observed,
                             n_samples=len(probes)))

    dbound = diameter3_upper_bound(l2, c)
    observed = max(pr.grid_value for pr in probes)
    rows.append(AuditRow("diameter", slack=dbound - observed,
                         tolerance=max(pr.grid_error for pr in probes),
                         bound=dbound, observed=observed,
                         n_samples=len(probes)))

    # sandwich against the unit flat 3-torus, whose distance is closed-form
    worst_slack, worst_tol = math.inf, 0.0
    for pr in probes:
        d1 = limit3_distance(1.0, pr.p, pr.q)
        slack = min(lam * d1 - pr.grid_value, pr.grid_value - d1 / lam)
        if slack < worst_slack:
            worst_slack, worst_tol = slack, pr.grid_error
    rows.append(AuditRow("bilip-sandwich", slack=worst_slack,
                         tolerance=worst_tol + 1e-9, bound=lam,
                         observed=worst_slack, n_samples=len(probes)))
    return rows
