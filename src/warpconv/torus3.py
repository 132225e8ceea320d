"""Warped 3-torus laboratory: metrics dx^2 + dy^2 + f(x,y)^2 dz^2.

The cube [-pi, pi]^3 is periodic in all three coordinates.  A scalar field
f on the (x, y) torus scales only the z direction, so xy-travel costs plain
Euclidean length while z-travel costs f times the height; the limit of a
field sequence collapsing to a constant c in L2 is the flat metric with the
z axis stretched by c.

Pieces:

* scalar fields (constant, one radial cosine bump) with closed-form
  integrals and L2 distances to a constant,
* a periodic 3D grid graph over the full 26-direction unit stencil with
  midpoint edge weights and an aspect-aware anisotropy bound derived from
  the stencil's convex hull (its inradius, from the support function at
  the normals of 268 candidate facets: numpy alone, no hull library),
* the closed-form limit metric, a diameter bound, a bi-Lipschitz constant,
* a stage family (one bump walking the dyadic rationals of the diagonal
  while it narrows) and the convergence experiment, run by the surface
  pipeline's `convergence.run_stages` with its stage loop, reference cache,
  probes, rows and audit rows; this module supplies the fields, the graph,
  the flat limit and the diameter bound.

The z-stencil choice deliberately exceeds the minimal axis+corner set: with
only axis moves available inside the xy-plane, a diagonal xy pair costs a
factor sqrt(2) too much no matter how fine the grid, which would swamp any
convergence measurement.  The full stencil keeps the worst-case stretch
near 13% at unit aspect (about 20% across a [1, 2] field range), and the
per-graph bound is computed from the stencil geometry rather than assumed;
the reference-corrected discrepancies cancel the systematic part.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .core import TAU, HypothesisError, InvalidDescriptor, _bump_shape
from .convergence import (
    ConvergenceReport,
    Limit,
    PairProbe,
    Stage,
    diameter_row,
    lower_bound_row,
    run_stages,
    sandwich_row,
)
from .families import dyadic_walk
from .geodesy import (
    GridSizeError,
    OrbitSweepCache,
    _integer_fields,
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


@functools.cache
def _facet_triples3() -> np.ndarray:
    """Candidate facets of the rescaled stencil's hull, as index triples
    into `stencil_offsets3()`: the 268 triples (of 2600) whose integer
    offsets are pairwise within Chebyshev distance 1, each in increasing
    index order.  See `stencil_anisotropy3` for why and how they are
    checked.
    """
    offs = np.asarray(stencil_offsets3())
    triples = np.array(list(itertools.combinations(range(len(offs)), 3)))
    p = offs[triples]
    gap = np.abs(p[:, [0, 0, 1]] - p[:, [1, 2, 2]]).max(axis=(1, 2))
    return triples[gap <= 1]


def _inradii3(scales: np.ndarray) -> np.ndarray:
    """Distance from the origin to the nearest facet of the hull of the 26
    unit step directions, with the z step scaled by each of `scales`.

    Returns min over `_facet_triples3()` of h(unit normal of the triple),
    where h(n) = max_p |n.p| over the 26 directions; see
    `stencil_anisotropy3` for why that is the nearest facet's offset.
    """
    offs = stencil_offsets3()
    x, y, z = np.asarray(offs, dtype=float).T
    z = z * scales[:, None]
    x, y = np.broadcast_to(x, z.shape), np.broadcast_to(y, z.shape)
    r = np.sqrt(x * x + y * y + z * z)
    x, y, z = x / r, y / r, z / r
    i, j, k = _facet_triples3().T
    ux, uy, uz = x[:, j] - x[:, i], y[:, j] - y[:, i], z[:, j] - z[:, i]
    vx, vy, vz = x[:, k] - x[:, i], y[:, k] - y[:, i], z[:, k] - z[:, i]
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    nn = nx * nx + ny * ny + nz * nz
    # beyond scales of about 1e16 or below 1e-16 some triples round to
    # collinear points; they span no plane and are skipped
    flat = nn == 0.0
    nn[flat] = 1.0
    # times the reciprocal rather than divided: this rounding reproduces
    # qhull's last bits on the ranges the golden reports use
    inv = 1.0 / np.sqrt(nn)
    nx, ny, nz = nx * inv, ny * inv, nz * inv
    # |n.p| = |n.(-p)| bit for bit, so one direction of each antipodal
    # pair (the lexicographically positive one) gives the max
    h = np.zeros_like(nx)
    for col, o in enumerate(offs):
        if o > (0, 0, 0):
            dot = nx * x[:, col, None] + ny * y[:, col, None] + nz * z[:, col, None]
            np.maximum(h, np.abs(dot), out=h)
    h[flat] = np.inf
    return h.min(axis=1)


@functools.lru_cache
def stencil_anisotropy3(scale_lo: float, scale_hi: float) -> float:
    """Worst-case relative overestimate of the 26-direction grid metric when
    the z step is scale times as long as the xy steps, maxed over
    scale in [scale_lo, scale_hi].

    Rescaled steps are unit vectors, so the grid metric's unit ball is the
    convex hull of the 26 step directions; the worst stretch over a facet is
    at most 1/(facet plane's distance to the origin) - 1.  A 0.5% margin
    covers the finite scale sampling (65 log-spaced scales).  Memoized: a
    run asks for the same range once per graph.

    The nearest facet's offset (the inradius) comes from numpy alone, the
    facet-offset computation of Quickhull (Barber, Dobkin & Huhdanpaa 1996)
    cut down to 26 points on a sphere:

    * No three points of a sphere are collinear, so every hull facet is
      spanned by some triple of the 26 directions.
    * Let h(n) = max_p |n.p|, the support function of the hull; the
      directions are centrally symmetric, so the absolute value is exact.
    * The inscribed ball lies in the hull, so h(n) >= inradius for every
      unit n, and h equals a facet's offset at that facet's normal.
    * So the min of h over the unit normals of candidate triples is the
      inradius as long as the candidates hold one triple from every facet.
      No tolerance and no coplanarity test enter.

    The candidates are `_facet_triples3()`, on the observation that the
    vertices of a facet are adjacent lattice directions.  That is checked,
    not proved: `tests/test_torus3.py` finds a candidate on every qhull
    facet and the bound within 1e-12 of qhull's at 2001 log-spaced scales
    over [0.01, 100], and pins bit for bit the qhull values the golden
    reports rest on.
    """
    if not (0 < scale_lo <= scale_hi) or not math.isfinite(scale_hi * scale_hi):
        raise ValueError("scale range must be positive, with a finite square")
    lo, hi = math.log(scale_lo), math.log(scale_hi)
    samples = np.exp(np.linspace(lo, hi, 65)) if hi > lo else np.array([scale_lo])
    return 1.005 * float(np.max(1.0 / _inradii3(samples) - 1.0)) + 1e-4


# ---------------------------------------------------------------------------
# the 3D grid oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid3Spec:
    """Per-axis resolution of the periodic 3D grid (unit stencil)."""

    n: int = 64

    def __post_init__(self):
        _integer_fields(self)
        if self.n < 32:
            raise ValueError("3D grid needs at least 32 subdivisions per axis")

    def as_list(self) -> List[int]:
        """Subdivisions per axis, then the stencil radius 1."""
        return [self.n, self.n, self.n, 1]


class Grid3Graph(OrbitSweepCache):
    """Weighted graph over the periodic n^3 lattice.

    Edge weights use midpoint metric evaluation: a step (dx, dy, dz) from a
    node costs h * sqrt(dx^2 + dy^2 + f(mid)^2 dz^2) with f read at the
    step's xy midpoint.  Weights depend on (x, y) only and are even in dz,
    so each mirror pair (dx, dy, +-dz) is one n x n sheet of weights, and
    `_directions` hands them to `OrbitSweepCache` with the (x, y) cells as
    base cells, z as the fiber and a wrapping base; sweeps run on the
    graph folded by the mirror z -> -z, z = 0..n//2 of every cell, about
    half the nodes.  z rolls are automorphisms, so one sweep per source
    (x, y), run on the folded graph from the cell's z = 0, answers every
    pair.  When every sheet is constant, one sweep answers all.  Sweeps of
    several cells are mapped over a thread pool (see
    `OrbitSweepCache.distances_from`).
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
        super().__init__((n, n), n, self._directions(), True)

    def _directions(self):
        """One (cells, target cells, z step, weight sheet) direction per
        pair +-(dx, dy, +-dz): `fibered_stencil` adds the rest."""
        n = self.spec.n
        h = self.h
        X, Y = np.meshgrid(self.coords, self.coords, indexing="ij")
        plane = np.arange(n * n).reshape(n, n)
        for dx, dy, dz in stencil_offsets3():
            if (dx, dy) < (0, 0) or dz < 0:
                continue
            if dz == 0:
                w_sheet = np.full((n, n), h * math.hypot(dx, dy))
            else:
                f = np.asarray(self.field(X + 0.5 * dx * h, Y + 0.5 * dy * h),
                               dtype=float)
                w_sheet = h * np.sqrt(dx * dx + dy * dy + (f * dz) ** 2)
            sheet_to = plane[(np.arange(n) + dx) % n][:, (np.arange(n) + dy) % n]
            yield plane.ravel(), sheet_to.ravel(), dz, w_sheet.ravel()

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

    def snap(self, p: Point3) -> Tuple[int, Point3]:
        """Nearest node: (index, node point).  Distances and the limit
        metric are evaluated at the node point, not at p."""
        n = self.spec.n
        ids = [int(round((wrap_cube(v) + math.pi) / self.h)) % n
               for v in (p.x, p.y, p.z)]
        node = self.node_index(*ids)
        return node, self.node_point(node)


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
    error, plus the lower-bound / diameter / sandwich audit rows.

    Runs through `convergence.run_stages`, which holds one stage graph at
    a time and keeps the reference, with its one swept row (a constant
    field is invariant along every axis), for every stage on the grid.
    """
    c = family.level
    flat = Limit(f"flat3(level={c:g})",
                 lambda p, q: limit3_distance(c, p, q),
                 lambda g: Grid3Graph(ConstantField(c), g))

    def stage(j: int) -> Stage:
        fld = family.field(j)
        return Stage(
            j, grid, family.sample_plan(j, n_sources=n_sources,
                                        n_targets=n_targets, offset=seed),
            lambda: Grid3Graph(fld, grid),
            (_quadrature_l2(fld, c), fld.l2_vs_level(c), bilip_lambda3(fld),
             TAU * fld.integral()))

    audit = ((lambda res, row: _audit_rows3(family, res.j, family.field(res.j),
                                            res.probes, row.l2_norm, row.lam))
             if with_audits else None)
    return run_stages(family, VOLUME_DIM, [stage(j) for j in j_list], [flat],
                      audit)


def _audit_rows3(family: Torus3Family, j: int, fld: ScalarField2D,
                 probes: Tuple[PairProbe, ...], l2: float, lam: float):
    """The shared audit rows of stage j: the lower bound against the flat
    limit, the diameter bound and the sandwich against the unit flat
    3-torus."""
    c = family.level
    diameter = diameter3_upper_bound(l2, c)
    return [
        lower_bound_row(probes, [pr.limit_value for pr in probes], c,
                        fld.min_value(), j, diameter),
        diameter_row(probes, diameter),
        sandwich_row(probes, [limit3_distance(1.0, pr.p, pr.q) for pr in probes],
                     lam),
    ]
