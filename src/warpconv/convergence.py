"""Distance-discrepancy experiments and inequality audits.

The experiment pipeline estimates how far a family stage's distances sit from
the family's limit metric.  Warped surfaces (`run_family_experiment`) and
warped 3-tori (`torus3.run_torus3_experiment`) run it through
`run_stages`, each supplying only its `Stage`s and `Limit`s:

* probe pairs come from a deterministic sample plan (shared sources) plus
  family-specific worst cases,
* `plan_values` snaps the plan's pair ends onto a grid graph's nodes, one
  array call per side (`geodesy.OrbitSweepCache.snap`), and reads its
  distances and error bars through the grid oracle's orbit sweeps: one
  sweep per source orbit answers all its pairs, on the graph folded by
  the fiber mirror (about half the nodes), and no swept row outlives the
  read,
* a reference run discretizes the LIMIT geometry on the same grid, so the
  grid's systematic error (anisotropy, quadrature) can be cancelled by
  comparing the two runs pair by pair; `reference_values` builds one
  reference graph, reads it once on the plans of every stage that needs
  it and drops it,
* `run_stages` is the one way a stage is read: it reads each stage graph
  once and releases it before any reference is built or swept, builds and
  reads each (limit, grid) reference once, at the first stage on its
  grid, for every stage on that grid, and joins the stage's values with
  each limit in a `DiscrepancyResult`: the limit in closed form at the
  snapped endpoints, one array call per (stage, limit), and its
  reference values,
* `stage_row` turns a result's columns and the stage's closed-form data
  (L2 norm, bi-Lipschitz constant, volume) into one report row with its
  GH and intrinsic-flat bounds, and an audit reads that row and the
  headline result, never a graph of its own; each pair check is one
  array expression over the columns and one argmin, which picks the
  first pair of the smallest slack.

Every estimate is a max over finitely many pairs, hence a lower estimate of
the true uniform discrepancy; reports carry that caveat in their field names
(eps_raw, eps_corrected) rather than pretending to the supremum.

The audit half evaluates both sides of each quantitative inequality used by
the uniform-convergence machinery (distance lower bound, diameter bound,
monotone-curve length comparison, fiber turning rate, constant-level detour
bound, bi-Lipschitz sandwich) on sampled pairs and curves, reporting slack =
bound - observed, with hypothesis checks that skip inapplicable families.
The lower-bound, diameter and sandwich rows are shared with the 3-torus
audit (`lower_bound_row`, `diameter_row`, `sandwich_row`).  The audits are
adversarial, not ceremonial: a bound that is false gets a negative slack in
the table (the r-parameterized turning-rate bound is the known case; see
audit_theorem_bounds).
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ConstantProfile,
    BumpLatticeProfile,
    BumpProfile,
    HypothesisError,
    PolylineCurve,
    SurfacePoint,
    WarpedSpace,
    bilipschitz_lambda,
    curve_length,
    diameter_upper_bound,
    gauss_pieces,
    lp_profile_distance,
    theta_energy,
)
from .families import LimitMetric, SequenceFamily
from .geodesy import (
    GridGraph,
    GridSpec,
    _shoot_monotone,
    flat_product_distance,
    level_set_distance,
)
from .sampling import Pair, SamplePlan, surface_samples

SURFACE_DIM = 2


# ---------------------------------------------------------------------------
# Uniform-convergence bound formulas
# ---------------------------------------------------------------------------


def gh_upper_bound(eps: float) -> float:
    """Gromov-Hausdorff upper bound from a uniform distance discrepancy."""
    if eps < 0:
        raise ValueError("discrepancy must be nonnegative")
    return 2.0 * eps


def flat_upper_bound(eps: float, lam: float, n: int, mass: float) -> float:
    """Intrinsic-flat upper bound 2^((n+1)/2) * lam^(n+1) * 2*eps * mass."""
    if eps < 0:
        raise ValueError("discrepancy must be nonnegative")
    if lam < 1:
        raise ValueError("bi-Lipschitz constant must be >= 1")
    if mass <= 0:
        raise ValueError("mass must be positive")
    return 2.0 ** (0.5 * (n + 1)) * lam ** (n + 1) * 2.0 * eps * mass


# ---------------------------------------------------------------------------
# Discrepancy estimation
# ---------------------------------------------------------------------------


def default_grid(family: SequenceFamily, j: int) -> GridSpec:
    """Resolution schedule: n = max(256, 32 j), so shrinking bump supports
    keep at least 64 radial samples.

    Two family-specific adjustments.  The mix-limit family pins n = 1024 (a
    power of two, aligning every lattice dip center with a grid row so the
    cheap circles are visible shortcuts).  The ridge lattice family forces n
    odd: its 2^j centers all have power-of-two angular fractions, so an odd n
    puts every center strictly between rows; rows never sit exactly on a peak
    and the thin ridges fade from the oracle the way they fade from the
    geometry, instead of turning whole rows spuriously expensive."""
    if family.kind == "ret-cinches":
        n = 1024
    elif family.kind == "many-ridges":
        n = max(257, 32 * j + 1)
    else:
        n = max(256, 32 * j)
    return GridSpec(n, n, 2)


def reference_space(limit: LimitMetric, base, fiber, grid: GridSpec) -> WarpedSpace:
    """A warped space whose grid discretization mimics the limit geometry.

    product: the constant profile itself.  cinched-product: one cinch a
    half-cell wide centered exactly on a grid row, so only that row's fiber
    edges get the cheap rate.  stretched-mix: dips to 1 a half-cell wide on
    every fourth row (sparse enough that diagonal edges still see the plateau,
    dense enough that reaching a cheap circle costs at most two cells), except
    the seam row r = -pi, where `BumpLatticeProfile` puts no bump.
    """
    hr = base.length / grid.n_r
    if limit.kind == "product":
        profile = ConstantProfile(limit.level)
    elif limit.kind == "cinched-product":
        row = round((limit.cinch_r - base.r_min) / hr)
        center = base.r_min + row * hr
        profile = BumpProfile(1.0, limit.depth, center, 0.5 * hr)
    else:
        cells = max(4, grid.n_r // 4)
        if grid.n_r % cells:
            raise ValueError("mix-limit reference needs the cell count to divide n_r")
        profile = BumpLatticeProfile(limit.stretch, 1.0, cells, 0.5 * hr)
    return WarpedSpace(base, fiber, profile)


def point_columns(points: Sequence):
    """Points of one type (surface or 3-torus points) as one point whose
    coordinates are arrays, one entry per point."""
    return type(points[0])(*np.array(points, dtype=float).T)


class PlanValues(NamedTuple):
    """A grid graph's values on a sample plan, one entry per pair: the
    snapped ends `p` and `q`, each one point (surface or 3-torus) whose
    coordinates are arrays, the graph distances between them and their
    error bars."""

    p: SurfacePoint
    q: SurfacePoint
    values: np.ndarray
    errors: np.ndarray

    def pair(self, i: int):
        """The i-th snapped pair, as two points of floats."""
        return tuple(type(pt)(*(float(c[i]) for c in pt))
                     for pt in (self.p, self.q))


@dataclass(frozen=True)
class DiscrepancyResult:
    """One stage against one limit: the stage's `PlanValues`, and on its
    snapped pairs the limit's closed-form distances (`limit_values`) and
    the limit's reference graph's values (`reference_values`).  `grid` is
    the stage's `GridSpec` or `torus3.Grid3Spec`."""

    j: int
    limit: str
    grid: GridSpec
    stage: PlanValues
    limit_values: np.ndarray
    reference_values: np.ndarray

    @property
    def eps_raw(self) -> float:
        return float(np.max(np.abs(self.stage.values - self.limit_values)))

    @property
    def corrected_gaps(self) -> np.ndarray:
        """Stage-vs-reference gaps on identical nodes; the grid's systematic
        error is common to both runs and cancels to first order."""
        return np.abs(self.stage.values - self.reference_values)

    @property
    def eps_corrected(self) -> float:
        return float(np.max(self.corrected_gaps))

    @property
    def max_grid_error(self) -> float:
        return float(np.max(self.stage.errors))

    @property
    def worst_pair(self):
        """The first pair of the largest corrected gap."""
        return self.stage.pair(int(np.argmax(self.corrected_gaps)))


def _read_plans(graph, plans: Sequence[SamplePlan]) -> List[PlanValues]:
    """Snap the pairs of every plan onto a grid graph (`GridGraph` or
    `torus3.Grid3Graph`), all their first ends in one array call and all
    their second ends in another, and read them in one `pair_distances`
    call, one sweep per source orbit.  Returns the `PlanValues` of each
    plan."""
    pairs = [pair for plan in plans for pair in plan.pairs()]
    (a, p), (b, q) = (graph.snap(point_columns(side)) for side in zip(*pairs))
    values = np.asarray(graph.pair_distances(np.column_stack((a, b))))
    ends = np.cumsum([0] + [plan.n_pairs for plan in plans])
    return [PlanValues(type(p)(*(c[i:k] for c in p)), type(q)(*(c[i:k] for c in q)),
                       values[i:k], graph.error_bound(values[i:k]))
            for i, k in zip(ends[:-1], ends[1:])]


def plan_values(graph, plan: SamplePlan) -> PlanValues:
    """A grid graph's snapped pairs, distances and error bars on the plan,
    read in one `pair_distances` call."""
    return _read_plans(graph, [plan])[0]


class Limit(NamedTuple):
    """A limit as experiments probe it: report name, distance between
    snapped endpoints (points whose coordinates are arrays), and builder of
    its reference graph on a grid."""

    name: str
    distance: Callable[[object, object], np.ndarray]
    reference: Callable[[object], object]


def reference_values(limit: Limit, grid,
                     plans: Sequence[SamplePlan]) -> List[np.ndarray]:
    """The values of `limit`'s reference graph on `grid` on each of
    `plans`: the graph is built, read once on all the plans (one sweep per
    source orbit of their union) and dropped before this returns."""
    return [pv.values for pv in _read_plans(limit.reference(grid), plans)]


def _surface_limit(family: SequenceFamily, limit: LimitMetric) -> Limit:
    """`limit` on the family's base and fiber, referenced by `reference_space`."""
    base, fiber = family.base, family.fiber
    return Limit(
        limit.describe(),
        lambda p, q: limit.distance(base, fiber, p, q),
        lambda grid: GridGraph(reference_space(limit, base, fiber, grid), grid))


def exact_gap(family: SequenceFamily, j: int, limit: LimitMetric,
              pairs: Optional[Sequence[Pair]] = None) -> float:
    """A lower bound on the uniform distance of stage j to `limit` that no
    grid enters: the largest |d_j(p, q) - limit distance| over pairs on one
    circle at a global minimum of f_j.  There d_j is exact
    (`geodesy.level_set_distance`, f_j(r) times the fiber distance: every
    curve is at least that long, and the circle attains it).

    `pairs` defaults to the family's special pairs that sit on such a
    circle, and the gap is 0.0, the trivial bound, when none does.  A pair
    given in `pairs` whose ends are not on one minimum circle raises
    HypothesisError.
    """
    space = family.space(j)
    ends, exact = [], []
    for p, q in family.special_pairs(j) if pairs is None else pairs:
        try:
            if p.r != q.r:
                raise HypothesisError("an exact pair needs both ends on one "
                                      "level circle")
            exact.append(level_set_distance(space, p.r, p.theta, q.theta))
        except HypothesisError:
            if pairs is None:
                continue
            raise
        ends.append((p, q))
    if not ends:
        return 0.0
    p, q = (point_columns(side) for side in zip(*ends))
    return float(np.max(np.abs(
        np.array(exact) - limit.distance(family.base, family.fiber, p, q))))


# ---------------------------------------------------------------------------
# Inequality audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditRow:
    """Outcome of checking one inequality: slack = bound - observed (or
    observed - bound for lower bounds); pass means slack >= -tolerance."""

    name: str
    slack: float = math.inf
    tolerance: float = 0.0
    bound: float = math.nan
    observed: float = math.nan
    n_samples: int = 0
    skipped: bool = False
    reason: str = ""

    @property
    def passed(self) -> bool:
        return self.skipped or self.slack >= -self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name, "slack": self.slack, "tolerance": self.tolerance,
            "bound": self.bound, "observed": self.observed,
            "n_samples": self.n_samples, "skipped": self.skipped,
            "reason": self.reason, "passed": self.passed,
        }


def lower_bound_row(stage: PlanValues, flat: np.ndarray,
                    level: float, fmin: float, j: int,
                    diameter: float) -> AuditRow:
    """Stage distances undershoot the flat product at `level` (distances
    `flat`) by at most sqrt(2 level) diameter / (fmin sqrt(j)); skipped
    where the stage's minimum `fmin` dips below level - 1/j."""
    name = "distance-lower-bound"
    if fmin < level - 1.0 / j or fmin <= 0:
        return AuditRow(name, skipped=True,
                        reason=f"profile min {fmin:g} dips below "
                               f"level - 1/j = {level - 1.0 / j:g}")
    rhs = -math.sqrt(2.0) * math.sqrt(level) * diameter / (fmin * math.sqrt(j))
    gap = stage.values - flat
    i = int(np.argmin(gap))
    observed = float(gap[i])
    return AuditRow(name, slack=observed - rhs,
                    tolerance=float(stage.errors[i]) + 1e-9, bound=rhs,
                    observed=observed, n_samples=len(gap))


def diameter_row(stage: PlanValues, bound: float) -> AuditRow:
    """No probed stage distance exceeds the diameter bound."""
    observed = float(np.max(stage.values))
    return AuditRow("diameter", slack=bound - observed,
                    tolerance=float(np.max(stage.errors)),
                    bound=bound, observed=observed,
                    n_samples=len(stage.values))


def sandwich_row(stage: PlanValues, unit: np.ndarray, lam: float) -> AuditRow:
    """d_unit / lam <= stage distance <= lam * d_unit, for the distances
    `unit` with profile (or field) 1."""
    slack = np.minimum(lam * unit - stage.values, stage.values - unit / lam)
    i = int(np.argmin(slack))
    return AuditRow("bilip-sandwich", slack=float(slack[i]),
                    tolerance=float(stage.errors[i]) + 1e-9, bound=lam,
                    observed=float(slack[i]), n_samples=len(slack))


def _monotone_geodesic_stats(space: WarpedSpace, p: SurfacePoint,
                             q: SurfacePoint):
    """Turning statistics of the monotone geodesic p -> q.

    Returns (length, theta_r, theta_s) where theta_r is the square root of
    the integral of (d theta / d r)^2 dr between the levels and theta_s the
    square root of the arclength integral of (d theta / d s)^2 ds, or None
    when no monotone geodesic connects the pair.  With conserved quantity c
    (f^2 theta' = c at unit speed, so r' = sqrt(1 - c^2/f^2)):

        theta_r^2 = int c^2 / (f^4 (1 - c^2/f^2)) dr
        theta_s^2 = int c^2 / (f^4 sqrt(1 - c^2/f^2)) dr
    """
    target = space.fiber.signed_minor(p.theta, q.theta)
    if p.r == q.r or target == 0.0:
        return None
    out = _shoot_monotone(space, p.r, q.r, target, 1e-9, 60)
    if out is None or out[2] > 1e-6 * (1.0 + abs(target)):
        return None
    length, c, _resid = out
    lo, hi = min(p.r, q.r), max(p.r, q.r)
    x, half, weights = gauss_pieces(np.concatenate(
        ([lo, hi], space.breakpoints_unwrapped(lo, hi))), 12, 6)
    # one row of 6 x 12 nodes per breakpoint piece: each row is summed
    # alone and the rows are added as a running total from 0.0
    x = x.reshape(len(x), -1)
    w = (half[..., None] * weights).reshape(x.shape)
    f = np.asarray(space.warp_at(x), dtype=float)
    v = 1.0 - (c / f) ** 2
    if np.any(v <= 0):
        return None
    total_r = np.cumsum(np.sum(w * c * c / (f ** 4 * v), axis=-1))[-1]
    total_s = np.cumsum(np.sum(w * c * c / (f ** 4 * np.sqrt(v)), axis=-1))[-1]
    return length, math.sqrt(total_r), math.sqrt(total_s)


def _monotone_test_curves(base, fiber, count: int = 10) -> List[PolylineCurve]:
    """Deterministic monotone-in-r polylines spanning varied slopes."""
    pts = surface_samples(base, fiber, 2 * count, offset=101)
    curves = []
    for i in range(count):
        a, b = pts[2 * i], pts[2 * i + 1]
        r0, r1 = sorted((a.r, b.r))
        if r1 - r0 < 0.2:
            r1 = min(base.r_max, r0 + 0.2 + (r1 - r0))
            if r1 - r0 < 1e-6:
                continue
        th0, th1 = a.theta, a.theta + fiber.signed_minor(a.theta, b.theta)
        rm = 0.5 * (r0 + r1)
        thm = 0.5 * (th0 + th1) + 0.1 * (1 if i % 2 else -1)
        curves.append(PolylineCurve((
            SurfacePoint(r0, th0), SurfacePoint(rm, thm), SurfacePoint(r1, th1))))
    return curves


def audit_theorem_bounds(family: SequenceFamily, result: DiscrepancyResult,
                         row: "StageRow") -> List[AuditRow]:
    """Evaluate every quantitative inequality on one stage of the family.

    The pair checks read the plan values of `result`, the stage's headline
    result in `run_stages`; only their endpoints, grid values and error
    bars enter, so any limit's result gives the same rows.  delta, the
    profile's L2 distance to the limit level, and the bi-Lipschitz
    constant are the stage row's `l2_norm` and `lam`.
    """
    j = result.j
    space = family.space(j)
    base, fiber = family.base, family.fiber
    level = family.limit_level
    delta = row.l2_norm
    limit_space = WarpedSpace(base, fiber, ConstantProfile(level))
    norm_inf_sq = level * level * base.length  # squared L2 norm of the level
    stage = result.stage
    p, q, values, errors = stage
    flat = flat_product_distance(base, fiber, level, p, q)
    rows: List[AuditRow] = [
        lower_bound_row(stage, flat, level, space.profile_min(), j,
                        diameter_upper_bound(space).value),
        diameter_row(stage,
                     diameter_upper_bound(limit_space, delta_l2=delta).value)]

    # -- length comparison on monotone curves -----------------------------
    curves = _monotone_test_curves(base, fiber)
    worst_slack, worst_tol, worst_bound, worst_obs = math.inf, 0.0, math.nan, math.nan
    for curve in curves:
        lj = curve_length(space, curve, points_per_piece=128)
        linf = curve_length(limit_space, curve, points_per_piece=128)
        try:
            theta_q = theta_energy(space, curve)
        except HypothesisError:
            continue
        bound = (delta * delta + 4.0 * norm_inf_sq) * math.sqrt(delta) * theta_q
        obs = abs(lj - linf)
        slack = bound - obs
        if slack < worst_slack:
            worst_slack, worst_tol = slack, 1e-5 * (1.0 + lj)
            worst_bound, worst_obs = bound, obs
    rows.append(AuditRow("monotone-length", slack=worst_slack,
                         tolerance=worst_tol, bound=worst_bound,
                         observed=worst_obs, n_samples=len(curves)))

    # -- fiber turning rate of monotone geodesics -------------------------
    # Two variants of the same claimed bound sqrt(n-1) sqrt(L) / min f.
    # The r-parameterized turning energy does NOT obey it: a nearly
    # fiber-tangent monotone geodesic has dtheta/dr ~ dtheta/dr_small
    # blowing up like 1/sqrt(dr), even on a flat product (a pinned
    # counterexample lives in the test suite).  The audit reports the
    # negative slack it finds rather than hiding it.  The arclength
    # turning energy does obey the bound (|dtheta/ds| <= 1/f pointwise),
    # and is audited as the companion row.
    stats = []
    for pr, qr, pth, qth in zip(p.r.tolist(), q.r.tolist(), p.theta.tolist(),
                                q.theta.tolist()):
        if abs(pr - qr) < 0.1:
            continue
        got = _monotone_geodesic_stats(space, SurfacePoint(pr, pth),
                                       SurfacePoint(qr, qth))
        if got is not None:
            stats.append(got + (space.warp_min_on(min(pr, qr), max(pr, qr)),))
        if len(stats) >= 12:
            break
    if not stats:
        rows.append(AuditRow("turning-rate", skipped=True,
                             reason="no monotone geodesics among the probes"))
        rows.append(AuditRow("turning-rate-arclength", skipped=True,
                             reason="no monotone geodesics among the probes"))
    else:
        coeff = math.sqrt(SURFACE_DIM - 1)
        for name, pick in (("turning-rate", 1), ("turning-rate-arclength", 2)):
            slack, bnd, th = min(
                (coeff * math.sqrt(s[0]) / s[3] - s[pick],
                 coeff * math.sqrt(s[0]) / s[3], s[pick])
                for s in stats)
            rows.append(AuditRow(name, slack=slack,
                                 tolerance=1e-6 * (1.0 + th),
                                 bound=bnd, observed=th, n_samples=len(stats)))

    # -- constant-level detour bound --------------------------------------
    name = "level-detour"
    dsig = fiber.distance(p.theta, q.theta)
    use = (np.abs(p.r - q.r) <= 1e-12) & (dsig > 0)
    if not use.any():
        rows.append(AuditRow(name, skipped=True,
                             reason="no same-level pairs among the probes"))
    else:
        flat_d = level * dsig[use]
        bound = np.min([4.0 * delta * delta / (e * e) + flat_d + e * dsig[use]
                        for e in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)], axis=0)
        slack = bound - values[use]
        i = int(np.argmin(slack))
        rows.append(AuditRow(name, slack=float(slack[i]),
                             tolerance=float(errors[use][i]),
                             bound=float(bound[i]),
                             observed=float(values[use][i]),
                             n_samples=int(use.sum())))

    # -- bi-Lipschitz sandwich against the unit product -------------------
    rows.append(sandwich_row(stage, flat_product_distance(base, fiber, 1.0, p, q),
                             row.lam))

    # -- uniform upper estimate via monotone limit geodesics --------------
    mlim = limit_space.profile_min()
    diam_inf = diameter_upper_bound(limit_space).value
    cap = ((delta * delta + 4.0 * norm_inf_sq) * math.sqrt(delta)
           * math.sqrt(SURFACE_DIM) * diam_inf / mlim)
    # limit geodesics between pairs on one level are not monotone in r
    use = ~(np.abs(p.r - q.r) < 1e-12)
    excess = values[use] - flat[use]
    slack = cap - excess
    if slack.size == 0:
        rows.append(AuditRow("monotone-uniform", bound=cap))
    else:
        i = int(np.argmin(slack))
        rows.append(AuditRow("monotone-uniform", slack=float(slack[i]),
                             tolerance=float(errors[use][i]), bound=cap,
                             observed=float(excess[i]), n_samples=slack.size))
    return rows


# ---------------------------------------------------------------------------
# Family experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageRow:
    """One stage of a surface or 3-torus experiment; `grid` is the stage's
    `GridSpec` or `torus3.Grid3Spec`."""

    j: int
    grid: GridSpec
    n_pairs: int
    eps_raw: float
    eps_corrected: float
    grid_error: float
    l2_norm: float
    l2_bound: float
    lam: float
    mass: float
    gh_bound: float
    flat_bound: float
    worst_pair: Tuple[SurfacePoint, SurfacePoint]
    alt_eps: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        p, q = self.worst_pair
        return {
            "j": self.j,
            "grid": self.grid.as_list(),
            "n_pairs": self.n_pairs,
            "eps_raw": self.eps_raw,
            "eps_corrected": self.eps_corrected,
            "grid_error": self.grid_error,
            "l2_norm": self.l2_norm,
            "l2_bound": self.l2_bound,
            "lambda": self.lam,
            "mass": self.mass,
            "gh_bound": self.gh_bound,
            "flat_bound": self.flat_bound,
            "worst_pair": [list(p), list(q)],
            "alt_eps": dict(self.alt_eps),
        }


@dataclass(frozen=True)
class ConvergenceReport:
    family: str
    limit: str
    dimension: int
    rows: Tuple[StageRow, ...]
    audits: Dict[int, Tuple[AuditRow, ...]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "limit": self.limit,
            "dimension": self.dimension,
            "rows": [r.to_dict() for r in self.rows],
            "audits": {str(j): [a.to_dict() for a in rows]
                       for j, rows in self.audits.items()},
        }


def stage_row(result: DiscrepancyResult, l2_norm: float, l2_bound: float,
              lam: float, mass: float, dimension: int,
              alt_eps: Optional[Dict[str, float]] = None) -> StageRow:
    """Report row of one stage: the sampled discrepancies of `result` with
    the GH and intrinsic-flat bounds they imply for a stage of the given
    bi-Lipschitz constant, dimension and volume."""
    eps = result.eps_corrected
    return StageRow(
        j=result.j, grid=result.grid, n_pairs=len(result.stage.values),
        eps_raw=result.eps_raw, eps_corrected=eps,
        grid_error=result.max_grid_error, l2_norm=l2_norm, l2_bound=l2_bound,
        lam=lam, mass=mass, gh_bound=gh_upper_bound(eps),
        flat_bound=flat_upper_bound(eps, lam, dimension, mass),
        worst_pair=result.worst_pair, alt_eps=dict(alt_eps or {}))


class Stage(NamedTuple):
    """One stage of an experiment: j, grid, plan, a builder of its grid
    graph and its closed-form row data (l2_norm, l2_bound, lam, mass)."""

    j: int
    grid: object
    plan: SamplePlan
    graph: Callable[[], object]
    closed_forms: Tuple[float, float, float, float]


def run_stages(family, dimension: int, stages: Sequence[Stage],
               limits: Sequence[Limit],
               audit: Optional[Callable[[DiscrepancyResult, StageRow],
                                        Sequence[AuditRow]]] = None
               ) -> ConvergenceReport:
    """Report rows of `stages` against `limits`, the first the headline
    one, with `audit(result, row)`'s rows for the headline result.

    Each stage graph is read once on its plan and released before any
    reference graph is built or swept; every limit reuses those values.
    Each (limit, grid) reference is built once, at the first stage on its
    grid, read once on the plans of that stage and of every later stage on
    the grid, and dropped straight away; only its values wait for the
    later stages.  So at most one graph exists at a time.

    Raises ValueError, before any graph is built, unless `stages` is
    non-empty with distinct j (the report keys its audits by j).
    """
    js = [st.j for st in stages]
    if not js or len(set(js)) != len(js):
        raise ValueError(f"stages need one j or more, all distinct; got {js}")
    waiting = {}  # (limit name, stage index) -> that stage's reference values
    rows: List[StageRow] = []
    audits: Dict[int, Tuple[AuditRow, ...]] = {}
    for i, st in enumerate(stages):
        # the stage graph lives only for this read: no reference sees it
        values = plan_values(st.graph(), st.plan)
        results = []
        for lim in limits:
            if (lim.name, i) not in waiting:
                same = [k for k in range(i, len(stages))
                        if stages[k].grid == st.grid]
                waiting.update(zip(
                    [(lim.name, k) for k in same],
                    reference_values(lim, st.grid,
                                     [stages[k].plan for k in same])))
            results.append(DiscrepancyResult(
                st.j, lim.name, st.grid, values,
                lim.distance(values.p, values.q), waiting.pop((lim.name, i))))
        head, *alt = results
        row = stage_row(head, *st.closed_forms, dimension,
                        {res.limit: res.eps_corrected for res in alt})
        rows.append(row)
        if audit is not None:
            audits[st.j] = tuple(audit(head, row))
    return ConvergenceReport(family.describe(), limits[0].name, dimension,
                             tuple(rows), audits)


def run_family_experiment(family: SequenceFamily, j_list: Sequence[int],
                          grid: Optional[GridSpec] = None,
                          n_sources: int = 8, n_targets: int = 16,
                          with_audits: bool = False,
                          with_wrong_limit: bool = False,
                          seed: int = 0) -> ConvergenceReport:
    """Per-stage discrepancy rows for a family, against its proven limit
    (moving-cinch: against both subsequential candidates, the first as the
    headline number), on `default_grid` unless `grid` is given.
    """
    limits = list(family.candidate_limits())
    if with_wrong_limit:
        wrong = family.naive_limit()
        if wrong.describe() != limits[0].describe():
            limits.append(wrong)

    def stage(j: int) -> Stage:
        space = family.space(j)
        g = grid or default_grid(family, j)
        return Stage(
            j, g, family.sample_plan(j, n_sources=n_sources,
                                     n_targets=n_targets, offset=seed),
            lambda: GridGraph(space, g),
            (lp_profile_distance(space.profile,
                                 ConstantProfile(family.limit_level), 2,
                                 family.base),
             family.l2_analytic_bound(j), bilipschitz_lambda(space),
             space.mass()))

    audit = ((lambda res, row: audit_theorem_bounds(family, res, row))
             if with_audits else None)
    return run_stages(family, SURFACE_DIM, [stage(j) for j in j_list],
                      [_surface_limit(family, lim) for lim in limits], audit)
