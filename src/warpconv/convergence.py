"""Distance-discrepancy experiments and inequality audits.

The experiment pipeline estimates how far a family stage's distances sit from
the family's limit metric.  Warped surfaces (`run_family_experiment`) and
warped 3-tori (`torus3.run_torus3_experiment`) share it:

* probe pairs come from a deterministic sample plan (shared sources) plus
  family-specific worst cases,
* `probe_plan` reads the stage's distances and error bars from the grid
  oracle's orbit cache: edge weights are invariant under fiber rolls and
  even in the fiber step (z on the 3-torus), so one sweep per source row
  answers all pairs, on the graph folded by the fiber mirror (about half
  the nodes).  The folded rows stay on the graph, so further limits on the
  same stage and the cached reference grids of later stages sweep only
  rows not yet seen,
* the limit metric is evaluated in closed form at the snapped endpoints,
* a reference run discretizes the LIMIT geometry on the same grid, so the
  grid's systematic error (anisotropy, quadrature) can be cancelled by
  comparing the two runs pair by pair,
* `stage_row` turns the probes and the stage's closed-form data (L2 norm,
  bi-Lipschitz constant, volume) into one report row with its GH and
  intrinsic-flat bounds.

Every estimate is a max over finitely many pairs, hence a lower estimate of
the true uniform discrepancy; reports carry that caveat in their field names
(eps_raw, eps_corrected) rather than pretending to the supremum.

The audit half evaluates both sides of each quantitative inequality used by
the uniform-convergence machinery (distance lower bound, diameter bound,
monotone-curve length comparison, fiber turning rate, constant-level detour
bound, bi-Lipschitz sandwich) on sampled pairs and curves, reporting slack =
bound - observed, with hypothesis checks that skip inapplicable families.
The audits are adversarial, not ceremonial: a bound that is false gets a
negative slack in the table (the r-parameterized turning-rate bound is the
known case; see audit_theorem_bounds).
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    lp_profile_distance,
    theta_energy,
)
from .families import LimitMetric, SequenceFamily
from .geodesy import (
    GridGraph,
    GridSpec,
    _shoot_monotone,
    flat_product_distance,
)
from .sampling import SamplePlan, surface_samples

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


@dataclass(frozen=True)
class PairProbe:
    """One probed pair: grid value on the stage space, exact limit value at
    the snapped endpoints, and the reference run's value on the same nodes.
    The endpoints are surface points or 3-torus points."""

    p: SurfacePoint
    q: SurfacePoint
    grid_value: float
    grid_error: float
    limit_value: float
    reference_value: Optional[float] = None

    @property
    def raw_gap(self) -> float:
        return abs(self.grid_value - self.limit_value)

    @property
    def corrected_gap(self) -> float:
        """Stage-vs-reference gap on identical nodes; the grid's systematic
        error is common to both runs and cancels to first order."""
        if self.reference_value is None:
            return self.raw_gap
        return abs(self.grid_value - self.reference_value)


@dataclass(frozen=True)
class DiscrepancyResult:
    """Probes of one stage against one limit; `grid` is the stage's
    `GridSpec` or `torus3.Grid3Spec`."""

    family: str
    j: int
    limit: str
    grid: GridSpec
    probes: Tuple[PairProbe, ...]

    @property
    def eps_raw(self) -> float:
        return max(pr.raw_gap for pr in self.probes)

    @property
    def eps_corrected(self) -> float:
        return max(pr.corrected_gap for pr in self.probes)

    @property
    def max_grid_error(self) -> float:
        return max(pr.grid_error for pr in self.probes)

    @property
    def worst_probe(self) -> PairProbe:
        return max(self.probes, key=lambda pr: pr.corrected_gap)


def _pair_values(graph, plan: SamplePlan):
    """Snap the plan onto the graph and read every pair from the graph's
    orbit cache (one sweep per source orbit not yet swept on this graph).

    Returns (pairs, values, errors) where pairs holds the snapped endpoints.
    """
    snap_cache = {}

    def snap(pt):
        if pt not in snap_cache:
            snap_cache[pt] = graph.snap(pt)
        return snap_cache[pt]

    pairs, nodes = [], []
    for a, b in plan.pairs():
        ia, pa, _ = snap(a)
        ib, pb, _ = snap(b)
        pairs.append((pa, pb))
        nodes.append((ia, ib))
    values = graph.pair_distances(nodes)
    # endpoints are exact nodes here, so snap costs do not enter
    errors = [graph.error_bound(d, 0.0) for d in values]
    return pairs, values, errors


def probe_plan(graph, plan: SamplePlan,
               limit_distance: Callable[[object, object], float],
               reference=None) -> Tuple[PairProbe, ...]:
    """Probe every pair of the plan on a grid graph (`GridGraph` or
    `torus3.Grid3Graph`): the graph's value and error, `limit_distance`
    at the snapped endpoints, and the reference graph's value on the same
    nodes when a reference is given."""
    pairs, values, errors = _pair_values(graph, plan)
    if reference is not None:
        _, ref_values, _ = _pair_values(reference, plan)
    else:
        ref_values = [None] * len(pairs)
    return tuple(
        PairProbe(pa, pb, val, err, limit_distance(pa, pb), ref)
        for (pa, pb), val, err, ref in zip(pairs, values, errors, ref_values))


def discrepancy_estimate(family: SequenceFamily, j: int,
                         grid: Optional[GridSpec] = None,
                         plan: Optional[SamplePlan] = None,
                         limit: Optional[LimitMetric] = None,
                         graph: Optional[GridGraph] = None,
                         reference: Optional[GridGraph] = None) -> DiscrepancyResult:
    """Sampled uniform-distance discrepancy between stage j and the limit.

    Pass `graph` / `reference` to reuse prebuilt grids (the reference depends
    only on the limit and the grid, not on j).
    """
    grid = grid or default_grid(family, j)
    limit = limit if limit is not None else family.candidate_limits()[0]
    plan = plan or family.sample_plan(j)
    if graph is None:
        graph = GridGraph(family.space(j), grid)
    base, fiber = family.base, family.fiber

    if reference is None:
        reference = GridGraph(reference_space(limit, base, fiber, grid), grid)
    probes = probe_plan(graph, plan,
                        lambda p, q: limit.distance(base, fiber, p, q),
                        reference)
    return DiscrepancyResult(family.describe(), j, limit.describe(), grid, probes)


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
    edges = np.unique(np.concatenate(
        ([lo, hi], space.breakpoints_unwrapped(lo, hi))))
    nodes, weights = np.polynomial.legendre.leggauss(12)
    total_r = 0.0
    total_s = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        grid = np.linspace(a, b, 7)
        mid = 0.5 * (grid[:-1] + grid[1:])
        half = 0.5 * np.diff(grid)
        x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        f = np.asarray(space.warp_at(x), dtype=float)
        v = 1.0 - (c / f) ** 2
        if np.any(v <= 0):
            return None
        total_r += float(np.sum(w * c * c / (f ** 4 * v)))
        total_s += float(np.sum(w * c * c / (f ** 4 * np.sqrt(v))))
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


def audit_theorem_bounds(family: SequenceFamily, j: int,
                         result: Optional[DiscrepancyResult] = None,
                         grid: Optional[GridSpec] = None) -> List[AuditRow]:
    """Evaluate every quantitative inequality on stage j of the family.

    Reuses the probes of `result` when given (saves the grid sweeps);
    otherwise runs a fresh discrepancy estimate against the family's naive
    constant-level limit.
    """
    space = family.space(j)
    base, fiber = family.base, family.fiber
    level = family.limit_level
    flat_limit = LimitMetric("product", level=level)
    if result is None:
        result = discrepancy_estimate(family, j, grid=grid, limit=flat_limit)

    delta = lp_profile_distance(space.profile, ConstantProfile(level), 2, base)
    limit_space = WarpedSpace(base, fiber, ConstantProfile(level))
    norm_inf_sq = level * level * base.length  # squared L2 norm of the level
    rows: List[AuditRow] = []

    # -- lower bound on d_j - d_flat ------------------------------------
    fmin = space.profile_min()
    name = "distance-lower-bound"
    if fmin < level - 1.0 / j or fmin <= 0:
        rows.append(AuditRow(name, skipped=True,
                             reason=f"profile min {fmin:g} dips below "
                                    f"level - 1/j = {level - 1.0 / j:g}"))
    else:
        diam_j = diameter_upper_bound(space).value
        rhs = -math.sqrt(2.0) * math.sqrt(level) * diam_j / (fmin * math.sqrt(j))
        observed = math.inf
        tol = 0.0
        for pr in result.probes:
            flat_d = flat_product_distance(base, fiber, level, pr.p, pr.q)
            gap = pr.grid_value - flat_d
            if gap < observed:
                observed, tol = gap, pr.grid_error
        rows.append(AuditRow(name, slack=observed - rhs, tolerance=tol + 1e-9,
                             bound=rhs, observed=observed,
                             n_samples=len(result.probes)))

    # -- diameter bound ---------------------------------------------------
    dbound = diameter_upper_bound(limit_space, delta_l2=delta).value
    observed = max(pr.grid_value for pr in result.probes)
    rows.append(AuditRow("diameter", slack=dbound - observed,
                         tolerance=result.max_grid_error, bound=dbound,
                         observed=observed, n_samples=len(result.probes)))

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
    for pr in result.probes:
        if abs(pr.p.r - pr.q.r) < 0.1:
            continue
        got = _monotone_geodesic_stats(space, pr.p, pr.q)
        if got is not None:
            lo, hi = min(pr.p.r, pr.q.r), max(pr.p.r, pr.q.r)
            stats.append(got + (space.warp_min_on(lo, hi),))
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
    worst_slack, worst_tol, worst_bound, worst_obs = math.inf, 0.0, math.nan, math.nan
    n_level = 0
    for pr in result.probes:
        if abs(pr.p.r - pr.q.r) > 1e-12:
            continue
        dsig = fiber.distance(pr.p.theta, pr.q.theta)
        if dsig <= 0:
            continue
        n_level += 1
        flat_d = level * dsig
        bound = min(4.0 * delta * delta / (e * e) + flat_d + e * dsig
                    for e in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6))
        slack = bound - pr.grid_value
        if slack < worst_slack:
            worst_slack, worst_tol = slack, pr.grid_error
            worst_bound, worst_obs = bound, pr.grid_value
    if n_level == 0:
        rows.append(AuditRow(name, skipped=True,
                             reason="no same-level pairs among the probes"))
    else:
        rows.append(AuditRow(name, slack=worst_slack, tolerance=worst_tol,
                             bound=worst_bound, observed=worst_obs,
                             n_samples=n_level))

    # -- bi-Lipschitz sandwich against the unit product -------------------
    lam = bilipschitz_lambda(space)
    worst_slack, worst_tol = math.inf, 0.0
    for pr in result.probes:
        d1 = flat_product_distance(base, fiber, 1.0, pr.p, pr.q)
        upper = lam * d1 - pr.grid_value
        lower = pr.grid_value - d1 / lam
        slack = min(upper, lower)
        if slack < worst_slack:
            worst_slack, worst_tol = slack, pr.grid_error
    rows.append(AuditRow("bilip-sandwich", slack=worst_slack,
                         tolerance=worst_tol + 1e-9, bound=lam,
                         observed=worst_slack,
                         n_samples=len(result.probes)))

    # -- uniform upper estimate via monotone limit geodesics --------------
    name = "monotone-uniform"
    mlim = limit_space.profile_min()
    diam_inf = diameter_upper_bound(limit_space).value
    cap = ((delta * delta + 4.0 * norm_inf_sq) * math.sqrt(delta)
           * math.sqrt(SURFACE_DIM) * diam_inf / mlim)
    worst_slack, worst_tol, worst_obs, n_used = math.inf, 0.0, math.nan, 0
    for pr in result.probes:
        if abs(pr.p.r - pr.q.r) < 1e-12:
            continue  # limit geodesic not monotone in r
        n_used += 1
        flat_d = flat_product_distance(base, fiber, level, pr.p, pr.q)
        slack = cap - (pr.grid_value - flat_d)
        if slack < worst_slack:
            worst_slack, worst_tol, worst_obs = slack, pr.grid_error, pr.grid_value - flat_d
    rows.append(AuditRow(name, slack=worst_slack, tolerance=worst_tol,
                         bound=cap, observed=worst_obs, n_samples=n_used))
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
    worst = result.worst_probe
    return StageRow(
        j=result.j, grid=result.grid, n_pairs=len(result.probes),
        eps_raw=result.eps_raw, eps_corrected=eps,
        grid_error=result.max_grid_error, l2_norm=l2_norm, l2_bound=l2_bound,
        lam=lam, mass=mass, gh_bound=gh_upper_bound(eps),
        flat_bound=flat_upper_bound(eps, lam, dimension, mass),
        worst_pair=(worst.p, worst.q), alt_eps=dict(alt_eps or {}))


def run_family_experiment(family: SequenceFamily, j_list: Sequence[int],
                          grid: Optional[GridSpec] = None,
                          n_sources: int = 8, n_targets: int = 16,
                          with_audits: bool = False,
                          with_wrong_limit: bool = False,
                          seed: int = 0) -> ConvergenceReport:
    """Per-stage discrepancy rows for a family, against its proven limit
    (moving-cinch: against both subsequential candidates, the first as the
    headline number).  Reference grids are cached per (limit, grid)."""
    candidates = family.candidate_limits()
    primary = candidates[0]
    extra_limits: List[LimitMetric] = list(candidates[1:])
    if with_wrong_limit:
        wrong = family.naive_limit()
        if wrong.describe() != primary.describe():
            extra_limits.append(wrong)

    ref_cache: Dict[Tuple[str, Tuple[int, int, int]], GridGraph] = {}
    rows: List[StageRow] = []
    audits: Dict[int, Tuple[AuditRow, ...]] = {}
    for j in j_list:
        g = grid or default_grid(family, j)
        space = family.space(j)
        graph = GridGraph(space, g)
        plan = family.sample_plan(j, n_sources=n_sources, n_targets=n_targets,
                                  offset=seed)

        def ref_for(limit: LimitMetric) -> GridGraph:
            key = (limit.describe(), (g.n_r, g.n_theta, g.k))
            if key not in ref_cache:
                ref_cache[key] = GridGraph(
                    reference_space(limit, family.base, family.fiber, g), g)
            return ref_cache[key]

        res = discrepancy_estimate(family, j, grid=g, plan=plan, limit=primary,
                                   graph=graph, reference=ref_for(primary))
        alt = {}
        for lim in extra_limits:
            alt_res = discrepancy_estimate(family, j, grid=g, plan=plan,
                                           limit=lim, graph=graph,
                                           reference=ref_for(lim))
            alt[lim.describe()] = alt_res.eps_corrected

        l2 = lp_profile_distance(space.profile,
                                 ConstantProfile(family.limit_level), 2,
                                 family.base)
        rows.append(stage_row(res, l2, family.l2_analytic_bound(j),
                              bilipschitz_lambda(space), space.mass(),
                              SURFACE_DIM, alt))
        if with_audits:
            audits[j] = tuple(audit_theorem_bounds(family, j, result=res))
    return ConvergenceReport(family.describe(), primary.describe(),
                             SURFACE_DIM, tuple(rows), audits)
