"""Warped-product surfaces: warping profiles, spaces, curves, and metric bounds.

A warped-product surface is a base segment or circle crossed with a fiber
circle, carrying the metric  dr^2 + f(r)^2 dtheta^2  for a positive warping
profile f.  This module holds the profile families, the space/curve types,
length and energy functionals, L^p profile distances, and the closed-form
diameter / bi-Lipschitz bounds used throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

TAU = 2.0 * math.pi

# Max number of bump supports a quadrature interval will be refined at.
# Beyond this the bumps are narrower than anything a length integral can
# resolve and their total measure is negligible; see BumpLatticeProfile.
_BREAKPOINT_CAP = 4096


class DomainError(ValueError):
    """A coordinate fell outside the base domain."""


class HypothesisError(ValueError):
    """An operation's mathematical hypothesis is not satisfied."""


class InvalidDescriptor(ValueError):
    """Profile, family or field parameters outside their valid range."""


def float_or_array(values):
    """`values` as a float array, or as a float when it is 0-d: the return
    rule of the closed-form distances, whose one-pair call gives a float."""
    out = np.asarray(values, dtype=float)
    return out if out.ndim else float(out)


def minor_arc(delta, period: float):
    """Minor-arc length of a coordinate difference on a circle of length
    `period`, elementwise over arrays.  The absolute value comes first, so
    the result is bit-exact symmetric in the sign of `delta`."""
    d = abs(delta) % period
    return float_or_array(np.minimum(d, period - d))


def sorted_distinct(values) -> np.ndarray:
    """The distinct values, ascending: np.unique's result on NaN-free input.

    np.unique imports numpy.ma on its first call (about 10 ms), which would
    land inside a process's first experiment."""
    v = np.sort(np.asarray(values, dtype=float))
    keep = np.ones(v.shape, dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


# ---------------------------------------------------------------------------
# Fiber and base
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberSpace:
    """Circle fiber with arc-length distance."""

    circumference: float = TAU

    def __post_init__(self):
        if not (0 < self.circumference < math.inf):
            raise InvalidDescriptor("fiber circumference must be finite and positive")

    @property
    def diameter(self) -> float:
        return 0.5 * self.circumference

    def distance(self, a, b):
        """Arc distance on the fiber (never exceeds half the circumference),
        elementwise over arrays."""
        return minor_arc(a - b, self.circumference)

    def signed_minor(self, a: float, b: float) -> float:
        """Signed displacement a->b along the minor arc."""
        d = (b - a) % self.circumference
        if d > 0.5 * self.circumference:
            d -= self.circumference
        return d


@dataclass(frozen=True)
class BaseSpace:
    """Base of the warped product: an interval or a circle of length 2*pi.

    Interval bases use |r1 - r2|; circle bases use arc distance with the
    coordinate wrapped into [-pi, pi).
    """

    kind: str = "interval"
    r_min: float = -math.pi
    r_max: float = math.pi

    def __post_init__(self):
        if self.kind not in ("interval", "circle"):
            raise InvalidDescriptor(f"unknown base kind {self.kind!r}")
        if self.kind == "circle":
            object.__setattr__(self, "r_min", -math.pi)
            object.__setattr__(self, "r_max", math.pi)
        if not (-math.inf < self.r_min < self.r_max < math.inf):
            raise InvalidDescriptor("base requires finite r_min < r_max")

    @property
    def is_circle(self) -> bool:
        return self.kind == "circle"

    @property
    def length(self) -> float:
        return self.r_max - self.r_min

    def contains(self, r):
        """Whether r lies on the base, within 1e-12 on an interval,
        elementwise over arrays."""
        r = np.asarray(r)
        return self.is_circle | ((self.r_min - 1e-12 <= r) & (r <= self.r_max + 1e-12))

    def wrap(self, r):
        """Map a coordinate into the fundamental domain (no-op for intervals)."""
        if self.is_circle:
            return (np.asarray(r) - self.r_min) % self.length + self.r_min
        return r

    def distance(self, a, b):
        """Base distance, elementwise over arrays."""
        if self.is_circle:
            return minor_arc(a - b, self.length)
        return float_or_array(abs(a - b))


def interval_base(r_min: float = -math.pi, r_max: float = math.pi) -> BaseSpace:
    return BaseSpace("interval", r_min, r_max)


def circle_base() -> BaseSpace:
    return BaseSpace("circle")


# ---------------------------------------------------------------------------
# Warping profiles
# ---------------------------------------------------------------------------


def _bump_shape(t):
    """Canonical cosine bump: 1 at t=0, 0 for |t|>=1, C^1 at the edges."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = 0.5 * (1.0 + np.cos(math.pi * t[inside]))
    return out


def _bump_shape_integral(t0: float, t1: float) -> float:
    """Integral of the canonical bump shape over [t0, t1] (clipped to [-1,1])."""
    a = max(-1.0, min(1.0, t0))
    b = max(-1.0, min(1.0, t1))
    if b <= a:
        return 0.0

    def anti(t):
        return 0.5 * (t + math.sin(math.pi * t) / math.pi)

    return anti(b) - anti(a)


class WarpingProfile:
    """Base class for warping profiles f(r) > 0."""

    level: float

    mirror_weights = False
    """Whether a surface grid over a base symmetric about r = 0 builds its
    edge weights mirror symmetric: `GridGraph` then computes the weights of
    one half of each r -> -r pair of edges and copies them onto the other,
    so the graph is exactly symmetric and one row of each mirror pair needs
    a sweep.  Only for profiles even in r.  The copied weights differ from
    their own quadrature in the last bits, so a report may move where a
    sampled maximum is a near tie.  `BumpProfile` at center 0 is even, but
    it keeps its own-row weights: in the cinch-audit benchmark's report seed
    1, cinched-torus stage j=8 on 256^2 has two candidate worst pairs whose
    discrepancies agree to 12 digits (eps 0.0761365855145), and copied
    weights swap them, so its reports would change."""

    def __call__(self, r):
        raise NotImplementedError

    def breakpoints_in(self, lo: float, hi: float) -> np.ndarray:
        """Interior points of [lo, hi] where the profile changes analytic piece.

        May omit bump supports when more than a resolution cap of them fall in
        the interval (only possible for lattice profiles whose bumps are far
        below quadrature resolution).
        """
        raise NotImplementedError

    def refined_span(self) -> float:
        """Length of the longest interval whose breakpoints `breakpoints_in`
        always returns in full."""
        return math.inf

    def _extremum_values(self, lo: float, hi: float) -> np.ndarray:
        """The profile at points of [lo, hi] that include its min and max
        there: the ends and the breakpoints between them."""
        return self(np.concatenate(([lo], self.breakpoints_in(lo, hi), [hi])))

    def min_on(self, lo: float, hi: float) -> float:
        return float(np.min(self._extremum_values(lo, hi)))

    def max_on(self, lo: float, hi: float) -> float:
        return float(np.max(self._extremum_values(lo, hi)))

    def integral_on(self, lo: float, hi: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantProfile(WarpingProfile):
    level: float = 1.0

    def __post_init__(self):
        if not (0 < self.level < math.inf):
            raise InvalidDescriptor("constant profile must be finite and positive")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.full_like(r, self.level)

    def breakpoints_in(self, lo, hi):
        return np.empty(0)

    def min_on(self, lo, hi):
        return self.level

    def max_on(self, lo, hi):
        return self.level

    def integral_on(self, lo, hi):
        return self.level * (hi - lo)


@dataclass(frozen=True)
class BumpProfile(WarpingProfile):
    """Constant level with one cosine bump: a cinch (peak < level),
    a ridge (peak > level), or a dip from a higher level.
    """

    level: float
    peak: float
    center: float
    half_width: float

    def __post_init__(self):
        if not (0 < self.level < math.inf and 0 < self.peak < math.inf):
            raise InvalidDescriptor("profile values must be finite and positive")
        if not math.isfinite(self.center):
            raise InvalidDescriptor("bump center must be finite")
        if not (0 < self.half_width < math.inf):
            raise InvalidDescriptor("half_width must be finite and positive")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        t = (r - self.center) / self.half_width
        return self.level + (self.peak - self.level) * _bump_shape(t)

    def breakpoints_in(self, lo, hi):
        pts = [self.center - self.half_width, self.center, self.center + self.half_width]
        return np.array([p for p in pts if lo < p < hi])

    def integral_on(self, lo, hi):
        t0 = (lo - self.center) / self.half_width
        t1 = (hi - self.center) / self.half_width
        bump = (self.peak - self.level) * self.half_width * _bump_shape_integral(t0, t1)
        return self.level * (hi - lo) + bump


def cinch_bump(h0: float, center: float = 0.0, half_width: float = 1.0) -> BumpProfile:
    """Level-1 profile dipping to h0 at the center; h0 in (0, 1]."""
    if not (0.0 < h0 <= 1.0):
        raise InvalidDescriptor("cinch depth h0 must lie in (0, 1]")
    return BumpProfile(1.0, h0, center, half_width)


def ridge_bump(h0: float, center: float = 0.0, half_width: float = 1.0) -> BumpProfile:
    """Level-1 profile rising to h0 at the center; h0 in (1, 2]."""
    if not (1.0 < h0 <= 2.0):
        raise InvalidDescriptor("ridge height h0 must lie in (1, 2]")
    return BumpProfile(1.0, h0, center, half_width)


@dataclass(frozen=True)
class BumpLatticeProfile(WarpingProfile):
    """Identical bumps at the interior lattice points -pi + 2*pi*i/cells.

    Evaluation is O(1) via nearest-lattice-point lookup, so the profile scales
    to billions of bumps.  Only the interior points i = 1 .. cells-1 carry a
    bump (the seam at +-pi stays at the base level).  The lattice points are
    symmetric about 0 and the seam holds no bump, so the profile is even.
    """

    level: float
    peak: float
    cells: int
    half_width: float

    mirror_weights = True

    def __post_init__(self):
        if not (0 < self.level < math.inf and 0 < self.peak < math.inf):
            raise InvalidDescriptor("profile values must be finite and positive")
        if isinstance(self.cells, bool) or not isinstance(self.cells, (int, np.integer)):
            raise InvalidDescriptor(f"lattice cells must be an integer, got {self.cells!r}")
        if self.cells < 2:
            raise InvalidDescriptor("lattice needs at least 2 cells")
        spacing = TAU / self.cells
        if not (0 < self.half_width <= 0.5 * spacing):
            raise InvalidDescriptor("bump half_width must not exceed half the lattice spacing")

    @property
    def spacing(self) -> float:
        return TAU / self.cells

    def _nearest_center_index(self, r):
        return np.rint((np.asarray(r, dtype=float) + math.pi) / self.spacing)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        i = self._nearest_center_index(r)
        center = -math.pi + i * self.spacing
        t = (r - center) / self.half_width
        val = self.level + (self.peak - self.level) * _bump_shape(t)
        # the seam lattice point (i = 0 or i = cells) carries no bump
        interior = (i >= 1) & (i <= self.cells - 1)
        return np.where(interior, val, self.level)

    def _center_indices_in(self, lo, hi):
        i0 = max(1, int(math.ceil((lo + math.pi) / self.spacing - 1e-12)))
        i1 = min(self.cells - 1, int(math.floor((hi + math.pi) / self.spacing + 1e-12)))
        return i0, i1

    def breakpoints_in(self, lo, hi):
        i0, i1 = self._center_indices_in(lo - self.half_width, hi + self.half_width)
        count = max(0, i1 - i0 + 1)
        if count == 0 or 3 * count > _BREAKPOINT_CAP:
            # Bumps too numerous to refine: at that density their half-width
            # is far below quadrature resolution and total measure is
            # negligible, so the integrand is treated as the base level.
            return np.empty(0)
        centers = -math.pi + np.arange(i0, i1 + 1) * self.spacing
        pts = np.concatenate([centers - self.half_width, centers,
                              centers + self.half_width])
        pts = pts[(pts > lo) & (pts < hi)]
        return np.sort(pts)

    def refined_span(self):
        # an interval of length L meets at most (L + 2 half_width) / spacing
        # + 1 bump supports; one spacing of headroom covers the rounding
        return (_BREAKPOINT_CAP // 3 - 1) * self.spacing - 2.0 * self.half_width

    def _extremum_values(self, lo, hi):
        # Around each lattice point the profile is one bump, monotone on
        # either side of its center, and it sits at the level where the
        # cells of two lattice points meet.  So the min and max over any
        # window are among the ends, one center inside (all bumps share one
        # peak) and, when the ends are nearest to different lattice points,
        # the level, however many bumps the window holds.
        i0, i1 = self._center_indices_in(lo, hi)
        ends = [lo, hi] if i1 < i0 else [lo, hi, -math.pi + i0 * self.spacing]
        values = self(np.array(ends))
        if self._nearest_center_index(lo) != self._nearest_center_index(hi):
            values = np.append(values, self.level)
        return values

    def integral_on(self, lo, hi):
        total = self.level * (hi - lo)
        i0, i1 = self._center_indices_in(lo - self.half_width, hi + self.half_width)
        if i1 < i0:
            return total
        # bumps fully inside contribute (peak-level)*half_width each
        amp = (self.peak - self.level) * self.half_width
        full_i0 = i0 + 1
        full_i1 = i1 - 1
        if full_i1 >= full_i0:
            total += amp * (full_i1 - full_i0 + 1)
        for i in {i0, i1} if i1 > i0 else {i0}:
            if full_i0 <= i <= full_i1:
                continue
            center = -math.pi + i * self.spacing
            t0 = (lo - center) / self.half_width
            t1 = (hi - center) / self.half_width
            total += (self.peak - self.level) * self.half_width * _bump_shape_integral(t0, t1)
        return total


# ---------------------------------------------------------------------------
# Warped space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarpedSpace:
    """Base x fiber with metric dr^2 + f(r)^2 dtheta^2."""

    base: BaseSpace
    fiber: FiberSpace
    profile: WarpingProfile

    def warp_at(self, r):
        """Profile value at a (possibly unwrapped) base coordinate."""
        return self.profile(self.base.wrap(r))

    def profile_min(self) -> float:
        return self.profile.min_on(self.base.r_min, self.base.r_max)

    def profile_max(self) -> float:
        return self.profile.max_on(self.base.r_min, self.base.r_max)

    def breakpoints_unwrapped(self, lo: float, hi: float) -> np.ndarray:
        """Profile breakpoints over an unwrapped coordinate interval.

        For circle bases the fundamental-domain breakpoints are repeated with
        period 2*pi so that seam-crossing segments are still refined.
        """
        if not self.base.is_circle:
            lo_c = max(lo, self.base.r_min)
            hi_c = min(hi, self.base.r_max)
            if hi_c <= lo_c:
                return np.empty(0)
            return self.profile.breakpoints_in(lo_c, hi_c)
        period = self.base.length
        k0 = math.floor((lo - self.base.r_min) / period)
        k1 = math.floor((hi - self.base.r_min) / period)
        pts = []
        for k in range(int(k0), int(k1) + 1):
            shift = k * period
            local = self.profile.breakpoints_in(lo - shift, hi - shift)
            if local.size:
                pts.append(local + shift)
        if not pts:
            return np.empty(0)
        out = np.concatenate(pts)
        return np.sort(out[(out > lo) & (out < hi)])

    def _window_pieces(self, lo: float, hi: float) -> List[Tuple[float, float]]:
        """An unwrapped coordinate interval, ends in either order, cut at the
        seams of a circle base, each piece moved into the fundamental
        domain."""
        lo, hi = min(lo, hi), max(lo, hi)
        if not self.base.is_circle:
            return [(lo, hi)]
        r_min, period = self.base.r_min, self.base.length
        k0 = math.floor((lo - r_min) / period)
        pieces = []
        for k in range(k0, math.floor((hi - r_min) / period) + 1):
            a, b = max(lo, r_min + k * period), min(hi, r_min + (k + 1) * period)
            if b > a or k == k0:
                pieces.append((a - k * period, b - k * period))
        return pieces

    def warp_min_on(self, lo: float, hi: float) -> float:
        """Min of the profile over an unwrapped coordinate interval."""
        return min(self.profile.min_on(a, b) for a, b in self._window_pieces(lo, hi))

    def warp_max_on(self, lo: float, hi: float) -> float:
        """Max of the profile over an unwrapped coordinate interval."""
        return max(self.profile.max_on(a, b) for a, b in self._window_pieces(lo, hi))

    def mass(self) -> float:
        """Riemannian area: fiber circumference times the profile integral."""
        return self.fiber.circumference * self.profile.integral_on(
            self.base.r_min, self.base.r_max)


class SurfacePoint(NamedTuple):
    r: float
    theta: float


# ---------------------------------------------------------------------------
# Curves and length
# ---------------------------------------------------------------------------


@dataclass
class PolylineCurve:
    """Piecewise-straight curve in (r, theta) parameter space.

    theta is stored in [0, circumference); each segment carries an integer
    wrap count so that displacements through the fiber seam (and, on circle
    bases, the base seam) are unambiguous.  Segment i runs from points[i] to
    points[i+1] with fiber displacement

        dtheta_i = (theta_{i+1} - theta_i) + circumference * theta_wraps[i]

    and similarly for r on circle bases.
    """

    points: List[SurfacePoint]
    theta_wraps: Optional[List[int]] = None
    r_wraps: Optional[List[int]] = None

    def __post_init__(self):
        n_seg = len(self.points) - 1
        if n_seg < 0:
            raise ValueError("curve needs at least one point")
        if self.theta_wraps is None:
            self.theta_wraps = [0] * n_seg
        if self.r_wraps is None:
            self.r_wraps = [0] * n_seg
        if len(self.theta_wraps) != n_seg or len(self.r_wraps) != n_seg:
            raise ValueError("wrap lists must have one entry per segment")

    def segments(self, space: WarpedSpace):
        """Yield (r_start, theta_start, dr, dtheta) per segment, unwrapped."""
        C = space.fiber.circumference
        L = space.base.length
        for i in range(len(self.points) - 1):
            p, q = self.points[i], self.points[i + 1]
            dtheta = (q.theta - p.theta) + C * self.theta_wraps[i]
            dr = q.r - p.r
            if space.base.is_circle:
                dr += L * self.r_wraps[i]
            yield p.r, p.theta, dr, dtheta


def segment_length(space: WarpedSpace, r0, dr: float, dtheta: float,
                   points_per_piece: int = 4):
    """Length of the straight parameter-space segment from (r0, .) with
    displacement (dr, dtheta), by composite midpoint quadrature: a float
    for a scalar r0, one length per start for an array of starts.

    Each segment's parameter range t in [0, 1] is split at every profile
    breakpoint strictly inside it, so narrow bumps are never stepped over
    unsampled; each piece takes `points_per_piece` midpoints and adds
    sum * width / points_per_piece to a total kept from 0.0, piece after
    piece.  The starts are taken in chunks whose hull is no longer than the
    profile's `refined_span`, and the breakpoints are queried once per
    chunk, over its hull; a segment with fewer pieces than the most crossed
    one of its chunk is padded with empty pieces at t = 1, which add 0.0.
    So every length is the one a call with that start alone gives.
    Pure-r and pure-theta segments are evaluated in closed form.  This is
    the only quadrature of straight segments: every surface grid edge
    weight comes from it.
    """
    r0 = np.asarray(r0, dtype=float)
    if dtheta == 0.0:
        total = np.full(r0.shape, abs(dr))
    elif dr == 0.0:
        total = space.warp_at(r0) * abs(dtheta)
    else:
        starts = r0.reshape(-1)
        total = np.empty(starts.shape)
        for chunk in _refined_chunks(np.minimum(starts, starts + dr), abs(dr),
                                     space.profile.refined_span()):
            total[chunk] = _midpoint_lengths(space, starts[chunk], dr, dtheta,
                                             points_per_piece)
        total = total.reshape(r0.shape)
    return float(total) if total.ndim == 0 else total


def _refined_chunks(lo: np.ndarray, width: float, span: float):
    """Index chunks of the segments [lo, lo + width], each chunk's hull no
    longer than `span` (a segment longer than `span` is a chunk alone)."""
    if lo.size < 2 or float(lo.max() - lo.min()) + width <= span:
        return [slice(None)]
    order = np.argsort(lo, kind="stable")
    ordered = lo[order]
    chunks, i = [], 0
    while i < order.size:
        k = max(i + 1, int(np.searchsorted(ordered, ordered[i] + (span - width),
                                           side="right")))
        chunks.append(order[i:k])
        i = k
    return chunks


def _midpoint_lengths(space: WarpedSpace, starts: np.ndarray, dr: float,
                      dtheta: float, points_per_piece: int) -> np.ndarray:
    """`segment_length` of segments from each of `starts`, dr and dtheta both
    nonzero, with the breakpoints queried once over the hull."""
    r = starts.reshape(-1, 1)
    lo, hi = (r, r + dr) if dr > 0 else (r + dr, r)
    bps = space.breakpoints_unwrapped(float(lo.min()), float(hi.max()))
    first = np.searchsorted(bps, lo, side="right")
    count = np.searchsorted(bps, hi, side="left") - first
    slot = np.arange(count.max())
    # the breakpoints as parameter values t in (0, 1), padded with t = 1
    ts = (bps[np.minimum(first + slot, bps.size - 1)] - r) / dr
    ts[(slot >= count) | (ts <= 1e-15) | (ts >= 1 - 1e-15)] = 1.0
    ts.sort()
    edges = np.concatenate((np.zeros_like(r), ts, np.ones_like(r)), axis=1)
    width = edges[:, 1:] - edges[:, :-1]
    odd = np.arange(1, 2 * points_per_piece, 2)  # 2m + 1 for midpoint m
    t_mid = edges[:, :-1, None] + odd * width[..., None] / (2 * points_per_piece)
    f = space.warp_at(r[..., None] + t_mid * dr)
    g = np.sqrt(dr * dr + (f * dtheta) ** 2)
    pieces = g.sum(axis=-1) * width / points_per_piece
    # cumsum adds the pieces in order, as a running total from 0.0 does
    return pieces.cumsum(axis=1)[:, -1]


def curve_length(space: WarpedSpace, curve: PolylineCurve,
                 points_per_piece: int = 32) -> float:
    """Length of a polyline curve under the warped metric.

    Exact on pure-r, pure-theta, and constant-profile segments; otherwise
    composite midpoint quadrature with forced breakpoints at bump supports.
    """
    total = 0.0
    for r0, _th0, dr, dtheta in curve.segments(space):
        if not space.base.is_circle:
            for rr in (r0, r0 + dr):
                if not space.base.contains(rr):
                    raise DomainError(f"curve leaves the base interval at r={rr}")
        total += segment_length(space, r0, dr, dtheta, points_per_piece)
    return total


def theta_energy(space: WarpedSpace, curve: PolylineCurve) -> float:
    """Fiber-speed energy (integral of |theta'(r)|^2 dr)^(1/2) of a curve
    that is monotone in r.

    Raises HypothesisError for curves that are not strictly monotone in r
    (a vertical-in-theta segment has unbounded theta'(r)).
    """
    total = 0.0
    sign = 0
    for _r0, _th0, dr, dtheta in curve.segments(space):
        if dr == 0.0:
            if dtheta == 0.0:
                continue
            raise HypothesisError("curve has a pure-fiber segment; theta'(r) undefined")
        s = 1 if dr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            raise HypothesisError("curve is not monotone in r")
        total += dtheta * dtheta / abs(dr)
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# Profile L^p distance
# ---------------------------------------------------------------------------


def lp_profile_distance(a: WarpingProfile, b: WarpingProfile, p: float,
                        base: BaseSpace, subdiv: int = 16) -> float:
    """L^p distance between two profiles over the base domain.

    Composite Gauss-Legendre quadrature on the pieces cut by both profiles'
    breakpoints (so cosine-bump boundaries are never straddled).  For large
    p every |a - b|^p can underflow to 0 or overflow to inf; only then is
    the sum taken again on |a - b| / D, D the largest difference, and the
    result scaled back by D, so p = 1 and 2 give the plain sum's bits.
    Raises ValueError unless p is finite and >= 1.
    """
    if not (math.isfinite(p) and p >= 1):
        raise ValueError("p must be finite and >= 1")
    lo, hi = base.r_min, base.r_max
    cuts = sorted_distinct(np.concatenate((
        [lo, hi], a.breakpoints_in(lo, hi), b.breakpoints_in(lo, hi))))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    pieces = []  # (half width, |a - b| at the nodes) per quadrature cell
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        if x1 <= x0:
            continue
        sub = np.linspace(x0, x1, subdiv + 1)
        for s0, s1 in zip(sub[:-1], sub[1:]):
            mid = 0.5 * (s0 + s1)
            half = 0.5 * (s1 - s0)
            xs = mid + half * nodes
            pieces.append((half, np.abs(np.asarray(a(xs), dtype=float)
                                        - np.asarray(b(xs), dtype=float))))

    def power_sum(scale):
        total = 0.0
        for half, diff in pieces:
            total += half * np.sum(weights * (diff / scale) ** p)
        return total

    with np.errstate(over="ignore"):
        total = power_sum(1.0)
    largest = max((diff.max() for _, diff in pieces), default=0.0)
    if (total == 0 and largest > 0) or not math.isfinite(total):
        return float(largest * power_sum(largest) ** (1.0 / p))
    return float(total ** (1.0 / p))


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------


class DiameterBound(NamedTuple):
    value: float
    base_term: float
    fiber_term: float
    circle_base: bool


def diameter_upper_bound(space: WarpedSpace, delta_l2: float = 0.0) -> DiameterBound:
    """Diameter bound for any warped space whose profile is within delta_l2
    (in L^2 over the base) of this space's profile.

    base term + (sup profile + delta_l2 / sqrt(base length)) * fiber diameter,
    where the base term is twice the interval length (or the full 2*pi for a
    circle base, flagged in the result).
    """
    if delta_l2 < 0:
        raise ValueError("delta_l2 must be nonnegative")
    L = space.base.length
    base_term = TAU if space.base.is_circle else 2.0 * L
    sup = space.profile_max()
    fiber_term = (sup + delta_l2 / math.sqrt(L)) * space.fiber.diameter
    return DiameterBound(base_term + fiber_term, base_term, fiber_term,
                         space.base.is_circle)


def sandwich_bounds(space: WarpedSpace) -> Tuple[float, float]:
    """(lo, hi) with lo * d_unit <= d_space <= hi * d_unit, where d_unit is
    the distance of the same base x fiber with profile identically 1."""
    a = space.profile_min()
    b = space.profile_max()
    if not (a > 0):
        raise ValueError("profile must be positive")
    return min(a, 1.0), max(1.0, b)


def bilipschitz_lambda(space: WarpedSpace) -> float:
    """Bi-Lipschitz constant against the product metric with profile 1:
    max(1/min(a,1), max(1,b)) for profile range [a, b]."""
    lo, hi = sandwich_bounds(space)
    return max(1.0 / lo, hi)
