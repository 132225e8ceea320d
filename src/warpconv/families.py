"""Stock warped-product sequences and the limit metrics they approach.

Each family is a sequence j -> profile f_j on the 2*pi base, together with
the metric its distances approach (or provably fail to approach).  The six
kinds:

* ``cinched-torus``   one cinch at 0, support [-1/j, 1/j]; the limit keeps a
  shrunk circle at 0 (not the plain product).
* ``moving-cinch``    one cinch whose center walks the dyadic rationals of
  [0, 1]; no single limit, two subsequential candidates (cinch at 0, at 1).
* ``single-ridge``    one ridge at 0, support [-1/j, 1/j]; the ridge is
  bypassed in the limit, plain product.
* ``moving-ridges``   the walking version of the ridge; plain product limit.
* ``many-ridges``     2^j - 1 ridges on an ever denser lattice with width
  4^-j; plain product limit despite nowhere-convergent profiles.
* ``ret-cinches``     level 5 dipping to 1 on the same lattice; the limit is
  the stretch-5 euclidean/taxi mix, not a product.
* ``constant``        f_j identically 1 at every stage; the trivial control
  (every discrepancy is pure grid error, every audit slack is the bound).

The dyadic walk for the moving families enumerates 0/1, 1/1, 0/2, 1/2, 2/2,
0/4, ... with half-width equal to the level spacing, so the center revisits
every dyadic rational infinitely often while the bump keeps narrowing.
"""

import math
from dataclasses import dataclass
from typing import Tuple

from .core import (
    TAU,
    BaseSpace,
    BumpLatticeProfile,
    BumpProfile,
    ConstantProfile,
    FiberSpace,
    InvalidDescriptor,
    SurfacePoint,
    WarpedSpace,
    WarpingProfile,
    circle_base,
    interval_base,
)
from .geodesy import cinch_limit_distance, flat_product_distance
from .ret import ret_distance
from .sampling import Pair, SamplePlan, default_plan

CINCH_KINDS = ("cinched-torus", "moving-cinch")
RIDGE_KINDS = ("single-ridge", "moving-ridges", "many-ridges")
FAMILY_KINDS = CINCH_KINDS + RIDGE_KINDS + ("ret-cinches", "constant")

MIX_STRETCH = 5.0


def dyadic_walk(j: int) -> Tuple[float, float]:
    """(center, half_width) of the j-th moving bump, 1-indexed.

    Level k holds the 2^k + 1 centers i/2^k for i = 0..2^k, all with
    half-width 1/2^k, and starts at index 2^k + k.
    """
    if j < 1:
        raise InvalidDescriptor("moving families are 1-indexed")
    k = 0
    while 2 ** (k + 1) + (k + 1) <= j:
        k += 1
    i = j - (2 ** k + k)
    return i / 2 ** k, 1.0 / 2 ** k


def lattice_cells(j: int) -> int:
    """Number of lattice cells at stage j (2^j; interior centers 1..2^j-1)."""
    if j < 1:
        raise InvalidDescriptor("lattice families are 1-indexed")
    return 2 ** j


@dataclass(frozen=True)
class LimitMetric:
    """Candidate limit of a family's distances.

    kind ``product``: flat product at a constant profile level.
    kind ``cinched-product``: flat product with one shrunk circle.
    kind ``stretched-mix``: the euclidean/taxi mix metric.

    Every parameter is checked when the metric is built, whatever its kind:
    level finite and > 0, depth in (0, 1], stretch finite and >= 1, cinch_r
    finite.  That cinch_r lies in the base is checked by `distance`, which
    knows the base.
    """

    kind: str
    level: float = 1.0
    depth: float = 1.0
    cinch_r: float = 0.0
    stretch: float = MIX_STRETCH

    def __post_init__(self):
        if self.kind not in ("product", "cinched-product", "stretched-mix"):
            raise InvalidDescriptor(f"unknown limit kind {self.kind!r}")
        if not (math.isfinite(self.level) and self.level > 0.0):
            raise InvalidDescriptor("limit level must be finite and positive")
        if not (0.0 < self.depth <= 1.0):
            raise InvalidDescriptor("cinch depth must lie in (0, 1]")
        if not (math.isfinite(self.stretch) and self.stretch >= 1.0):
            raise InvalidDescriptor("stretch ratio must be finite and >= 1")
        if not math.isfinite(self.cinch_r):
            raise InvalidDescriptor("cinch level must be finite")

    def distance(self, base: BaseSpace, fiber: FiberSpace,
                 p: SurfacePoint, q: SurfacePoint):
        """Limit distance between p and q.  Their coordinates may be arrays,
        broadcast together, for one distance per element; float
        coordinates give a float."""
        if self.kind == "product":
            return flat_product_distance(base, fiber, self.level, p, q)
        if self.kind == "cinched-product":
            return cinch_limit_distance(self.depth, self.cinch_r, base, fiber, p, q)
        return ret_distance(base.distance(p.r, q.r),
                            fiber.distance(p.theta, q.theta), self.stretch)

    def describe(self) -> str:
        if self.kind == "product":
            return f"product(level={self.level:g})"
        if self.kind == "cinched-product":
            return f"cinched-product(depth={self.depth:g}, r={self.cinch_r:g})"
        return f"stretched-mix(R={self.stretch:g})"


@dataclass(frozen=True)
class SequenceFamily:
    """One of the stock sequences, on a circle or interval base."""

    kind: str
    depth: float = 0.5
    base_shape: str = "circle"

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InvalidDescriptor(f"unknown family kind {self.kind!r}")
        if self.base_shape not in ("circle", "interval"):
            raise InvalidDescriptor("base_shape must be 'circle' or 'interval'")
        if self.kind in CINCH_KINDS and not (0.0 < self.depth <= 1.0):
            raise InvalidDescriptor("cinch families need depth in (0, 1]")
        if self.kind in RIDGE_KINDS and not (1.0 < self.depth <= 2.0):
            raise InvalidDescriptor("ridge families need height in (1, 2]")

    @property
    def base(self) -> BaseSpace:
        return circle_base() if self.base_shape == "circle" else interval_base()

    @property
    def fiber(self) -> FiberSpace:
        return FiberSpace()

    @property
    def limit_level(self) -> float:
        """Constant the profiles approach in the L2 sense."""
        return MIX_STRETCH if self.kind == "ret-cinches" else 1.0

    def profile(self, j: int) -> WarpingProfile:
        if j < 1:
            raise InvalidDescriptor("family stages are 1-indexed")
        if self.kind == "constant":
            return ConstantProfile(1.0)
        if self.kind in ("cinched-torus", "single-ridge"):
            return BumpProfile(1.0, self.depth, 0.0, 1.0 / j)
        if self.kind in ("moving-cinch", "moving-ridges"):
            center, width = dyadic_walk(j)
            return BumpProfile(1.0, self.depth, center, width)
        cells = lattice_cells(j)
        width = 4.0 ** (-j)
        if self.kind == "many-ridges":
            return BumpLatticeProfile(1.0, self.depth, cells, width)
        return BumpLatticeProfile(MIX_STRETCH, 1.0, cells, width)

    def space(self, j: int) -> WarpedSpace:
        return WarpedSpace(self.base, self.fiber, self.profile(j))

    def limit(self) -> LimitMetric:
        """The proven limit; moving-cinch has none (see candidate_limits)."""
        if self.kind == "constant":
            return LimitMetric("product", level=1.0)
        if self.kind == "cinched-torus":
            return LimitMetric("cinched-product", depth=self.depth, cinch_r=0.0)
        if self.kind == "moving-cinch":
            raise InvalidDescriptor(
                "the moving cinch has no limit; use candidate_limits()")
        if self.kind == "ret-cinches":
            return LimitMetric("stretched-mix", stretch=MIX_STRETCH)
        return LimitMetric("product", level=1.0)

    def candidate_limits(self) -> Tuple[LimitMetric, ...]:
        """Subsequential candidates (both fail for the full moving sequence)."""
        if self.kind == "moving-cinch":
            return (
                LimitMetric("cinched-product", depth=self.depth, cinch_r=0.0),
                LimitMetric("cinched-product", depth=self.depth, cinch_r=1.0),
            )
        return (self.limit(),)

    def naive_limit(self) -> LimitMetric:
        """The tempting-but-wrong plain product at the L2 level.

        Correct for the ridge families; provably not the limit for
        cinched-torus and ret-cinches, which is what the wrong-limit
        experiments demonstrate.
        """
        return LimitMetric("product", level=self.limit_level)

    def l2_analytic_bound(self, j: int) -> float:
        """Closed-form upper bound on ||f_j - limit_level|| in L2."""
        if self.kind == "constant":
            return 0.0
        if self.kind in ("cinched-torus", "single-ridge"):
            return math.sqrt(2.0 / j)
        if self.kind in ("moving-cinch", "moving-ridges"):
            _, width = dyadic_walk(j)
            return math.sqrt(2.0 * width)
        n_bumps = lattice_cells(j) - 1
        per = math.sqrt(n_bumps * 2.0 * 4.0 ** (-j))
        if self.kind == "many-ridges":
            return per
        return 4.0 * per

    def special_pairs(self, j: int) -> Tuple[Pair, ...]:
        """Adversarial pairs realizing each family's worst discrepancies:
        antipodal fiber points on bump centers and midpoints between them."""
        fiber = self.fiber
        half = fiber.diameter
        pairs = []

        def on_level(r: float):
            r = float(self.base.wrap(r))
            pairs.append((SurfacePoint(r, 0.0), SurfacePoint(r, half)))
            pairs.append((SurfacePoint(r, 0.25 * half), SurfacePoint(r, 1.25 * half)))

        if self.kind == "constant":
            on_level(0.0)
            on_level(1.0)
        elif self.kind in ("cinched-torus", "single-ridge"):
            on_level(0.0)
            on_level(1.0 / (2.0 * j))
        elif self.kind in ("moving-cinch", "moving-ridges"):
            center, width = dyadic_walk(j)
            on_level(center)
            on_level(center + 0.5 * width)
        else:
            cells = lattice_cells(j)
            spacing = TAU / cells
            on_level(-math.pi + spacing)
            on_level(-math.pi + spacing * (cells // 2 or 1))
            # midpoint between lattice bumps: profile sits at the plateau
            on_level(-math.pi + 1.5 * spacing)
        # a cross-feature diagonal pair
        pairs.append((SurfacePoint(-1.0, 0.0), SurfacePoint(1.0, half)))
        return tuple(pairs)

    def sample_plan(self, j: int, n_sources: int = 8, n_targets: int = 16,
                    offset: int = 0) -> SamplePlan:
        return default_plan(self.base, self.fiber, n_sources=n_sources,
                            n_targets=n_targets, offset=offset,
                            special=self.special_pairs(j))

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant(base={self.base_shape})"
        return f"{self.kind}(depth={self.depth:g}, base={self.base_shape})"

