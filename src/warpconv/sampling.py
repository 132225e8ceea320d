"""Deterministic low-discrepancy sample plans for distance experiments.

Sample points come from digit-reversal (van der Corput / Halton) sequences so
experiment runs are reproducible byte for byte without carrying RNG state.
Plans pair a small set of shared sources with a larger target set, so a grid
backend answers every pair with one shortest-path sweep per source.
"""

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Tuple

import numpy as np

from .core import BaseSpace, FiberSpace, InvalidDescriptor, SurfacePoint

_PRIMES = (2, 3, 5, 7, 11, 13)

Pair = Tuple[SurfacePoint, SurfacePoint]


def radical_inverse(index: int, base: int) -> float:
    """Digit reversal of a nonnegative integer in the given base.

    radical_inverse(6, 2): 6 = 110_2, reversed behind the point 0.011_2 = 3/8.
    Python and numpy integers are accepted; bools and other types raise
    ValueError, and so do an index below 0 and a base below 2.
    """
    for name, v in (("index", index), ("base", base)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    if index < 0:
        raise ValueError("index must be nonnegative")
    if base < 2:
        raise ValueError("base must be at least 2")
    inv, denom = 0.0, 1.0
    while index > 0:
        denom *= base
        index, digit = divmod(index, base)
        inv += digit / denom
    return inv


def halton_points(count: int, dims: int = 2, offset: int = 0):
    """`count` points of the Halton sequence in [0,1)^dims.

    `offset` skips ahead in the sequence; the zero index (all coordinates 0)
    is skipped so distinct offsets never emit the origin twice.
    """
    if dims > len(_PRIMES):
        raise InvalidDescriptor(f"at most {len(_PRIMES)} dimensions supported")
    return [
        tuple(radical_inverse(offset + i + 1, _PRIMES[d]) for d in range(dims))
        for i in range(count)
    ]


def surface_samples(base: BaseSpace, fiber: FiberSpace, count: int,
                    offset: int = 0) -> Tuple[SurfacePoint, ...]:
    """Low-discrepancy points on the product surface."""
    pts = halton_points(count, dims=2, offset=offset)
    return tuple(
        SurfacePoint(base.r_min + u * base.length, v * fiber.circumference)
        for u, v in pts
    )


@dataclass(frozen=True)
class SamplePlan:
    """Pairs to probe: every source against every target, plus hand-picked
    special pairs (worst-case configurations a family knows about).  The
    points are surface points, or `torus3.Point3` for 3-torus families."""

    sources: Tuple[SurfacePoint, ...]
    targets: Tuple[SurfacePoint, ...]
    special: Tuple[Pair, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (self.sources and self.targets) and not self.special:
            raise InvalidDescriptor("sample plan has no pairs")

    @property
    def n_pairs(self) -> int:
        return len(self.sources) * len(self.targets) + len(self.special)

    def pairs(self) -> Iterator[Pair]:
        for s in self.sources:
            for t in self.targets:
                yield s, t
        yield from self.special


def default_plan(base: BaseSpace, fiber: FiberSpace, n_sources: int = 8,
                 n_targets: int = 16, offset: int = 0,
                 special: Sequence[Pair] = ()) -> SamplePlan:
    """The standard 8 x 16 low-discrepancy plan plus special pairs.

    Targets continue the Halton sequence where the sources stop, so source
    and target clouds never collide and both stay low-discrepancy.
    """
    sources = surface_samples(base, fiber, n_sources, offset=offset)
    targets = surface_samples(base, fiber, n_targets, offset=offset + n_sources)
    return SamplePlan(sources, targets, tuple(special))
