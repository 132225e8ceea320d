"""Mixed euclidean/taxi distance with a stretched fiber direction.

For a stretch ratio R >= 1, the cost of moving (ds, dsigma) in base and
fiber is the cheapest split of the fiber displacement into a euclidean part
(where the fiber direction counts R times its arc length) and a flat taxi
tail:

    d = min over T in [0, dsigma] of sqrt(ds^2 + R^2 T^2) + (dsigma - T).

The minimizer is T0 = ds / (R sqrt(R^2 - 1)) when that lies inside the
interval, giving the closed form

    d = sqrt(ds^2 + R^2 dsigma^2)                 if dsigma <= T0,
    d = ds sqrt(R^2 - 1) / R + dsigma             otherwise.

Both branches agree at the threshold.  The distance is homogeneous of
degree one in (ds, dsigma) and is an inf-convolution of two norms, hence a
norm itself; triangle inequality is exact.

A quadratic-stretch space (R = 2) has euclidean-branch ball boundaries on
the ellipse ds^2 + 4 dsigma^2 = r^2.
"""

import math
from typing import Optional

import numpy as np

from .core import BaseSpace, FiberSpace, InvalidDescriptor, SurfacePoint

__all__ = [
    "ret_distance",
    "ret_point_distance",
]


def _check_stretch(stretch: float) -> None:
    if not (stretch >= 1.0):
        raise InvalidDescriptor("stretch ratio must be >= 1")


def ret_distance(ds, dsigma, stretch: float):
    """Closed-form mixed distance for displacement (ds, dsigma), both >= 0.

    Vectorized over ds/dsigma (broadcast together).
    """
    _check_stretch(stretch)
    ds = np.asarray(ds, dtype=float)
    dsigma = np.asarray(dsigma, dtype=float)
    if np.any(ds < 0) or np.any(dsigma < 0):
        raise ValueError("displacements must be nonnegative")
    R = stretch
    if R == 1.0:
        out = np.hypot(ds, dsigma)
        return out if out.ndim else float(out)
    root = math.sqrt(R * R - 1.0)
    thresh = ds / (R * root)
    euclid = np.sqrt(ds * ds + (R * dsigma) ** 2)
    taxi = ds * root / R + dsigma
    out = np.where(dsigma <= thresh, euclid, taxi)
    return out if out.ndim else float(out)


def ret_point_distance(p: SurfacePoint, q: SurfacePoint, stretch: float,
                       base: Optional[BaseSpace] = None,
                       fiber: Optional[FiberSpace] = None) -> float:
    """Mixed distance between two surface points.

    Base displacement is |p.r - q.r| (or the base geodesic arc when a base
    space is given); fiber displacement is |p.theta - q.theta| (or the minor
    arc when a fiber is given).
    """
    ds = base.distance(p.r, q.r) if base is not None else abs(p.r - q.r)
    dsig = (fiber.distance(p.theta, q.theta) if fiber is not None
            else abs(p.theta - q.theta))
    return float(ret_distance(ds, dsig, stretch))

