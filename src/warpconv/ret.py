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

import numpy as np

from .core import InvalidDescriptor, float_or_array

__all__ = [
    "ret_distance",
]


def _check_stretch(stretch: float) -> None:
    if not (math.isfinite(stretch) and stretch >= 1.0):
        raise InvalidDescriptor("stretch ratio must be finite and >= 1")


def ret_distance(ds, dsigma, stretch: float):
    """Closed-form mixed distance for displacement (ds, dsigma), both >= 0.

    Vectorized over ds/dsigma (broadcast together); a float for floats.
    """
    _check_stretch(stretch)
    ds = np.asarray(ds, dtype=float)
    dsigma = np.asarray(dsigma, dtype=float)
    if np.any(ds < 0) or np.any(dsigma < 0):
        raise ValueError("displacements must be nonnegative")
    R = stretch
    if R == 1.0:
        return float_or_array(np.hypot(ds, dsigma))
    root = math.sqrt(R * R - 1.0)
    thresh = ds / (R * root)
    euclid = np.sqrt(ds * ds + (R * dsigma) ** 2)
    taxi = ds * root / R + dsigma
    return float_or_array(np.where(dsigma <= thresh, euclid, taxi))
