"""Slow, independent references the tests compare the library against.

Grid graphs: the triplet construction of the full graph, COO triplets for
both orientations of every canonical direction, each direction's weights
computed on their own, converted with `tocsr()`.  `reference_fold` folds it
independently (keep z <= m//2, fold every column, keep the minimum of each
duplicate), and `oracle_sweeps` runs scipy's Dijkstra on that fold: the
values the sweep kernel must return bit for bit.

Profiles and metrics: `SumOfBumpsProfile`, finitely many explicit cosine
bumps, against which the bump lattice is checked, and
`ret_distance_brute`, the mixed euclidean/taxi distance by direct
minimization over the fiber split.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra

from warpconv import neighborhood_offsets
from warpconv.core import (
    TAU,
    InvalidDescriptor,
    WarpingProfile,
    _bump_shape,
    _bump_shape_integral,
)
from warpconv.torus3 import Grid3Graph, stencil_offsets3


def triplet_csr(edges, n_nodes):
    rows, cols, data = [], [], []
    for u, v, w in edges:
        rows.extend((u, v))
        cols.extend((v, u))
        data.extend((w, w))
    return coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes)).tocsr()


def surface_reference(graph):
    """Triplet CSR of a surface grid and its row invariance."""
    circle = graph.space.base.is_circle
    nt = graph.n_theta
    cols_theta = np.arange(nt)
    edges = []
    row_invariant = circle
    for di, dj in neighborhood_offsets(graph.spec.k):
        if not (di > 0 or (di == 0 and dj > 0)):
            continue
        idx, w = graph._direction_weights(di, dj)
        row_invariant = row_invariant and bool(np.all(w == w[0]))
        idx2 = (idx + di) % graph.n_rows if circle else idx + di
        u = (idx[:, None] * nt + cols_theta[None, :]).ravel()
        v = (idx2[:, None] * nt + ((cols_theta + dj) % nt)[None, :]).ravel()
        edges.append((u, v, np.repeat(w, nt)))
    return triplet_csr(edges, graph.n_nodes), row_invariant


def torus3_reference(fld, n):
    """Triplet CSR of the periodic n^3 grid and its xy invariance."""
    h = 2.0 * math.pi / n
    xs = -math.pi + h * np.arange(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    plane = np.arange(n * n, dtype=np.int32).reshape(n, n)
    z_idx = np.arange(n, dtype=np.int32)
    edges = []
    xy_invariant = True
    for dx, dy, dz in (o for o in stencil_offsets3() if o > (0, 0, 0)):
        if dz == 0:
            w_sheet = np.full((n, n), h * math.hypot(dx, dy))
        else:
            f = np.asarray(fld(X + 0.5 * dx * h, Y + 0.5 * dy * h), dtype=float)
            w_sheet = h * np.sqrt(dx * dx + dy * dy + (f * dz) ** 2)
        xy_invariant = xy_invariant and bool(np.all(w_sheet == w_sheet[0, 0]))
        sheet_to = plane[(np.arange(n) + dx) % n][:, (np.arange(n) + dy) % n]
        u = (plane[:, :, None] * np.int32(n) + z_idx[None, None, :]).ravel()
        v = (sheet_to[:, :, None] * np.int32(n)
             + ((z_idx + dz) % n).astype(np.int32)[None, None, :]).ravel()
        edges.append((u, v, np.repeat(w_sheet.ravel(), n)))
    return triplet_csr(edges, n ** 3), xy_invariant


def graph_reference(graph):
    """(triplet CSR, invariance along the base) of either kind of graph."""
    if isinstance(graph, Grid3Graph):
        return torus3_reference(graph.field, graph.spec.n)
    return surface_reference(graph)


def first_of_runs(row, col, w):
    """Sort (row, col, w) triplets and keep the smallest w of each (row, col)."""
    order = np.lexsort((w, col, row))
    row, col, w = row[order], col[order], w[order]
    first = np.ones(row.size, dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
    return row[first], col[first], w[first]


def reference_fold(full, m):
    """Quotient of a full fibered CSR by the mirror z -> -z (mod m)."""
    h = m // 2 + 1
    coo = full.tocoo()
    cell_r, z_r = np.divmod(coo.row.astype(np.int64), m)
    cell_c, z_c = np.divmod(coo.col.astype(np.int64), m)
    keep = z_r < h
    row, col, w = first_of_runs(cell_r[keep] * h + z_r[keep],
                                cell_c[keep] * h
                                + np.minimum(z_c[keep], m - z_c[keep]),
                                coo.data[keep])
    n = full.shape[0] // m * h
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n))))
    return csr_matrix((w, col, indptr), shape=(n, n))


def oracle_sweeps(folded, m, cells):
    """scipy's Dijkstra on a folded reference from node (cell, 0) of each
    cell: the table `distances_from(cells)` must equal."""
    return dijkstra(folded, directed=True,
                    indices=np.asarray(cells, dtype=np.int64) * (m // 2 + 1))


@dataclass(frozen=True)
class SumOfBumpsProfile(WarpingProfile):
    """Constant level plus a finite list of cosine bumps.

    Bumps are (peak, center, half_width) triples.  Supports must be disjoint,
    also across the seam of a 2*pi circle base: the extremum and integral
    formulas read each bump on its own, so construction rejects overlaps.
    """

    level: float
    bumps: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self):
        if not (self.level > 0):
            raise InvalidDescriptor("level must be positive")
        for peak, _c, hw in self.bumps:
            if not (peak > 0 and hw > 0):
                raise InvalidDescriptor("bumps need positive peak and half_width")
        for i, (_peak, center, hw) in enumerate(self.bumps):
            for _peak2, center2, hw2 in self.bumps[i + 1:]:
                gap = abs(center - center2) % TAU
                if min(gap, TAU - gap) < hw + hw2:
                    raise InvalidDescriptor("bump supports must not overlap")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.full_like(r, self.level)
        for peak, center, hw in self.bumps:
            out += (peak - self.level) * _bump_shape((r - center) / hw)
        return out

    def breakpoints_in(self, lo, hi):
        pts = []
        for _peak, center, hw in self.bumps:
            for p in (center - hw, center, center + hw):
                if lo < p < hi:
                    pts.append(p)
        return np.array(sorted(pts))

    def integral_on(self, lo, hi):
        total = self.level * (hi - lo)
        for peak, center, hw in self.bumps:
            t0 = (lo - center) / hw
            t1 = (hi - center) / hw
            total += (peak - self.level) * hw * _bump_shape_integral(t0, t1)
        return total


def ret_distance_brute(ds, dsigma, stretch: float,
                       n_grid: int = 1000, newton_iters: int = 12):
    """The mixed distance by direct minimization over the fiber split.

    Searches a uniform grid of candidate splits T in [0, dsigma], then
    polishes the best grid point with a few Newton steps on the smooth
    objective.  Vectorized over ds/dsigma.
    """
    ds = np.atleast_1d(np.asarray(ds, dtype=float))
    dsigma = np.atleast_1d(np.asarray(dsigma, dtype=float))
    ds, dsigma = np.broadcast_arrays(ds, dsigma)
    R = stretch

    ts = np.linspace(0.0, 1.0, n_grid)  # scaled by dsigma per query
    T = dsigma[..., None] * ts
    vals = np.sqrt(ds[..., None] ** 2 + (R * T) ** 2) + (dsigma[..., None] - T)
    best_idx = np.argmin(vals, axis=-1)
    Tb = np.take_along_axis(T, best_idx[..., None], axis=-1)[..., 0]

    # Newton polish on phi(T) = sqrt(ds^2 + R^2 T^2) + dsigma - T,
    # clamped into the feasible interval
    for _ in range(newton_iters):
        rad = np.sqrt(ds * ds + (R * Tb) ** 2)
        with np.errstate(invalid="ignore", divide="ignore"):
            d1 = (R * R) * Tb / rad - 1.0
            d2 = (R * R) * (1.0 - (R * R) * Tb * Tb / (rad * rad)) / rad
            step = np.where(d2 > 0, d1 / np.where(d2 > 0, d2, 1.0), 0.0)
        Tb = np.clip(Tb - np.where(np.isfinite(step), step, 0.0),
                     0.0, dsigma)
    out = np.sqrt(ds * ds + (R * Tb) ** 2) + (dsigma - Tb)
    # endpoints of the interval are candidates too
    out = np.minimum(out, np.hypot(ds, R * dsigma))
    out = np.minimum(out, ds + dsigma)
    return out if out.shape != (1,) else float(out[0])
