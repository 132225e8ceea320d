"""Distances on warped-product surfaces.

Three independent routes to the same quantity:

* a weighted-graph oracle on a regular (r, theta) grid (Dijkstra over a
  k-neighborhood with quadrature edge weights),
* Clairaut geodesic shooting using the conserved quantity c = f(r)^2 theta',
* closed-form candidates and bounds (level-set, taxi, ridge bypass, flat
  product).

The grid oracle reports an error estimate built from endpoint snapping plus a
direction-anisotropy constant; the constants below are worst-case ratios of
the best k-neighborhood polyline to the straight segment in a flat metric and
are pinned against a brute-force direction sweep in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .core import (
    BaseSpace,
    FiberSpace,
    HypothesisError,
    InvalidDescriptor,
    PolylineCurve,
    SurfacePoint,
    WarpedSpace,
    segment_length,
)

# Verified worst-case relative excess of grid paths over straight segments
# for Chebyshev-k neighborhoods with co-prime offsets (flat metric, unit
# aspect).  Exact values are 1/cos(pi/8)-1, 1/cos(atan(1/2)/2)-1,
# 1/cos(atan(1/3)/2)-1; these are rounded up at the 4th decimal.  Warped
# spaces need the aspect-aware stencil_anisotropy below, which reduces to
# these numbers at aspect 1.
ANISOTROPY_BOUND = {1: 0.0824, 2: 0.0275, 3: 0.0131}

# Surface grid node cap.  The folded CSR keeps fiber positions 0..m//2, at
# most 5/8 of the nodes since m >= 8, and each has at most 32 neighbours
# (k = 3), so 2**25 nodes keep every CSR index and row pointer below
# 2**31 (int32) with room to spare.
MAX_NODES_2D = 2 ** 25


def stencil_anisotropy(k: int, aspect_lo: float, aspect_hi: float) -> float:
    """Worst-case relative overestimate of the k-neighborhood grid metric.

    After rescaling the fiber axis by the local warp value, every stencil
    step is a unit-cost unit vector, so the grid metric's unit ball at a
    point is the polygon spanned by the step directions and the worst
    direction sits in the widest angular wedge: ratio = 1/cos(gap/2).  The
    wedges depend on the local aspect a = f * (fiber step / base step);
    this returns the max over the whole aspect range (sampled densely on a
    log grid, with a small safety margin for the sampling).
    """
    if not (0 < aspect_lo <= aspect_hi) or not math.isfinite(aspect_hi):
        raise ValueError("aspect range must be positive and finite")
    offs = neighborhood_offsets(k)
    lo, hi = math.log(aspect_lo), math.log(aspect_hi)
    samples = np.exp(np.linspace(lo, hi, 257)) if hi > lo else [aspect_lo]
    worst = 0.0
    for a in samples:
        angles = np.sort(np.unique([math.atan2(a * abs(dj), abs(di))
                                    for di, dj in offs]))
        gaps = np.diff(np.concatenate(([0.0], angles, [0.5 * math.pi])))
        # the 0 and pi/2 endpoints are axis directions already in the set,
        # so boundary gaps are real wedges against the axes
        gap = float(np.max(gaps))
        worst = max(worst, 1.0 / math.cos(0.5 * gap) - 1.0)
    # headroom for the aspect sampling and for O(h) warp variation per cell
    return 1.005 * worst + 1e-4


class GridSizeError(RuntimeError):
    """Requested grid exceeds the configured memory guard."""


class FiberStencil(NamedTuple):
    """Per-cell edges of a fibered graph's full (unfolded) form.

    Slot s of base cell c joins node (c, z) to (target[c, s], (z + step[s])
    % m) at weight[c, s], for every fiber position z; a cell without an edge
    in a slot has target n_cells there.  Edges are stored both ways, so the
    slots of a node are its in-neighbours as well.
    """

    m: int
    target: np.ndarray
    step: np.ndarray
    weight: np.ndarray


def _fold(z, m: int):
    """Fiber position z (mod m) folded by the mirror z -> -z onto [0, m//2]."""
    z = np.mod(z, m)
    return np.minimum(z, m - z)


class OrbitSweepCache:
    """Node-pair distances on a fibered grid graph from one cached sweep per
    source orbit.

    Node cell * m + z sits over base cell `cell` at fiber position z.  Rolls
    of the fiber map the graph onto itself, and so does the mirror
    z -> -z (mod m), because every edge weight is even in the fiber step;
    a graph whose built weights are invariant under base translations too
    has more such maps.  Distances are then invariant: d(a, b) = d(T a, T b),
    and a sweep from a node at z = 0, which the mirror fixes, is mirror
    symmetric.  So `_matrix` holds only the quotient of the graph by the
    mirror (fiber positions 0..m//2, see `fibered_csr`), each sweep runs
    from a (cell, 0) node on it, and d(a, b) is read from the folded sweep
    of a's orbit representative.

    Subclasses set `_matrix` and `_stencil` from `fibered_csr`, `_base_shape`
    (the base lattice's shape, cells in C order), `base_invariant` (True
    when every wrap-around translation of that lattice is an automorphism
    too, so cell 0 represents every source) and an empty `_orbit_rows`
    dict, which keeps each swept row for the graph's lifetime as an
    (n_cells, m//2 + 1) view, so sources in a known orbit sweep nothing.
    """

    def distances_from(self, cells: Sequence[int]) -> np.ndarray:
        """Sweeps of the folded graph from node (cell, 0) of each base cell,
        as scipy returns them: shape (len(cells), n_cells * (m//2 + 1)).
        Every call sweeps; `pair_distances` answers pairs from the cache."""
        h = self._stencil.m // 2 + 1
        return _csgraph_dijkstra(self._matrix, directed=True,
                                 indices=np.asarray(cells, dtype=np.int64) * h)

    def _orbit(self, a: np.ndarray, b: np.ndarray):
        """Representative cells of the a's orbits, and the b's cells and
        folded fiber offsets under the maps taking each a to (rep, 0)."""
        m = self._stencil.m
        cell_a, cell_b = a // m, b // m
        if self.base_invariant:
            shape = self._base_shape
            moved = np.subtract(np.unravel_index(cell_b, shape),
                                np.unravel_index(cell_a, shape))
            cell_a = np.zeros_like(cell_a)
            cell_b = np.ravel_multi_index(moved, shape, mode="wrap")
        return cell_a, cell_b, _fold(b - a, m)

    def pair_distances(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """Distances between (source node, target node) pairs."""
        a, b = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        reps, cells, z = self._orbit(a, b)
        rows = self._orbit_rows
        missing = [c for c in dict.fromkeys(reps.tolist()) if c not in rows]
        if missing:
            table = self.distances_from(missing)
            rows.update(zip(missing, table.reshape(len(missing), -1,
                                                   self._stencil.m // 2 + 1)))
        return [float(rows[r][c, k])
                for r, c, k in zip(reps.tolist(), cells.tolist(), z.tolist())]

    def error_bound(self, distance: float, snap_cost: float) -> float:
        """Error bar of a grid distance: snap cost plus anisotropy term."""
        return snap_cost + self.aniso_bound * distance + 1e-9

    def shortest_chain(self, src: int, dst: int) -> Tuple[float, List[int]]:
        """Distance src -> dst and the nodes of one shortest path.

        Walks back from dst: each step moves to the first stencil neighbour
        u of the current node x with fl(d(u) + w) == d(x).  The sweep's
        distances satisfy d(x) = min_u fl(d(u) + w) at every x but src, so
        such a u exists, d falls at every step, and the left-to-right float
        sum of the chain's weights is the distance bit for bit.  d(x) is
        read from the folded sweep of src's cell at x's fiber offset.
        """
        m, target, step, weight = self._stencil
        d = self.distances_from([src // m])[0].reshape(len(target), -1)
        node = int(dst)
        here = dist = d[node // m, _fold(node - src, m)]
        if not math.isfinite(dist):
            raise RuntimeError("graph is disconnected")
        chain = [node]
        while node != src:
            cell, z = divmod(node, m)
            live = target[cell] < len(target)
            prev = np.where(live, target[cell], 0)
            before = d[prev, _fold(z + step - src, m)]
            s = np.flatnonzero(live & (before + weight[cell] == here))[0]
            node, here = int(prev[s] * m + (z + step[s]) % m), before[s]
            chain.append(node)
        chain.reverse()
        return float(dist), chain


def fibered_csr(n_cells: int, m: int, directions) -> Tuple[csr_matrix, FiberStencil]:
    """Folded CSR adjacency of a base lattice times a periodic fiber.

    Node cell * m + z of the full graph sits over base cell `cell` at fiber
    position z.  Each stencil direction is one (src, dst, dz, weights) tuple
    of arrays over base cells and stands for both fiber signs: for every z
    and s = dz, -dz, node (src[e], z) joins node (dst[e], (z + s) % m) at
    weight weights[e], and the edge is stored both ways.  A cell may start
    at most one edge per direction and end at most one.

    Every weight is thus even in the fiber step, so the mirror z -> -z
    (mod m) maps the graph onto itself and fixes z = 0.  The returned matrix
    is the quotient by the mirror: node cell * h + z for z in [0, h),
    h = m // 2 + 1, each target folded to min(z, m - z) and duplicate edges
    merged at their minimum weight.  A sweep on it from (cell, 0) gives the
    full graph's distances bit for bit, because those are mirror symmetric
    and, with positive weights, d(v) = min_u fl(d(u) + w(u, v)) has one
    solution.  No array over the full fiber is built.

    The arrays are written in place with sorted columns and int32 indices.
    Column order and degree depend only on the cell and on which steps
    leave [0, h) before the fold, which splits z into the classes {0}, ...,
    {s-1}, [s, h-s), {h-s}, ..., {h-1} for the widest step s: each class is
    sorted and merged once per cell and its rows are its first row shifted
    by z - z_first.  The full graph's per-cell stencil is returned too.
    """
    slots = []
    for src, dst, dz, w in directions:
        for s in ((dz, -dz) if dz else (0,)):
            slots += [(src, dst, s, w), (dst, src, -s, w)]
    target = np.full((n_cells, len(slots)), n_cells, dtype=np.int64)
    weight = np.zeros((n_cells, len(slots)))
    step = np.array([s for _, _, s, _ in slots], dtype=np.int64)
    for s, (src, dst, _, w) in enumerate(slots):
        target[src, s] = dst
        weight[src, s] = w

    h = m // 2 + 1
    wide = int(np.max(np.abs(step)))
    starts = sorted({*range(min(wide + 1, h)), *range(max(h - wide, 0), h)})
    bounds = list(zip(starts, starts[1:] + [h]))
    # missing edges have keys of n_cells * h or more and sort last
    key = target[:, None, :] * h + _fold(np.array(starts)[:, None] + step, m)
    wts = np.broadcast_to(weight[:, None, :], key.shape)
    order = np.lexsort((wts, key), axis=-1)
    key = np.take_along_axis(key, order, axis=-1)
    wts = np.take_along_axis(wts, order, axis=-1)
    # the first edge of a run of equal keys carries the run's minimum weight
    keep = key < n_cells * h
    keep[..., 1:] &= key[..., 1:] != key[..., :-1]
    degree = np.count_nonzero(keep, axis=-1)
    order = np.argsort(~keep, axis=-1, kind="stable")
    first_cols = np.take_along_axis(key, order, axis=-1).astype(np.int32)
    first_data = np.take_along_axis(wts, order, axis=-1)

    indptr = np.zeros(n_cells * h + 1, dtype=np.int32)
    widths = [z1 - z0 for z0, z1 in bounds]
    np.cumsum(np.repeat(degree, widths, axis=1).ravel(), out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    data = np.empty(int(indptr[-1]))
    # cells of equal degrees are one (cells, row) block of both arrays, and
    # each class is a (cells, z, degree) view of the block
    cuts = [0, *(np.flatnonzero(np.any(np.diff(degree, axis=0), axis=1)) + 1),
            n_cells]
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        lo, hi = indptr[c0 * h], indptr[c1 * h]
        cols = indices[lo:hi].reshape(c1 - c0, -1)
        vals = data[lo:hi].reshape(c1 - c0, -1)
        at = 0
        for c, (z0, z1) in enumerate(bounds):
            deg = int(degree[c0, c])
            span = slice(at, at + (z1 - z0) * deg)
            at = span.stop
            shape = (c1 - c0, z1 - z0, deg)
            shift = np.arange(z1 - z0, dtype=np.int32)[None, :, None]
            np.add(first_cols[c0:c1, c, None, :deg], shift,
                   out=cols[:, span].reshape(shape))
            vals[:, span].reshape(shape)[...] = first_data[c0:c1, c, None, :deg]
    n_folded = n_cells * h
    return (csr_matrix((data, indices, indptr), shape=(n_folded, n_folded)),
            FiberStencil(m, target, step, weight))


def neighborhood_offsets(k: int) -> List[Tuple[int, int]]:
    """Co-prime integer offsets within Chebyshev radius k, both signs,
    in a fixed deterministic order."""
    if k < 1:
        raise ValueError("neighborhood radius k must be >= 1")
    offs = []
    for di in range(-k, k + 1):
        for dj in range(-k, k + 1):
            if di == 0 and dj == 0:
                continue
            if math.gcd(abs(di), abs(dj)) != 1:
                continue
            offs.append((di, dj))
    return offs


def _integer_fields(spec) -> None:
    """Store every field of a frozen dataclass as an int; bools and values
    of other types raise ValueError."""
    for f in fields(spec):
        v = getattr(spec, f.name)
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{f.name} must be an integer, got {v!r}")
        object.__setattr__(spec, f.name, int(v))


@dataclass(frozen=True)
class GridSpec:
    """Resolution and neighborhood of the grid oracle."""

    n_r: int = 256
    n_theta: int = 256
    k: int = 2

    def __post_init__(self):
        _integer_fields(self)
        if self.n_r < 8 or self.n_theta < 8:
            raise ValueError("grid needs at least 8 subdivisions per axis")
        if self.k not in ANISOTROPY_BOUND:
            raise ValueError(f"unsupported neighborhood k={self.k}")

    def as_list(self) -> List[int]:
        """Subdivisions per axis, then the neighborhood radius."""
        return [self.n_r, self.n_theta, self.k]


@dataclass
class GeodesicResult:
    """Distance value with provenance and an error estimate."""

    distance: float
    method: str
    error_estimate: float
    path: Optional[PolylineCurve] = None
    converged: bool = True

    def to_dict(self) -> dict:
        out = {
            "distance": self.distance,
            "method": self.method,
            "error_estimate": self.error_estimate,
            "converged": self.converged,
        }
        if self.path is not None:
            out["path"] = [[pt.r, pt.theta] for pt in self.path.points]
        return out


# ---------------------------------------------------------------------------
# Grid oracle
# ---------------------------------------------------------------------------


class GridGraph(OrbitSweepCache):
    """Weighted graph over an (r, theta) grid of a warped surface.

    Nodes sit at r = r_min + i*hr (i rows; circle bases wrap, interval bases
    include both endpoints) and theta = l*htheta.  Edges join nodes within
    Chebyshev radius k using co-prime offsets only; each edge weight is the
    quadrature length of the straight parameter-space segment, with forced
    sample splits at bump-support boundaries.  Weights are computed once per
    undirected edge and its mirror image (di, -dj), so the graph is bitwise
    symmetric and its weights are even in the theta step.

    Weights depend on the start row only: `_direction_weights` gives one
    weight per row and direction, and `fibered_csr` writes the CSR from them
    with rows as base cells (`_base_shape` is (n_rows,)) and theta as the
    fiber, folded by the mirror theta -> -theta: it holds columns
    0..n_theta//2 of every row, about half the nodes and edges.  Grids over
    MAX_NODES_2D nodes raise GridSizeError before anything is allocated.
    Rolling the fiber is a graph automorphism, so one sweep per source row,
    run on the folded graph from the row's column 0, answers every pair.
    When the built weights are also bitwise equal across rows of a circle
    base, `base_invariant` is set and one sweep answers the whole graph.
    """

    def __init__(self, space: WarpedSpace, spec: GridSpec = GridSpec()):
        self.space = space
        self.spec = spec
        base, fiber = space.base, space.fiber
        self.hr = base.length / spec.n_r
        self.htheta = fiber.circumference / spec.n_theta
        self.n_rows = spec.n_r if base.is_circle else spec.n_r + 1
        self.n_theta = spec.n_theta
        self.n_nodes = self.n_rows * self.n_theta
        if self.n_nodes > MAX_NODES_2D:
            raise GridSizeError(
                f"surface grid of {self.n_nodes} nodes exceeds the "
                f"{MAX_NODES_2D} node memory guard")
        self.rows = base.r_min + self.hr * np.arange(self.n_rows)
        self.thetas = self.htheta * np.arange(self.n_theta)
        ratio = self.htheta / self.hr
        self.aniso_bound = stencil_anisotropy(
            spec.k, space.profile_min() * ratio, space.profile_max() * ratio)
        self._base_shape = (self.n_rows,)
        self._matrix, self._stencil, self.base_invariant = self._build()
        self._orbit_rows = {}

    # -- construction -------------------------------------------------

    def _direction_weights(self, di: int, dj: int) -> Tuple[np.ndarray, np.ndarray]:
        """Edge weights for one offset direction, per start row.

        Returns (start_row_indices, weights).  Weight depends only on the
        start row because the profile is a function of r alone.
        """
        base = self.space.base
        dr = di * self.hr
        dtheta = dj * self.htheta
        if base.is_circle:
            idx = np.arange(self.n_rows)
        else:
            lo = max(0, -di)
            hi = self.n_rows - 1 - max(0, di)
            idx = np.arange(lo, hi + 1)
        r0 = self.rows[idx]
        if dj == 0:
            return idx, np.full(idx.size, abs(dr))
        if di == 0:
            f = np.asarray(self.space.warp_at(r0), dtype=float)
            return idx, f * abs(dtheta)
        # bulk 4-point midpoint quadrature, then fix rows crossing breakpoints
        mids = r0[:, None] + dr * (2 * np.arange(4) + 1)[None, :] / 8.0
        f = np.asarray(self.space.warp_at(mids), dtype=float)
        w = np.mean(np.sqrt(dr * dr + (f * dtheta) ** 2), axis=1)
        span_lo = np.minimum(r0, r0 + dr)
        bps = self.space.breakpoints_unwrapped(
            float(self.rows[0] - abs(dr)), float(self.rows[-1] + abs(dr)))
        if bps.size:
            i0 = np.searchsorted(bps, span_lo)
            i1 = np.searchsorted(bps, span_lo + abs(dr))
            affected = np.nonzero(i1 > i0)[0]
            for a in affected:
                w[a] = segment_length(self.space, float(r0[a]), dr, dtheta,
                                      points_per_piece=4)
        return idx, w

    def _build(self):
        """Folded CSR matrix and stencil of the graph, and whether every row
        got the same weights on a circle base (row shifts are then
        automorphisms)."""
        # one direction per mirror pair (di, +-dj): fibered_csr adds both signs
        halves = [(di, dj) for di, dj in neighborhood_offsets(self.spec.k)
                  if di >= 0 and dj >= 0]
        circle = self.space.base.is_circle
        directions = []
        base_invariant = circle
        for di, dj in halves:
            idx, w = self._direction_weights(di, dj)
            base_invariant = base_invariant and bool(np.all(w == w[0]))
            dst = (idx + di) % self.n_rows if circle else idx + di
            directions.append((idx, dst, dj, w))
        matrix, stencil = fibered_csr(self.n_rows, self.n_theta, directions)
        return matrix, stencil, base_invariant

    # -- queries --------------------------------------------------------

    def node_index(self, row: int, col: int) -> int:
        return row * self.n_theta + col

    def node_point(self, idx: int) -> SurfacePoint:
        row, col = divmod(int(idx), self.n_theta)
        return SurfacePoint(float(self.rows[row]), float(self.thetas[col]))

    def snap(self, p: SurfacePoint) -> Tuple[int, SurfacePoint, float]:
        """Nearest node to p: (node index, node point, metric snap cost)."""
        base = self.space.base
        r = float(base.wrap(p.r)) if base.is_circle else float(p.r)
        if not base.contains(r):
            raise HypothesisError(f"point r={p.r} outside the base interval")
        i = int(round((r - base.r_min) / self.hr))
        if base.is_circle:
            i %= self.n_rows
        else:
            i = min(max(i, 0), self.n_rows - 1)
        th = p.theta % self.space.fiber.circumference
        l = int(round(th / self.htheta)) % self.n_theta
        node = self.node_index(i, l)
        q = self.node_point(node)
        dr = base.signed_minor(p.r, q.r) if base.is_circle else (q.r - p.r)
        dth = self.space.fiber.signed_minor(p.theta, q.theta)
        cost = segment_length(self.space, float(p.r), dr, dth) \
            if (dr or dth) else 0.0
        return node, q, cost

    def path_between(self, src: int, dst: int) -> Tuple[float, PolylineCurve]:
        """Shortest path src -> dst as a polyline with wrap flags."""
        dist, chain = self.shortest_chain(src, dst)
        pts = [self.node_point(n) for n in chain]
        C = self.space.fiber.circumference
        L = self.space.base.length
        theta_wraps, r_wraps = [], []
        half_rows = self.n_rows // 2
        for a, b in zip(chain[:-1], chain[1:]):
            ra, ca = divmod(a, self.n_theta)
            rb, cb = divmod(b, self.n_theta)
            dj = cb - ca
            if dj > self.n_theta // 2:
                dj -= self.n_theta
            elif dj < -(self.n_theta // 2):
                dj += self.n_theta
            naive = self.thetas[cb] - self.thetas[ca]
            theta_wraps.append(int(round((dj * self.htheta - naive) / C)))
            if self.space.base.is_circle:
                di = rb - ra
                if di > half_rows:
                    di -= self.n_rows
                elif di < -half_rows:
                    di += self.n_rows
                naive_r = self.rows[rb] - self.rows[ra]
                r_wraps.append(int(round((di * self.hr - naive_r) / L)))
            else:
                r_wraps.append(0)
        return dist, PolylineCurve(pts, theta_wraps, r_wraps)


def grid_distance(space: WarpedSpace, p: SurfacePoint, q: SurfacePoint,
                  spec: GridSpec = GridSpec(),
                  graph: Optional[GridGraph] = None,
                  want_path: bool = True) -> GeodesicResult:
    """Grid-oracle distance between two surface points.

    Endpoints snap to the nearest grid nodes; the error estimate combines the
    two snap costs with the anisotropy bound for the chosen neighborhood.
    Without a path the value is read from the graph's orbit cache.
    """
    g = graph if graph is not None else GridGraph(space, spec)
    src, _ps, cost_p = g.snap(p)
    dst, _qs, cost_q = g.snap(q)
    if want_path:
        dist, path = g.path_between(src, dst)
    else:
        dist = g.pair_distances([(src, dst)])[0]
        path = None
    err = g.error_bound(dist, cost_p + cost_q)
    method = f"grid-{g.spec.n_r}x{g.spec.n_theta}-k{g.spec.k}"
    return GeodesicResult(dist, method, err, path)


# ---------------------------------------------------------------------------
# Closed forms and bounds
# ---------------------------------------------------------------------------


def flat_product_distance(base: BaseSpace, fiber: FiberSpace, level: float,
                          p: SurfacePoint, q: SurfacePoint) -> float:
    """Distance in the unwarped product with constant profile `level`:
    minimum over seam wraps of sqrt(dr^2 + level^2 dtheta^2)."""
    dr = base.distance(p.r, q.r)
    dth = fiber.distance(p.theta, q.theta)
    return math.hypot(dr, level * dth)


def level_set_distance(space: WarpedSpace, r0: float,
                       theta1: float, theta2: float) -> float:
    """Exact distance between two points on a level circle at a global
    minimum of the profile: f(r0) times the fiber arc distance.

    The minimality hypothesis is checked numerically to 1e-9.
    """
    f0 = float(space.warp_at(r0))
    if f0 > space.profile_min() + 1e-9:
        raise HypothesisError(
            "level_set_distance requires f(r0) to be the global profile minimum")
    return f0 * space.fiber.distance(theta1, theta2)


def taxi_upper_bound(space: WarpedSpace, p: SurfacePoint, q: SurfacePoint) -> float:
    """Upper bound: base distance plus (min profile between the levels) times
    the fiber arc distance.  On circle bases the minimum is over the minor
    arc joining the two levels."""
    base = space.base
    dth = space.fiber.distance(p.theta, q.theta)
    if base.is_circle:
        d = base.signed_minor(p.r, q.r)
        fmin = space.warp_min_on(p.r, p.r + d)
        dr = abs(d)
    else:
        for pt in (p, q):
            if not base.contains(pt.r):
                raise HypothesisError(f"point r={pt.r} outside the base interval")
        fmin = space.warp_min_on(p.r, q.r)
        dr = abs(q.r - p.r)
    return dr + fmin * dth


def ridge_bypass_bound(space: WarpedSpace, p: SurfacePoint, q: SurfacePoint,
                       r_hat: float) -> float:
    """Upper bound for two points on a common level r*: descend to the level
    r_hat, travel the fiber there, climb back: 2 d(r*, r_hat) + f(r_hat) dsigma."""
    if abs(p.r - q.r) > 1e-9:
        raise HypothesisError("ridge bypass requires both points on a common level")
    dth = space.fiber.distance(p.theta, q.theta)
    leg = space.base.distance(p.r, r_hat)
    return 2.0 * leg + float(space.warp_at(r_hat)) * dth


def ridge_bypass_improves(space: WarpedSpace, p: SurfacePoint, q: SurfacePoint,
                          r_hat: float) -> bool:
    """True when the bypass is strictly shorter than staying on the level:
    f(r_hat) < f(r*) - 2 d(r*, r_hat) / dsigma."""
    dth = space.fiber.distance(p.theta, q.theta)
    if dth == 0.0:
        return False
    leg = space.base.distance(p.r, r_hat)
    return float(space.warp_at(r_hat)) < float(space.warp_at(p.r)) - 2.0 * leg / dth


def cinch_limit_distance(depth: float, cinch_r: float, base: BaseSpace,
                         fiber: FiberSpace, p: SurfacePoint,
                         q: SurfacePoint) -> float:
    """Distance in the singular limit space that is a flat product everywhere
    except on one shrunk circle {r = cinch_r} whose fiber metric is scaled by
    `depth`.

    Routes either stay in the flat region (plain product distance) or visit
    the cheap circle: flat leg in, arc along the circle, flat leg out.  For a
    route using total fiber advance A split as alpha1 + arc + alpha2, the leg
    cost sqrt(a_i^2 + alpha_i^2) - depth*alpha_i is minimized at
    alpha_i = a_i * depth / sqrt(1 - depth^2), independently per leg, which
    collapses the inner minimization to a closed form.  When the two optimal
    leg advances no longer fit inside A the route degenerates to a two-leg
    path through a single circle point, never better than the flat route.
    Both fiber windings are tried.
    """
    if not (0.0 < depth <= 1.0):
        raise InvalidDescriptor("cinch depth must lie in (0, 1]")
    if not base.contains(cinch_r):
        raise HypothesisError("cinch level must lie inside the base")
    flat = flat_product_distance(base, fiber, 1.0, p, q)
    if depth == 1.0:
        return flat
    a1 = base.distance(p.r, cinch_r)
    a2 = base.distance(q.r, cinch_r)
    slope = math.sqrt(1.0 - depth * depth)
    legs = (a1 + a2) * slope
    feasible_above = (a1 + a2) * depth / slope
    minor = fiber.distance(p.theta, q.theta)
    best = flat
    for advance in (minor, fiber.circumference - minor):
        if feasible_above <= advance:
            best = min(best, depth * advance + legs)
    return best


def _three_segment_candidate(space: WarpedSpace, p: SurfacePoint, q: SurfacePoint,
                             dtheta_abs: float) -> Tuple[float, float]:
    """Best descend/traverse/climb path cost min over the traverse level:
    |r_p - r^| + |r_q - r^| + f(r^) dtheta.  Returns (cost, level)."""
    base = space.base

    def g(r_hat: float) -> float:
        return (base.distance(p.r, r_hat) + base.distance(q.r, r_hat)
                + float(space.warp_at(r_hat)) * dtheta_abs)

    lo, hi = base.r_min, base.r_max
    cuts = np.unique(np.concatenate(
        ([lo, hi, min(max(p.r, lo), hi), min(max(q.r, lo), hi)],
         space.profile.breakpoints_in(lo, hi))))
    best_v, best_r = math.inf, p.r
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < 1e-14:
            continue
        x1, x2 = b - phi * (b - a), a + phi * (b - a)
        f1, f2 = g(x1), g(x2)
        for _ in range(60):
            if f1 < f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - phi * (b - a)
                f1 = g(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + phi * (b - a)
                f2 = g(x2)
            if b - a < 1e-12:
                break
        for x in (a, b, 0.5 * (a + b)):
            v = g(x)
            if v < best_v:
                best_v, best_r = v, x
    return best_v, best_r


# ---------------------------------------------------------------------------
# Clairaut shooting
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _leg_integrals(space: WarpedSpace, c: float, r_from: float, r_to: float,
                   turning_at_from: bool = False) -> Tuple[float, float]:
    """Fiber advance and arc length of a monotone-in-r geodesic leg with
    conserved quantity c:

        theta advance = int c / (f^2 sqrt(1 - c^2/f^2)) dr,
        length        = int 1 / sqrt(1 - c^2/f^2) dr.

    Composite Gauss-Legendre with pieces cut at profile breakpoints; a
    turning point at r_from (where f = |c|) is removed by substituting
    r = r_from +- u^2.
    """
    if r_to == r_from:
        return 0.0, 0.0
    sgn = 1.0 if r_to > r_from else -1.0
    lo, hi = (r_from, r_to) if sgn > 0 else (r_to, r_from)
    bps = space.breakpoints_unwrapped(lo, hi)

    if turning_at_from:
        # integrate in u with r = r_from + sgn*u^2
        u_edges = np.sqrt(np.abs(np.concatenate(([lo, hi], bps)) - r_from))
        edges = np.unique(u_edges)
    else:
        edges = np.unique(np.concatenate(([lo, hi], bps)))

    # subdivide each piece, more finely when c is near the minimum of f
    sub = 6
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 0:
            continue
        grid = np.linspace(a, b, sub + 1)
        mid = 0.5 * (grid[:-1] + grid[1:])
        half = 0.5 * np.diff(grid)
        xs.append((mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel())
        ws.append((half[:, None] * _GL_WEIGHTS[None, :]).ravel())
    x = np.concatenate(xs)
    w = np.concatenate(ws)

    if turning_at_from:
        r = r_from + sgn * x * x
        jac = 2.0 * x
    else:
        r = x
        jac = 1.0
    f = np.asarray(space.warp_at(r), dtype=float)
    v = 1.0 - (c / f) ** 2
    if np.any(v <= 0.0):
        # the warp drops to (or below) the conserved level inside the leg:
        # not a valid monotone leg for this c
        return math.nan, math.nan
    inv = 1.0 / np.sqrt(v)
    # both integrals run over the swept r-range with the positive measure
    # dt = dr/|r'|; the fiber advance carries the sign of c
    theta = float(np.sum(w * jac * c / (f * f) * inv))
    length = float(np.sum(w * jac * inv))
    return theta, length


def _shoot_monotone(space, r_p, r_q, target, tol, max_iter):
    """Find c so the monotone leg r_p -> r_q advances |target| in the fiber.
    Returns (length, c, residual) or None when the leg cannot reach it."""
    if r_q == r_p or target == 0.0:
        return None
    lo, hi = min(r_p, r_q), max(r_p, r_q)
    c_sup = space.warp_min_on(lo, hi)
    want = abs(target)

    def advance(c):
        th, ln = _leg_integrals(space, c, r_p, r_q)
        return abs(th), ln

    c_hi = c_sup * (1.0 - 1e-10)
    a_hi, _ = advance(c_hi)
    if not math.isfinite(a_hi) or a_hi < want:
        return None
    c_lo = 0.0
    best = None  # (resid, c, adv, length)
    for _ in range(max_iter):
        c_mid = 0.5 * (c_lo + c_hi)
        a_mid, l_mid = advance(c_mid)
        if best is None or abs(a_mid - want) < best[0]:
            best = (abs(a_mid - want), c_mid, a_mid, l_mid)
        if a_mid < want:
            c_lo = c_mid
        else:
            c_hi = c_mid
        if c_hi - c_lo < 1e-15 or abs(a_mid - want) < 0.1 * tol:
            break
    if best is None:
        return None
    resid, c, _adv, ln = best
    return ln, math.copysign(c, target), resid


def _one_turn_scan_range(base: BaseSpace, side: int, m_lo: float, m_hi: float):
    if side < 0:
        t_a = m_hi - base.length if base.is_circle else base.r_min
        t_b = m_lo
    else:
        t_a = m_hi
        t_b = m_lo + base.length if base.is_circle else base.r_max
    return t_a, t_b


def _shoot_one_turn(space, r_p, r_q, target, side, tol, max_iter,
                    prune_above=math.inf, accept=1e-7):
    """Geodesic running past both endpoints to a turning level and back:
    r goes r_p -> t -> r_q with f(t) = |c| (branch switch at the turn).

    side=-1 turns below min(r_p, r_q); side=+1 above max(r_p, r_q).  The
    turning level is scanned (with extra samples around profile
    breakpoints, since valid turning windows can be narrower than a
    uniform grid step), then refined by bisection on the fiber advance.
    Only a shot whose advance matches the target within `accept` is
    returned.  Returns (length, c, residual) or None.
    """
    if target == 0.0:
        return None
    want = abs(target)
    base = space.base
    m_lo, m_hi = min(r_p, r_q), max(r_p, r_q)
    t_a, t_b = _one_turn_scan_range(base, side, m_lo, m_hi)
    if t_b - t_a < 1e-9:
        return None
    # cheapest conceivable base travel through this side
    nearest_turn = t_b if side < 0 else t_a
    lower = abs(r_p - nearest_turn) + abs(r_q - nearest_turn)
    if lower >= prune_above:
        return None

    far = m_hi if side < 0 else m_lo

    def advance(t):
        c = float(space.warp_at(t))
        interior_min = space.warp_min_on(t, far)
        if interior_min < c - 1e-12:
            return None  # profile dips below the turning level on the way
        th1, l1 = _leg_integrals(space, c, t, r_p, turning_at_from=True)
        th2, l2 = _leg_integrals(space, c, t, r_q, turning_at_from=True)
        adv = abs(th1) + abs(th2)
        if not math.isfinite(adv):
            return None
        return adv, l1 + l2, c

    lo_s, hi_s = t_a + 1e-9, t_b - 1e-9
    pts = set(np.linspace(lo_s, hi_s, 33).tolist())
    bps = space.breakpoints_unwrapped(t_a, t_b)
    if bps.size <= 64:
        anchors = sorted({t_a, t_b, *bps.tolist()})
        for u, v in zip(anchors[:-1], anchors[1:]):
            pts.add(min(max(0.5 * (u + v), lo_s), hi_s))
            for x in (u + 1e-7, v - 1e-7):
                if lo_s <= x <= hi_s:
                    pts.add(x)
    ts = sorted(pts)
    vals = [advance(t) for t in ts]

    # densify gaps where validity flips: a narrow turning window may hold
    # the whole bracket between two coarse samples
    extra_ts, extra_vals = [], []
    for i in range(len(ts) - 1):
        if (vals[i] is None) == (vals[i + 1] is None):
            continue
        fine = np.linspace(ts[i], ts[i + 1], 18)[1:-1]
        for t in fine:
            extra_ts.append(float(t))
            extra_vals.append(advance(float(t)))
    if extra_ts:
        order = np.argsort(np.concatenate([ts, extra_ts]))
        allv = vals + extra_vals
        allt = ts + extra_ts
        ts = [allt[i] for i in order]
        vals = [allv[i] for i in order]

    best = None
    for i in range(len(ts) - 1):
        va, vb = vals[i], vals[i + 1]
        if va is None or vb is None:
            continue
        a, b = va[0], vb[0]
        if (a - want) * (b - want) > 0:
            continue
        t_lo, t_hi, f_lo = ts[i], ts[i + 1], a
        out = va if abs(a - want) < abs(b - want) else vb
        for _ in range(max_iter):
            t_mid = 0.5 * (t_lo + t_hi)
            mid = advance(t_mid)
            if mid is None:
                break
            if abs(mid[0] - want) < abs(out[0] - want):
                out = mid  # quadrature noise makes the last iterate unreliable
            if (f_lo - want) * (mid[0] - want) <= 0:
                t_hi = t_mid
            else:
                t_lo, f_lo = t_mid, mid[0]
            if t_hi - t_lo < 1e-14 or abs(mid[0] - want) < 0.1 * tol:
                break
        adv, length, c = out
        resid = abs(adv - want)
        if resid > accept:
            continue  # bisection did not actually hit the target advance
        if best is None or length < best[0]:
            best = (length, c, resid)
    return best


def clairaut_distance(space: WarpedSpace, p: SurfacePoint, q: SurfacePoint,
                      tol: float = 1e-9, max_iter: int = 60,
                      max_winding: int = 2) -> GeodesicResult:
    """Distance by Clairaut geodesic shooting.

    Shoots monotone-in-r geodesics (bisection on the conserved quantity c),
    geodesics with one turning point (branch switching where f(r) = |c|),
    and descend/traverse/climb candidates through profile minima; minimizes
    over fiber winding numbers -max_winding..max_winding and, on circle
    bases, both ways around the base.  When no shot matched its target fiber
    advance within tolerance and a closed-form candidate won instead, the
    result is still exact for that candidate; converged=False marks the case
    where the best value's residual exceeded tolerance.
    """
    base, fiber = space.base, space.fiber
    C = fiber.circumference
    dth0 = fiber.signed_minor(p.theta, q.theta)

    routes = []
    if base.is_circle:
        d = base.signed_minor(p.r, q.r)
        routes.append(d)
        if d != 0.0:
            routes.append(d - math.copysign(base.length, d))
    else:
        routes.append(q.r - p.r)

    fmin_glob = space.profile_min()
    # near-degenerate turning legs carry quadrature noise around 1e-6
    # relative, so residuals cannot be pushed to raw tol there
    def accept_for(target):
        return max(10.0 * tol, 1e-6 * (1.0 + abs(target)))

    # no curve can beat the flat product metric at the minimum warp level
    floor = math.hypot(base.distance(p.r, q.r),
                       fmin_glob * fiber.distance(p.theta, q.theta))
    candidates: List[Tuple[float, float, str]] = []  # (length, residual, kind)

    # straight segment in parameter space: a genuine curve, so always a
    # valid upper bound; keeps degenerate pairs (wrapped-equal r, nearly
    # coincident points) from losing every direct candidate to rounding
    candidates.append((segment_length(space, p.r, routes[0], dth0,
                                      points_per_piece=16),
                       0.0, "param-line"))

    def best_len():
        return min((c[0] for c in candidates), default=math.inf)

    windings = sorted(range(-max_winding, max_winding + 1), key=abs)
    for w in windings:
        target = dth0 + w * C
        accept = accept_for(target)
        # any path with this fiber advance costs at least f_min * |advance|
        if fmin_glob * abs(target) >= best_len():
            continue
        if p.r == q.r:
            candidates.append((float(space.warp_at(p.r)) * abs(target),
                               0.0, "fiber-level"))
        if target != 0.0:
            cost, _lvl = _three_segment_candidate(space, p, q, abs(target))
            candidates.append((cost, 0.0, "three-segment"))
        for droute in routes:
            if target == 0.0:
                if droute != 0.0:
                    candidates.append((abs(droute), 0.0, "base-line"))
                continue
            if droute != 0.0:
                out = _shoot_monotone(space, p.r, p.r + droute, target,
                                      tol, max_iter)
                if out is not None and out[2] <= accept:
                    candidates.append((out[0], out[2], "monotone"))
        for side in (-1, +1):
            if target == 0.0:
                continue
            out = _shoot_one_turn(space, p.r, q.r, target, side, tol,
                                  max_iter, prune_above=best_len(),
                                  accept=accept)
            if out is not None:
                candidates.append((out[0], out[2], "one-turn"))

    # shooting accuracy can undershoot true lengths by a few 1e-6 at worst,
    # so the impossibility filter needs matching slack
    margin = 1e-5 * (1.0 + floor)
    candidates = [c for c in candidates if c[0] >= floor - margin]
    if not candidates:
        raise RuntimeError("no geodesic candidate produced")
    candidates.sort(key=lambda t: (t[0], t[2]))
    best_length, best_resid, kind = candidates[0]
    converged = best_resid <= accept_for(best_length)
    return GeodesicResult(best_length, f"clairaut-{kind}",
                          max(best_resid, tol), None, converged)
