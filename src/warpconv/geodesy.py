"""Distances on warped-product surfaces.

Two routes to the same quantity:

* a weighted-graph oracle on a regular (r, theta) grid (Dijkstra over a
  k-neighborhood with quadrature edge weights, run by the C kernel of
  `_sweep.c`, a bucket queue with lazy deletion, on the per-row stencil; one
  row is swept per orbit of the graph's symmetries, the fiber's rolls and
  mirror and, where the weights bear them out bit for bit, base
  translations or the base mirror r -> -r, whose rows pair up as
  {i, mirror[i]}; the sweeps of several rows are mapped over a thread pool
  of at most one thread per usable CPU),
* closed forms (level-set, flat product, the cinch limit).

The test suite checks the grid against the closed forms and, on warped
profiles, brackets it between the flat floor of every curve and the lengths
of explicit curves.  The monotone Clairaut shot at the end, with conserved
quantity c = f(r)^2 theta', gives the turning-rate audit its geodesic; it is
not a distance route.

The grid oracle's error estimate is the direction-anisotropy term alone:
probe endpoints snap to grid nodes and the limit metric is evaluated at the
snapped nodes, so no snap term enters.  The constants below are worst-case
ratios of the best k-neighborhood polyline to the straight segment in a flat
metric and are pinned against a brute-force direction sweep in the test
suite.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._sweep import INITIAL_POOL, sweep as _kernel_sweep
from .core import (
    BaseSpace,
    FiberSpace,
    HypothesisError,
    InvalidDescriptor,
    SurfacePoint,
    WarpedSpace,
    float_or_array,
    segment_length,
    sorted_distinct,
)

# Verified worst-case relative excess of grid paths over straight segments
# for Chebyshev-k neighborhoods with co-prime offsets (flat metric, unit
# aspect).  Exact values are 1/cos(pi/8)-1, 1/cos(atan(1/2)/2)-1,
# 1/cos(atan(1/3)/2)-1; these are rounded up at the 4th decimal.  Warped
# spaces need the aspect-aware stencil_anisotropy below, which reduces to
# these numbers at aspect 1.
ANISOTROPY_BOUND = {1: 0.0824, 2: 0.0275, 3: 0.0131}

# Surface grid node cap.  A sweep runs on the graph folded by the fiber
# mirror, fiber positions 0..m//2, at most 5/8 of the nodes since m >= 8:
# 2**25 nodes keep the sweep kernel's int32 node numbers far below 2**31,
# and each swept row (8 bytes per folded node) at 160 MiB.
MAX_NODES_2D = 2 ** 25


@functools.lru_cache
def stencil_anisotropy(k: int, aspect_lo: float, aspect_hi: float) -> float:
    """Worst-case relative overestimate of the k-neighborhood grid metric.

    After rescaling the fiber axis by the local warp value, every stencil
    step is a unit-cost unit vector, so the grid metric's unit ball at a
    point is the polygon spanned by the step directions and the worst
    direction sits in the widest angular wedge: ratio = 1/cos(gap/2).  The
    wedges depend on the local aspect a = f * (fiber step / base step);
    this returns the max over the whole aspect range (sampled densely on a
    log grid, with a small safety margin for the sampling).  Memoized: a
    run asks for the same few ranges once per graph.
    """
    if not (0 < aspect_lo <= aspect_hi) or not math.isfinite(aspect_hi):
        raise ValueError("aspect range must be positive and finite")
    offs = neighborhood_offsets(k)
    lo, hi = math.log(aspect_lo), math.log(aspect_hi)
    samples = np.exp(np.linspace(lo, hi, 257)) if hi > lo else [aspect_lo]
    worst = 0.0
    for a in samples:
        angles = sorted_distinct([math.atan2(a * abs(dj), abs(di))
                                  for di, dj in offs])
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

    Base cell c's edges are the slots start[c] .. start[c + 1] - 1, packed
    cell after cell: slot s joins node (c, z) to (target[s], (z + step[s])
    % m) at weight[s], for every fiber position z.  No cell has two slots
    with the same (target, step).  Edges are stored both ways, so the slots
    of a node are its in-neighbours as well.  start, target and step are
    int32, weight float64: the arrays the sweep kernel reads.
    """

    m: int
    start: np.ndarray
    target: np.ndarray
    step: np.ndarray
    weight: np.ndarray


def _usable_cpus() -> int:
    """How many CPUs this process may run on; os.cpu_count() where the
    platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _is_translation(shape: Tuple[int, ...], src, dst, weights) -> bool:
    """Whether one stencil direction over the wrapped lattice of `shape` is
    a translation: its sources are every cell once, its targets are the
    sources moved by one fixed lattice offset, and its weights are equal."""
    src, dst, weights = np.broadcast_arrays(src, dst, weights)
    n_cells = math.prod(shape)
    if src.size != n_cells or np.any(np.bincount(src.ravel(),
                                                 minlength=n_cells) != 1):
        return False
    moved = np.mod(np.subtract(np.unravel_index(dst.ravel(), shape),
                               np.unravel_index(src.ravel(), shape)),
                   np.reshape(shape, (-1, 1)))
    return bool(np.all(moved == moved[:, :1])
                and np.all(weights == weights.flat[0]))


def _is_mirrored(mirror: np.ndarray, src, dst, weights) -> bool:
    """Whether one stencil direction maps onto itself under the involution
    `mirror` of base cells: the image {mirror[c], mirror[d]} of each of its
    edges {c, d} is one of its edges, with a bitwise equal weight.  An edge
    stands for both fiber signs, so its orientation does not matter."""
    src, dst, weights = (a.ravel() for a in np.broadcast_arrays(src, dst, weights))

    def by_edge(a, b):
        key = np.minimum(a, b) * mirror.size + np.maximum(a, b)
        order = np.argsort(key, kind="stable")
        return key[order], weights[order]

    key, w = by_edge(src, dst)
    image, w_image = by_edge(mirror[src], mirror[dst])
    return bool(np.array_equal(key, image) and np.array_equal(w, w_image))


def _sweep_cell(stencil: FiberStencil, cell: int, row: np.ndarray) -> None:
    """Fill `row` with the folded sweep from node (cell, 0): the C kernel
    of `_sweep.c`, run without the GIL.  Raises MemoryError when the
    kernel cannot allocate its queue; `row` is then incomplete."""
    m, start, target, step, weight = stencil
    if _kernel_sweep(len(start) - 1, m, start, target, step, weight, cell,
                     row, INITIAL_POOL):
        raise MemoryError(f"the sweep from cell {cell} could not allocate "
                          "its bucket queue")


class OrbitSweepCache:
    """Node-pair distances on a fibered grid graph from one cached sweep per
    source orbit.

    Node cell * m + z sits over base cell `cell` at fiber position z.  Rolls
    of the fiber map the graph onto itself, and so does the mirror
    z -> -z (mod m), because every edge weight is even in the fiber step;
    a graph whose built weights are invariant under base translations or a
    base mirror too has more such maps.  Distances are then invariant:
    d(a, b) = d(T a, T b), and a sweep from a node at z = 0, which the
    fiber mirror fixes, is mirror symmetric.  So each sweep runs on the
    quotient of the graph by the fiber mirror (fiber positions 0..m//2, see
    `fibered_stencil`) from a (cell, 0) node, and d(a, b) is read from the
    folded sweep of a's orbit representative.

    A subclass passes `axes`, one (node coordinate array, step, period or
    None) per axis, base axes first and the periodic fiber last, which give
    the base shape (cells in C order), m and whether the lattice wraps
    (every base axis periodic); its `fibered_stencil` directions; and,
    optionally, a base mirror: an involution of the base cells, given as
    the array of each cell's image.  `node_index`, `node_point` and `snap`
    map node ids to points of the subclass's `point_type` and back, on ints
    or arrays.  `base_invariant` is set when the lattice wraps and every
    direction is one translation of it (`_is_translation`): every
    translation is then an automorphism, so cell 0 represents every source.
    Otherwise `base_mirror` keeps the mirror when the built stencil is
    bitwise invariant under it, every direction mapping each of its edges
    onto one of its edges of equal weight (`_is_mirrored`); it is None when
    there is no mirror or the weights do not bear it out.  (cell, z) ->
    (mirror[cell], z) is then an automorphism, so a source's orbit is
    represented by the smaller of its cell and the cell's image, and one
    cell of each mirror pair is swept.  The graph keeps no swept row: a row
    lives only while its sweep runs, and `pair_distances` keeps just the
    entries its pairs read, so a caller reads each graph once, with all of
    its pairs.

    Every sweep goes through `distances_from`, which runs the C kernel of
    `_sweep.c` on the stencil itself; a call with several cells maps them
    over a thread pool of at most one thread per usable CPU.  No edge list
    or sparse matrix is built.  Each sweeping thread holds one row of 8
    bytes per folded node while the call runs, and, while a sweep runs, the
    kernel's queue, a pool of 16-byte entries as large as the most entries
    queued at once (thousands on a 1024^2 grid), and its 4-byte offset per
    stencil slot (416 KiB on the 64^3 lattice, 64 KiB on a 1024^2 grid).
    """

    def __init__(self, axes, directions, mirror: Optional[Sequence[int]] = None):
        self._axes = list(axes)
        if self._axes[-1][2] is None:
            raise ValueError("the fiber axis must be periodic")
        self._shape = tuple(len(nodes) for nodes, _, _ in self._axes)
        *base_shape, m = self._shape
        n_cells = math.prod(base_shape)
        self.n_nodes = n_cells * m
        directions = list(directions)
        self._stencil = fibered_stencil(n_cells, m, directions)
        wraps = all(period is not None for _, _, period in self._axes[:-1])
        self.base_invariant = wraps and all(
            _is_translation(self._shape[:-1], src, dst, w)
            for src, dst, _, w in directions)
        self.base_mirror = None
        if mirror is not None:
            mirror = np.asarray(mirror, dtype=np.int64)
            cells = np.arange(n_cells)
            if mirror.shape != cells.shape or np.any(
                    (mirror < 0) | (mirror >= n_cells)) or np.any(
                    mirror[mirror] != cells):
                raise ValueError("a base mirror must be an involution of the "
                                 f"{n_cells} base cells")
            if not self.base_invariant and all(
                    _is_mirrored(mirror, src, dst, w)
                    for src, dst, _, w in directions):
                self.base_mirror = mirror

    def node_index(self, *ids):
        """The node at one id per axis: an int, or an int array for arrays."""
        node = np.ravel_multi_index(ids, self._shape)
        return node if node.ndim else int(node)

    def node_point(self, idx):
        """The point of node idx: float coordinates, or arrays for arrays."""
        ids = np.unravel_index(idx, self._shape)
        return self.point_type(*(float_or_array(nodes[i])
                                 for (nodes, _, _), i in zip(self._axes, ids)))

    def contains(self, p):
        """Whether each point lies in the graph's domain: every one does."""
        return True

    def snap(self, p):
        """Nearest nodes to p, float or array coordinates: (node index, node
        point).  An axis of n nodes from lo takes id rint(((c - lo) % period
        + lo - lo) / step) % n if periodic, else rint((c - lo) / step)
        clamped to [0, n).  Non-finite c raises ValueError, a point off
        `contains` HypothesisError."""
        coords = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in p))
        if not all(np.all(np.isfinite(c)) for c in coords):
            raise ValueError("cannot snap a non-finite coordinate")
        if not np.all(self.contains(p)):
            raise HypothesisError("a point lies outside the graph's domain")
        ids = []
        for c, (nodes, step, period) in zip(coords, self._axes):
            lo = nodes[0]
            if period is None:
                i = np.clip(np.rint((c - lo) / step), 0, nodes.size - 1)
            else:
                i = np.rint(((c - lo) % period + lo - lo) / step)
            ids.append(i.astype(np.int64) % nodes.size)
        node = self.node_index(*ids)
        return node, self.node_point(node)

    def distances_from(self, cells: Sequence[int],
                       columns: Optional[Sequence[int]] = None) -> np.ndarray:
        """Sweeps of the folded graph from node (cell, 0) of each base cell,
        read at `columns`: shape (len(cells), len(columns)), entry (i, k)
        holding the distance from cells[i]'s node to the folded node at
        column columns[k], where node (c, z) sits at column
        c * (m//2 + 1) + z.  With no columns the table holds every folded
        node, n_cells * (m//2 + 1) columns.  Every call sweeps.

        Each sweep is one call of the C kernel (`_sweep_cell`): Dial's
        buckets with lazy deletion, which read the stencil's packed slots
        directly and write one row of distances, 8 bytes per folded node.
        The kernel's queue is a pool of entries sized by the most entries
        queued at once, not by the node count, and is freed when the sweep
        returns.  Each thread that sweeps allocates its row buffer when it
        takes its first cell and reuses it for every later one, and a sweep
        copies only its row's `columns` into the table.  So a call holds at
        most one row and one queue pool per thread beside the table, and
        none of them outlives it.  A call with several cells, where the
        process may run on several CPUs, maps them over a
        `ThreadPoolExecutor` of min(len(cells), usable CPUs) threads, which
        take the next cell whenever they have finished one, so a thread on
        a busy CPU sweeps fewer.  The kernel releases the GIL, so the
        threads sweep at once, and every row is computed alone, so the
        table does not depend on the thread count.  When a sweep fails,
        the error of the first failing cell in call order is raised here
        once the threads have stopped; cells already queued may still
        finish, and no table is returned.
        """
        n_cells = len(self._stencil.start) - 1
        n_nodes = n_cells * (self._stencil.m // 2 + 1)
        cells = np.asarray(cells, dtype=np.int64).reshape(-1)
        if np.any((cells < 0) | (cells >= n_cells)):
            raise IndexError(f"base cells must lie in [0, {n_cells})")
        columns = np.arange(n_nodes) if columns is None else \
            np.asarray(columns, dtype=np.int64).reshape(-1)
        if np.any((columns < 0) | (columns >= n_nodes)):
            raise IndexError(f"folded columns must lie in [0, {n_nodes})")
        table = np.empty((len(cells), len(columns)))
        buffers = threading.local()  # each sweeping thread's own row

        def sweep(i: int) -> None:
            if not hasattr(buffers, "row"):
                buffers.row = np.empty(n_nodes)
            _sweep_cell(self._stencil, int(cells[i]), buffers.row)
            np.take(buffers.row, columns, out=table[i])

        workers = min(len(cells), _usable_cpus())
        if workers < 2:
            for i in range(len(cells)):
                sweep(i)
        else:
            with ThreadPoolExecutor(workers) as pool:
                list(pool.map(sweep, range(len(cells))))
        return table

    def _orbit(self, a: np.ndarray, b: np.ndarray):
        """Representative cells of the a's orbits, and the b's cells and
        fiber offsets, folded by the mirror z -> -z onto [0, m//2], under
        the maps taking each a to (rep, 0)."""
        m = self._stencil.m
        cell_a, cell_b = a // m, b // m
        if self.base_invariant:
            shape = self._shape[:-1]
            moved = np.subtract(np.unravel_index(cell_b, shape),
                                np.unravel_index(cell_a, shape))
            cell_a = np.zeros_like(cell_a)
            cell_b = np.ravel_multi_index(moved, shape, mode="wrap")
        elif self.base_mirror is not None:
            flip = self.base_mirror[cell_a] < cell_a
            cell_a = np.where(flip, self.base_mirror[cell_a], cell_a)
            cell_b = np.where(flip, self.base_mirror[cell_b], cell_b)
        z = np.mod(b - a, m)
        return cell_a, cell_b, np.minimum(z, m - z)

    def pair_distances(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """Distances between (source node, target node) pairs: one
        `distances_from` call, one sweep per distinct source orbit, read at
        the distinct folded columns the pairs need.  An orbit is a source
        cell's under the fiber's rolls and mirror, and also under every
        base translation (`base_invariant`) or under the base mirror
        (`base_mirror`), whose pairs {cell, mirror[cell]} share the sweep
        of the smaller cell, the target moved through the mirror with it."""
        a, b = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        if a.size == 0:
            return []
        reps, cells, z = self._orbit(a, b)
        reps, row = _distinct(reps)
        columns, col = _distinct(cells * (self._stencil.m // 2 + 1) + z)
        return self.distances_from(reps, columns=columns)[row, col].tolist()

    def error_bound(self, distance: float) -> float:
        """Error bar of a grid distance between nodes: the anisotropy term."""
        return self.aniso_bound * distance + 1e-9


def _distinct(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of an int array, ascending, and the index of each
    value among them."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.ones(ordered.shape, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    index = np.empty_like(order)
    index[order] = np.cumsum(new) - 1
    return ordered[new], index


def fibered_stencil(n_cells: int, m: int, directions) -> FiberStencil:
    """Per-cell stencil of a base lattice times a periodic fiber.

    Node cell * m + z of the full graph sits over base cell `cell` at fiber
    position z.  Each stencil direction is one (src, dst, dz, weights) tuple
    of arrays over base cells and stands for both fiber signs: for every z
    and s = dz, -dz, node (src[e], z) joins node (dst[e], (z + s) % m) at
    weight weights[e], and the edge is stored both ways, one slot per
    orientation and sign; an edge within a cell (src == dst) is its own
    reverse and gets one slot per sign.  A cell may start at most one edge
    per direction and end at most one, and no two directions may give a
    cell the same (target, step).  The slots are written straight into the
    packed arrays, cell after cell and in direction order within a cell,
    so the build holds no array larger than the stencil.

    Every weight is thus even in the fiber step, so the mirror z -> -z
    (mod m) maps the graph onto itself and fixes z = 0.  Sweeps run on the
    quotient by the mirror: node cell * h + z for z in [0, h),
    h = m // 2 + 1, each target folded to min(z, m - z).  A sweep on it
    from (cell, 0) gives the full graph's distances bit for bit, because
    those are mirror symmetric and, with positive weights,
    d(v) = min_u fl(d(u) + w(u, v)) has one solution.  No array over the
    fiber is built.  Raises ValueError on steps the kernel cannot fold
    (|dz| >= m), on cells outside [0, n_cells), on a cell starting or
    ending two edges of one direction, on a direction holding an edge and
    its reverse (c -> d and d -> c: one cell would get two slots with one
    (target, step)) and on weights that are not positive, and
    GridSizeError when the fiber length or the folded nodes overflow
    int32.
    """
    if n_cells * (m // 2 + 1) >= 2 ** 31 or m >= 2 ** 31:
        raise GridSizeError(f"{n_cells} cells x {m // 2 + 1} folded fiber "
                            "positions overflow the sweep kernel's int32 nodes")
    columns = []  # (cells, targets, step, weights, entries kept) per slot
    for src, dst, dz, w in directions:
        if abs(dz) >= m:
            raise ValueError(f"fiber step {dz} does not fit a fiber of {m}")
        src, dst, w = np.broadcast_arrays(np.asarray(src, dtype=np.int64),
                                          np.asarray(dst, dtype=np.int64),
                                          np.asarray(w, dtype=float))
        if np.any((src < 0) | (src >= n_cells) | (dst < 0) | (dst >= n_cells)):
            raise ValueError(f"stencil cells must lie in [0, {n_cells})")
        if not np.all(w > 0):
            raise ValueError("stencil weights must be positive")
        apart = src != dst
        ahead = np.full(n_cells, -1)
        ahead[src] = dst
        if np.any(ahead[dst[apart]] == src[apart]):
            # edges c -> d and d -> c: each one's reverse slots repeat the
            # other's forward ones
            raise ValueError("a direction may not hold an edge and its reverse")
        for s in ((dz, -dz) if dz else (0,)):
            columns += [(src, dst, s, w, slice(None)), (dst, src, -s, w, apart)]
    counts = np.zeros(n_cells, dtype=np.int64)
    for cells, _, _, _, keep in columns:
        per_cell = np.bincount(cells[keep], minlength=n_cells)
        if per_cell.max(initial=0) > 1:
            raise ValueError("a cell may start at most one edge and end at "
                             "most one per direction")
        counts += per_cell
    start = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    target = np.empty(start[-1], dtype=np.int32)
    step = np.empty_like(target)
    weight = np.empty(start[-1])
    free = start[:-1].astype(np.int64)
    for cells, to, s, w, keep in columns:
        cells = cells[keep]
        at = free[cells]
        target[at], step[at], weight[at] = to[keep], s, w[keep]
        free[cells] += 1
    return FiberStencil(m, start, target, step, weight)


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


# ---------------------------------------------------------------------------
# Grid oracle
# ---------------------------------------------------------------------------


class GridGraph(OrbitSweepCache):
    """Weighted graph over an (r, theta) grid of a warped surface.

    Nodes sit at r = r_min + i*hr (i rows; circle bases wrap, interval bases
    include both endpoints) and theta = l*htheta.  Edges join nodes within
    Chebyshev radius k using co-prime offsets only; each edge weight is the
    `segment_length` of the straight parameter-space segment, the 4-point
    midpoint rule with forced splits at the profile's breakpoints.  Weights
    are computed once per undirected edge and its mirror image (di, -dj),
    so the graph is bitwise symmetric and its weights are even in the theta
    step.

    The base mirror r -> -r takes row i to row (n_r - i) mod n_r on a
    circle base and to row n_r - i on an interval base symmetric about 0
    (`_row_mirror`), and the edge from row i in direction (di, dj) to the
    one from row mirror[i + di].  Where the profile is even and marks
    itself so (`WarpingProfile.mirror_weights`), each such pair of edges
    takes the weight of its canonical edge, the one from the smaller start
    row: bit for bit what a scalar call from the canonical start row gives
    while the base holds no more bumps than `breakpoints_in` refines.  The
    graph is then exactly mirror symmetric, and `OrbitSweepCache` sweeps
    one row of each mirror pair.  Every other profile's weights are, bit
    for bit, a scalar call from the edge's own start row.

    Weights depend on the start row only: `_direction_weights` gives one
    weight per row and direction, and `_directions` hands them to
    `OrbitSweepCache` with the rows as the base axis, periodic on a circle
    base, and theta as the fiber axis.  Sweeps run on the graph folded by
    the mirror theta -> -theta, columns 0..n_theta//2 of every row, about
    half the nodes.  Grids over MAX_NODES_2D nodes raise GridSizeError
    before anything is allocated.  Rolling the fiber is a graph automorphism, so
    one sweep per source row, run on the folded graph from the row's
    column 0, answers every pair of a `pair_distances` call; one sweep per
    mirror pair of source rows does on mirrored weights, and one sweep
    answers all when the weights are also equal across rows of a circle
    base.  No swept row is kept on the graph.  Sweeps of several rows are
    mapped over a thread pool (see `OrbitSweepCache.distances_from`).
    """

    point_type = SurfacePoint

    def __init__(self, space: WarpedSpace, spec: GridSpec = GridSpec()):
        self.space = space
        self.spec = spec
        base, fiber = space.base, space.fiber
        self.hr = base.length / spec.n_r
        self.htheta = fiber.circumference / spec.n_theta
        self.n_rows = spec.n_r if base.is_circle else spec.n_r + 1
        self.n_theta = spec.n_theta
        if self.n_rows * self.n_theta > MAX_NODES_2D:
            raise GridSizeError(
                f"surface grid of {self.n_rows * self.n_theta} nodes exceeds "
                f"the {MAX_NODES_2D} node memory guard")
        self.rows = base.r_min + self.hr * np.arange(self.n_rows)
        ratio = self.htheta / self.hr
        self.aniso_bound = stencil_anisotropy(
            spec.k, space.profile_min() * ratio, space.profile_max() * ratio)
        super().__init__([(self.rows, self.hr, base.length if base.is_circle else None),
                          (self.htheta * np.arange(self.n_theta), self.htheta,
                           fiber.circumference)], self._directions(), self._row_mirror())

    # -- construction -------------------------------------------------

    def _row_mirror(self) -> Optional[np.ndarray]:
        """Each row's image under r -> -r when the profile builds mirrored
        weights and the base is a circle or an interval symmetric about 0;
        None otherwise."""
        base = self.space.base
        if not self.space.profile.mirror_weights:
            return None
        rows = np.arange(self.n_rows)
        if base.is_circle:
            return -rows % self.n_rows
        return self.n_rows - 1 - rows if base.r_min == -base.r_max else None

    def _direction_weights(self, di: int, dj: int) -> Tuple[np.ndarray, np.ndarray]:
        """Edge weights for one offset direction, per start row.

        Returns (start_row_indices, weights): the rows whose edge stays on
        the base, and one `segment_length` call, at its default 4 midpoints
        per piece.  Weight depends only on the start row because the
        profile is a function of r alone.  With a row mirror the call covers
        the canonical rows alone, those no larger than mirror[i + di], the
        start row of their edge's mirror image, and every other row copies
        its image's weight.
        """
        if self.space.base.is_circle:
            idx = np.arange(self.n_rows)
        else:
            idx = np.arange(max(0, -di), self.n_rows - max(0, di))
        dr, dtheta = di * self.hr, dj * self.htheta
        mirror = self._row_mirror()
        if mirror is None:
            return idx, segment_length(self.space, self.rows[idx], dr, dtheta)
        image = mirror[(idx + di) % self.n_rows]
        canonical = idx <= image
        w = np.empty(idx.size)
        w[canonical] = segment_length(self.space, self.rows[idx[canonical]],
                                      dr, dtheta)
        # idx runs up from idx[0] by ones, and every image is a start row
        w[~canonical] = w[image[~canonical] - idx[0]]
        return idx, w

    def _directions(self):
        """One (start rows, end rows, theta step, weights) direction per
        mirror pair (di, +-dj): `fibered_stencil` adds both signs."""
        circle = self.space.base.is_circle
        for di, dj in neighborhood_offsets(self.spec.k):
            if di >= 0 and dj >= 0:
                idx, w = self._direction_weights(di, dj)
                dst = (idx + di) % self.n_rows if circle else idx + di
                yield idx, dst, dj, w

    def contains(self, p: SurfacePoint):
        """Whether each point's r lies on the base (`BaseSpace.contains`)."""
        return self.space.base.contains(p.r)


# ---------------------------------------------------------------------------
# Closed forms and bounds
# ---------------------------------------------------------------------------


def flat_product_distance(base: BaseSpace, fiber: FiberSpace, level: float,
                          p: SurfacePoint, q: SurfacePoint):
    """Distance in the unwarped product with constant profile `level`:
    minimum over seam wraps of sqrt(dr^2 + level^2 dtheta^2).

    The coordinates of p and q may be arrays, broadcast together; the
    result is then an array, and a float for float coordinates."""
    dr = base.distance(p.r, q.r)
    dth = fiber.distance(p.theta, q.theta)
    return float_or_array(np.hypot(dr, level * dth))


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


def cinch_limit_distance(depth: float, cinch_r: float, base: BaseSpace,
                         fiber: FiberSpace, p: SurfacePoint,
                         q: SurfacePoint):
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
    Both fiber windings are tried.  Coordinates may be arrays, as in
    `flat_product_distance`.
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
        best = np.where(feasible_above <= advance,
                        np.minimum(best, depth * advance + legs), best)
    return float_or_array(best)


# ---------------------------------------------------------------------------
# Monotone Clairaut shot (the turning-rate audit's geodesic)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _leg_rule(space: WarpedSpace, r_from: float,
              r_to: float) -> Tuple[np.ndarray, np.ndarray]:
    """Quadrature of a monotone-in-r geodesic leg, which does not depend on
    the conserved quantity c: (f, w), the warp at the nodes and each node's
    weight.  `_leg_sums` evaluates the leg for a given c.

    Composite Gauss-Legendre over r, with pieces cut at profile breakpoints.
    An empty leg has no nodes.
    """
    if r_to == r_from:
        return np.empty(0), np.empty(0)
    lo, hi = min(r_from, r_to), max(r_from, r_to)
    edges = sorted_distinct(np.concatenate(
        ([lo, hi], space.breakpoints_unwrapped(lo, hi))))

    # every piece gets the same 6 sub-pieces whatever c is; this fixed rule
    # underestimates the log-singular advance of shots with c near an
    # interior minimum of f, so such shots can miss targets they do reach
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
    f = np.asarray(space.warp_at(np.concatenate(xs)), dtype=float)
    return f, np.concatenate(ws)


def _leg_sums(rule: Tuple[np.ndarray, np.ndarray], c: float) -> Tuple[float, float]:
    """Fiber advance and arc length of the leg `rule` describes, with
    conserved quantity c:

        theta advance = int c / (f^2 sqrt(1 - c^2/f^2)) dr,
        length        = int 1 / sqrt(1 - c^2/f^2) dr.
    """
    f, w = rule
    v = 1.0 - (c / f) ** 2
    if np.any(v <= 0.0):
        # the warp drops to (or below) the conserved level inside the leg:
        # not a valid monotone leg for this c
        return math.nan, math.nan
    inv = 1.0 / np.sqrt(v)
    # both integrals run over the swept r-range with the positive measure
    # dt = dr/|r'|; the fiber advance carries the sign of c
    theta = float(np.sum(w * c / (f * f) * inv))
    length = float(np.sum(w * inv))
    return theta, length


def _shoot_monotone(space, r_p, r_q, target, tol, max_iter):
    """Find c so the monotone leg r_p -> r_q advances |target| in the fiber.
    Returns (length, c, residual) or None when the leg cannot reach it.

    The leg's quadrature rule does not depend on c, so it is built once per
    shot and every bisection step only re-evaluates the sums."""
    if r_q == r_p or target == 0.0:
        return None
    lo, hi = min(r_p, r_q), max(r_p, r_q)
    c_sup = space.warp_min_on(lo, hi)
    want = abs(target)
    rule = _leg_rule(space, r_p, r_q)

    def advance(c):
        th, ln = _leg_sums(rule, c)
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
