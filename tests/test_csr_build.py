"""The grid graphs' CSR, written straight from the stencil and folded.

`geodesy.fibered_csr` writes indptr, indices and data in place, for the
quotient of the graph by the fiber mirror z -> -z (mod m).  The reference
below is the triplet construction of the full graph: COO triplets for both
orientations of every canonical direction, each direction's weights
computed on their own, converted with `tocsr()`.  `reference_fold` folds it
independently (keep z <= m//2, fold every column, keep the minimum of each
duplicate), and the builder must match that bit for bit, column order
included.  Sweeps on the folded graph, unfolded by the test's own index
arithmetic or read through the orbit cache, must equal scipy's sweeps on
the full reference bit for bit from any source, and every shortest chain
must be a walk along reference edges whose float sum is its distance.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra

from warpconv import (
    ConstantProfile,
    FiberSpace,
    GridGraph,
    GridSizeError,
    GridSpec,
    SequenceFamily,
    WarpedSpace,
    circle_base,
    interval_base,
    neighborhood_offsets,
)
from warpconv.geodesy import MAX_NODES_2D
from warpconv.torus3 import (
    BumpField,
    ConstantField,
    Grid3Graph,
    Grid3Spec,
    stencil_offsets3,
)


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


def assert_mirror_symmetric(full, m):
    """The mirror z -> -z maps the reference onto itself bit for bit."""
    cell, z = np.divmod(np.arange(full.shape[0]), m)
    mirror = cell * m + (-z) % m
    image = full[mirror][:, mirror]
    image.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(image, name), getattr(full, name)), name


def assert_same_csr(built, reference):
    assert built.shape == reference.shape
    assert built.indptr.dtype == np.int32
    assert built.indices.dtype == np.int32
    assert built.data.dtype == np.float64
    assert built.has_canonical_format
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(built, name), getattr(reference, name)), name


def assert_stencil_is_reference(stencil, full):
    """The builder's per-cell stencil lists exactly the reference's edges."""
    m, target, step, weight = stencil
    n_cells, n_slots = target.shape
    cell = np.repeat(np.arange(n_cells), m * n_slots)
    z = np.tile(np.repeat(np.arange(m), n_slots), n_cells)
    slot = np.tile(np.arange(n_slots), n_cells * m)
    live = target[cell, slot] < n_cells
    row, col, w = first_of_runs(
        (cell * m + z)[live],
        (target[cell, slot] * m + (z + step[slot]) % m)[live],
        weight[cell, slot][live])
    coo = full.tocoo()
    ref = first_of_runs(coo.row.astype(np.int64), coo.col.astype(np.int64),
                        coo.data)
    for got, want in zip((row, col, w), ref):
        assert np.array_equal(got, want)


SURFACES = {
    "cinched-circle": lambda: SequenceFamily("cinched-torus").space(2),
    "cinched-interval":
        lambda: SequenceFamily("cinched-torus", base_shape="interval").space(2),
    "constant-circle":
        lambda: WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.3)),
    "constant-interval":
        lambda: WarpedSpace(interval_base(), FiberSpace(), ConstantProfile(1.3)),
}


@pytest.mark.parametrize("shape", [(8, 8), (40, 64), (9, 13)])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_surface_csr_matches_triplets(surface, k, shape):
    graph = GridGraph(SURFACES[surface](), GridSpec(shape[0], shape[1], k))
    reference, row_invariant = surface_reference(graph)
    assert_mirror_symmetric(reference, graph.n_theta)
    assert_same_csr(graph._matrix, reference_fold(reference, graph.n_theta))
    assert_stencil_is_reference(graph._stencil, reference)
    assert graph.base_invariant == row_invariant
    assert graph.base_invariant == (surface == "constant-circle")


@pytest.mark.parametrize("fld, n", [
    pytest.param(BumpField(1.0, 2.0, (0.5, 0.5), 1.0), 32, id="bump"),
    pytest.param(ConstantField(1.3), 32, id="constant"),
    pytest.param(BumpField(1.0, 1.7, (-1.0, 2.0), 0.8), 33, id="bump-odd"),
])
def test_torus3_csr_matches_triplets(fld, n):
    graph = Grid3Graph(fld, Grid3Spec(n))
    reference, xy_invariant = torus3_reference(fld, n)
    assert_mirror_symmetric(reference, n)
    assert_same_csr(graph._matrix, reference_fold(reference, n))
    assert_stencil_is_reference(graph._stencil, reference)
    assert graph.base_invariant == xy_invariant
    assert graph.base_invariant == isinstance(fld, ConstantField)


# Graphs the sweep and path tests draw from: even and odd fibers, circle and
# interval bases, k = 1, 2, 3, and the 3-torus at an even and an odd n.
GRAPHS = {
    "cinched-even-k1": lambda: GridGraph(SURFACES["cinched-circle"](),
                                         GridSpec(12, 10, 1)),
    "cinched-odd-k2": lambda: GridGraph(SURFACES["cinched-circle"](),
                                        GridSpec(9, 11, 2)),
    "cinched-interval-odd-k3": lambda: GridGraph(SURFACES["cinched-interval"](),
                                                 GridSpec(10, 9, 3)),
    "ridges-interval-even-k2": lambda: GridGraph(
        SequenceFamily("many-ridges", depth=1.5, base_shape="interval").space(1),
        GridSpec(16, 14, 2)),
    "ret-even-k3": lambda: GridGraph(SequenceFamily("ret-cinches").space(1),
                                     GridSpec(16, 16, 3)),
    "torus3-even": lambda: Grid3Graph(BumpField(1.0, 2.0, (0.5, 0.5), 1.0),
                                      Grid3Spec(32)),
    "torus3-odd": lambda: Grid3Graph(BumpField(1.0, 1.7, (-1.0, 2.0), 0.8),
                                     Grid3Spec(33)),
}


@functools.lru_cache(maxsize=None)
def graph_and_reference(name):
    """A graph, its full triplet reference and its fiber length."""
    graph = GRAPHS[name]()
    if isinstance(graph, Grid3Graph):
        n = graph.spec.n
        return graph, torus3_reference(graph.field, n)[0], n
    return graph, surface_reference(graph)[0], graph.n_theta


@given(name=st.sampled_from(sorted(GRAPHS)),
       picks=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                      min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_sweeps_equal_full_graph_sweeps(name, picks, full_rows):
    graph, reference, m = graph_and_reference(name)
    sources = [int(u * graph.n_nodes) for u in picks]
    want = dijkstra(reference, directed=True, indices=sources)
    folded = graph.distances_from([s // m for s in sources])
    assert folded.shape == (len(sources), graph.n_nodes // m * (m // 2 + 1))
    assert np.array_equal(full_rows(graph, sources), want)
    # every node pair from the sources, swept afresh through the orbit cache
    graph._orbit_rows.clear()
    pairs = [(s, t) for s in sources for t in range(graph.n_nodes)]
    assert np.array_equal(graph.pair_distances(pairs), want.ravel())


def chain_pairs(graph, m):
    """Three node pairs on both sides of the mirror columns z = 0 and
    z = m/2, then one far pair."""
    cells = graph.n_nodes // m
    a, b = cells // 3, (2 * cells) // 3
    return [(a * m + m // 2 - 1, b * m + m // 2 + 2),
            (b * m + 1, a * m + m - 2),
            (a * m + 2, a * m + m - 3),
            (0, (cells - 1) * m + m // 2)]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_shortest_chain_sums_to_its_distance(name, full_rows):
    graph, reference, m = graph_and_reference(name)
    crossed = 0
    for src, dst in chain_pairs(graph, m):
        dist, chain = graph.shortest_chain(src, dst)
        assert chain[0] == src and chain[-1] == dst
        assert dist == full_rows(graph, [src])[0, dst]
        assert dist == graph.pair_distances([(src, dst)])[0]
        total = 0.0
        for a, b in zip(chain[:-1], chain[1:]):
            row = slice(reference.indptr[a], reference.indptr[a + 1])
            hit = np.flatnonzero(reference.indices[row] == b)
            assert hit.size == 1, f"{a} -> {b} is not an edge"
            total += float(reference.data[row][hit[0]])
        assert total == dist
        z = np.array(chain) % m
        crossed += bool(np.any((0 < 2 * z) & (2 * z < m))
                        and np.any((m < 2 * z) & (2 * z < 2 * m)))
    # the first three pairs lie on both sides of the mirror columns
    assert crossed >= 3


def test_path_between_follows_the_shortest_chain():
    graph, _reference, m = graph_and_reference("cinched-odd-k2")
    for src, dst in chain_pairs(graph, m):
        dist, path = graph.path_between(src, dst)
        chain_dist, chain = graph.shortest_chain(src, dst)
        assert dist == chain_dist
        assert path.points == [graph.node_point(n) for n in chain]


def test_memory_guard_keeps_int32_indices():
    widest = max(len(neighborhood_offsets(k)) for k in (1, 2, 3))
    assert MAX_NODES_2D * widest < 2 ** 31


def test_surface_grid_over_the_guard_raises_before_building(monkeypatch):
    def no_build(self):
        raise AssertionError("the guard must fire before the graph is built")

    monkeypatch.setattr(GridGraph, "_build", no_build)
    # an interval base has n_r + 1 rows: 8193 * 4096 is just over 2**25
    space = WarpedSpace(interval_base(), FiberSpace(), ConstantProfile(1.0))
    assert 8193 * 4096 > MAX_NODES_2D
    with pytest.raises(GridSizeError):
        GridGraph(space, GridSpec(8192, 4096, 2))


def test_pinned_grid_passes_the_guard(monkeypatch):
    monkeypatch.setattr(GridGraph, "_build", lambda self: (None, None, False))
    graph = GridGraph(SequenceFamily("ret-cinches").space(1), GridSpec(1024, 1024, 3))
    assert graph.n_nodes == 1024 * 1024
