"""The grid graphs' CSR, written straight from the stencil.

`geodesy.fibered_csr` writes indptr, indices and data in place.  The
reference below is the triplet construction it replaced: COO triplets for
both orientations of every canonical direction, converted with `tocsr()`.
The two must agree bit for bit, column order included, so every sweep and
every report is unchanged.
"""

import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix

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


def assert_same_csr(built, reference):
    assert built.shape == reference.shape
    assert built.indptr.dtype == np.int32
    assert built.indices.dtype == np.int32
    assert built.data.dtype == np.float64
    assert built.has_canonical_format
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(built, name), getattr(reference, name)), name


SURFACES = {
    "cinched-circle": lambda: SequenceFamily("cinched-torus").space(2),
    "cinched-interval":
        lambda: SequenceFamily("cinched-torus", base_shape="interval").space(2),
    "constant-circle":
        lambda: WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.3)),
    "constant-interval":
        lambda: WarpedSpace(interval_base(), FiberSpace(), ConstantProfile(1.3)),
}


@pytest.mark.parametrize("shape", [(8, 8), (40, 64)])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_surface_csr_matches_triplets(surface, k, shape):
    graph = GridGraph(SURFACES[surface](), GridSpec(shape[0], shape[1], k))
    reference, row_invariant = surface_reference(graph)
    assert_same_csr(graph._matrix, reference)
    assert graph.row_invariant == row_invariant
    assert graph.row_invariant == (surface == "constant-circle")


@pytest.mark.parametrize("fld", [BumpField(1.0, 2.0, (0.5, 0.5), 1.0),
                                 ConstantField(1.3)], ids=["bump", "constant"])
def test_torus3_csr_matches_triplets(fld):
    graph = Grid3Graph(fld, Grid3Spec(32))
    reference, xy_invariant = torus3_reference(fld, 32)
    assert_same_csr(graph._matrix, reference)
    assert graph.xy_invariant == xy_invariant
    assert graph.xy_invariant == isinstance(fld, ConstantField)


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
    monkeypatch.setattr(GridGraph, "_build", lambda self: (None, False))
    graph = GridGraph(SequenceFamily("ret-cinches").space(1), GridSpec(1024, 1024, 3))
    assert graph.n_nodes == 1024 * 1024
