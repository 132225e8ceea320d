"""The grid graphs' stencil, checked against a triplet-built oracle.

`geodesy.fibered_stencil` keeps each base cell's edges as slots (target
cell, fiber step, weight); the sweep kernel walks them on the quotient of
the graph by the fiber mirror z -> -z (mod m).  The oracle (tests/oracle.py)
is the triplet construction of the full graph and its own fold.  The
stencil must list exactly the oracle's edges, each (target, step) once per
cell, the oracle must be mirror symmetric, and the kernel's sweeps must
equal scipy's sweeps on the folded oracle bit for bit from every cell.  Sweeps on the folded graph, unfolded by
the test's own index arithmetic or read through the orbit cache, must equal
scipy's sweeps on the full oracle bit for bit from any source.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

from oracle import (
    first_of_runs,
    graph_reference,
    oracle_sweeps,
    reference_fold,
)
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
)
from warpconv.geodesy import MAX_NODES_2D, OrbitSweepCache, fibered_stencil
from warpconv.torus3 import (
    BumpField,
    ConstantField,
    Grid3Graph,
    Grid3Spec,
)


def assert_mirror_symmetric(full, m):
    """The mirror z -> -z maps the reference onto itself bit for bit."""
    cell, z = np.divmod(np.arange(full.shape[0]), m)
    mirror = cell * m + (-z) % m
    image = full[mirror][:, mirror]
    image.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(image, name), getattr(full, name)), name


def assert_stencil_is_reference(stencil, full):
    """`fibered_stencil`'s per-cell stencil lists exactly the reference's
    edges, in the dtypes and layout the sweep kernel reads, with no two
    slots of a cell sharing a (target, step)."""
    m, start, target, step, weight = stencil
    n_cells = len(start) - 1
    assert start.dtype == target.dtype == step.dtype == np.int32
    assert weight.dtype == np.float64
    assert target.shape == step.shape == weight.shape == (start[-1],)
    assert all(a.flags.c_contiguous for a in (start, target, step, weight))
    assert start[0] == 0 and np.all(np.diff(start) >= 0)
    assert np.all((0 <= target) & (target < n_cells))
    assert np.all(np.abs(step) < m)
    owner = np.repeat(np.arange(n_cells), np.diff(start))
    distinct = np.unique(np.stack([owner, target, step]), axis=1)
    assert distinct.shape[1] == len(target)
    n_slots = len(target)
    slot = np.tile(np.arange(n_slots), m)
    z = np.repeat(np.arange(m), n_slots)
    row, col, w = first_of_runs(
        owner[slot].astype(np.int64) * m + z,
        target[slot].astype(np.int64) * m + (z + step[slot]) % m,
        weight[slot])
    coo = full.tocoo()
    ref = first_of_runs(coo.row.astype(np.int64), coo.col.astype(np.int64),
                        coo.data)
    for got, want in zip((row, col, w), ref):
        assert np.array_equal(got, want)


def assert_stencil_matches_oracle(graph, m):
    """Stencil, invariance flag and kernel sweeps against the triplet
    oracle, from every cell or, on the 3-torus, from about 25 spread over
    the lattice and the last one."""
    reference, invariant = graph_reference(graph)
    assert_mirror_symmetric(reference, m)
    assert_stencil_is_reference(graph._stencil, reference)
    assert graph.base_invariant == invariant
    n_cells = graph.n_nodes // m
    cells = np.unique(np.r_[0:n_cells:max(1, n_cells // 25), n_cells - 1])
    want = oracle_sweeps(reference_fold(reference, m), m, cells)
    assert np.array_equal(graph.distances_from(cells), want)


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
    assert_stencil_matches_oracle(graph, graph.n_theta)
    assert graph.base_invariant == (surface == "constant-circle")


@pytest.mark.parametrize("fld, n", [
    pytest.param(BumpField(1.0, 2.0, (0.5, 0.5), 1.0), 32, id="bump"),
    pytest.param(ConstantField(1.3), 32, id="constant"),
    pytest.param(BumpField(1.0, 1.7, (-1.0, 2.0), 0.8), 33, id="bump-odd"),
])
def test_torus3_csr_matches_triplets(fld, n):
    graph = Grid3Graph(fld, Grid3Spec(n))
    assert_stencil_matches_oracle(graph, n)
    assert graph.base_invariant == isinstance(fld, ConstantField)


# Graphs the sweep tests draw from: even and odd fibers, circle and
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
    return graph, graph_reference(graph)[0], graph._stencil.m


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
    # every node pair from the sources, through the orbit sweeps
    pairs = [(s, t) for s in sources for t in range(graph.n_nodes)]
    assert np.array_equal(graph.pair_distances(pairs), want.ravel())


def test_memory_guard_keeps_int32_indices():
    # the kernel numbers folded nodes, at most 5/8 of the nodes (m >= 8)
    assert MAX_NODES_2D * 5 // 8 < 2 ** 31
    # a stencil whose folded nodes overflow int32 is refused before any
    # array is allocated: 2**28 cells x 8 folded positions (m = 14) are
    # 2**31 nodes, one cell fewer fits.  The kernel keeps nothing per node
    # beyond the row, so the edge is int32 itself; the smaller stencil is
    # let through to the step check, which refuses it before allocating
    with pytest.raises(GridSizeError):
        fibered_stencil(2 ** 28, 14, [])
    with pytest.raises(ValueError, match="fiber step"):
        fibered_stencil(2 ** 28 - 1, 14,
                        [(np.arange(4), np.arange(4), 14, np.ones(4))])
    with pytest.raises(GridSizeError):
        fibered_stencil(2 ** 29, 8, [])
    with pytest.raises(GridSizeError):
        fibered_stencil(1, 2 ** 31, [])
    with pytest.raises(ValueError):
        fibered_stencil(4, 8, [(np.arange(4), np.arange(4), 8, np.ones(4))])


def test_fibered_stencil_rejects_edges_the_kernel_cannot_sweep():
    cells = np.arange(4)
    with pytest.raises(ValueError, match="cells"):
        fibered_stencil(4, 8, [(cells, cells + 1, 1, np.ones(4))])
    with pytest.raises(ValueError, match="cells"):
        fibered_stencil(4, 8, [(cells - 1, cells, 1, np.ones(4))])
    with pytest.raises(ValueError, match="at most one"):
        fibered_stencil(4, 8, [([0, 0], [1, 2], 1, np.ones(2))])
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="positive"):
            fibered_stencil(4, 8, [(cells, cells, 1, np.full(4, bad))])


@pytest.mark.parametrize("n_cells, shift, sign, dz", [
    # cell 0 would get the slots (5, 3), (5, -3), (5, -3), (5, 3)
    (6, 5, -1, 3),
    # cell 0 would get (2, 1), (2, -1), (2, -1), (2, 1)
    (4, 2, 1, 1),
    # and (2, 0), (2, 0) without a fiber step
    (4, 2, 1, 0),
])
def test_fibered_stencil_rejects_a_direction_holding_edges_both_ways(
        n_cells, shift, sign, dz):
    cells = np.arange(n_cells)
    dst = (shift + sign * cells) % n_cells
    with pytest.raises(ValueError, match="reverse"):
        fibered_stencil(n_cells, 8, [(cells, dst, dz, np.ones(n_cells))])


@pytest.mark.parametrize("make, degree", [
    pytest.param(lambda: GridGraph(SURFACES["constant-circle"](),
                                   GridSpec(16, 16, 1)), 8, id="surface-k1"),
    pytest.param(lambda: GridGraph(SURFACES["cinched-circle"](),
                                   GridSpec(16, 16, 2)), 16, id="surface-k2"),
    pytest.param(lambda: GridGraph(SURFACES["cinched-interval"](),
                                   GridSpec(16, 16, 3)), 32, id="interval-k3"),
    pytest.param(lambda: Grid3Graph(BumpField(1.0, 2.0, (0.5, 0.5), 1.0),
                                    Grid3Spec(32)), 26, id="torus3"),
])
def test_each_cell_keeps_one_slot_per_neighbour(make, degree):
    # a fiber edge within a cell is its own reverse and keeps one slot per
    # sign, so a cell has one slot per stencil offset; the end rows of an
    # interval base keep only the offsets that stay on the base
    graph = make()
    counts = np.diff(graph._stencil.start)
    if isinstance(graph, GridGraph) and not graph.space.base.is_circle:
        k = graph.spec.k
        assert np.all(counts[:k] < degree) and np.all(counts[-k:] < degree)
        counts = counts[k:-k]
    assert np.all(counts == degree)


def test_surface_grid_over_the_guard_raises_before_building(monkeypatch):
    def no_build(self, *args):
        raise AssertionError("the guard must fire before the graph is built")

    monkeypatch.setattr(GridGraph, "_direction_weights", no_build)
    monkeypatch.setattr(OrbitSweepCache, "__init__", no_build)
    # an interval base has n_r + 1 rows: 8193 * 4096 is just over 2**25
    space = WarpedSpace(interval_base(), FiberSpace(), ConstantProfile(1.0))
    assert 8193 * 4096 > MAX_NODES_2D
    with pytest.raises(GridSizeError):
        GridGraph(space, GridSpec(8192, 4096, 2))


def test_pinned_grid_passes_the_guard(monkeypatch):
    # the stencil is never built: no weight is computed
    monkeypatch.setattr(OrbitSweepCache, "__init__", lambda self, *args: None)
    graph = GridGraph(SequenceFamily("ret-cinches").space(1), GridSpec(1024, 1024, 3))
    assert graph.n_rows * graph.n_theta == 1024 * 1024
