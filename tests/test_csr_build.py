"""The grid graphs' stencil, checked against a triplet-built oracle.

`geodesy.fibered_stencil` keeps each base cell's edges as slots (target
cell, fiber step, weight); the sweep kernel walks them on the quotient of
the graph by the fiber mirror z -> -z (mod m).  The oracle (tests/oracle.py)
is the triplet construction of the full graph and its own fold.  The
stencil must list exactly the oracle's edges, the oracle must be mirror
symmetric, and the kernel's sweeps must equal scipy's sweeps on the folded
oracle bit for bit from every cell.  Sweeps on the folded graph, unfolded by
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
from warpconv.geodesy import MAX_NODES_2D, fibered_stencil
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
    edges, in the dtypes and layout the sweep kernel reads."""
    m, target, step, weight = stencil
    n_cells, n_slots = target.shape
    assert target.dtype == step.dtype == np.int64
    assert weight.dtype == np.float64 and weight.shape == target.shape
    assert target.flags.c_contiguous and weight.flags.c_contiguous
    assert np.all((0 <= target) & (target <= n_cells))
    assert np.all(np.abs(step) < m)
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
    # every node pair from the sources, swept afresh through the orbit cache
    graph._orbit_rows.clear()
    pairs = [(s, t) for s in sources for t in range(graph.n_nodes)]
    assert np.array_equal(graph.pair_distances(pairs), want.ravel())


def test_memory_guard_keeps_int32_indices():
    # the kernel numbers folded nodes, at most 5/8 of the nodes (m >= 8)
    assert MAX_NODES_2D * 5 // 8 < 2 ** 31
    # a stencil whose folded nodes overflow int32 is refused before any
    # array is allocated
    with pytest.raises(GridSizeError):
        fibered_stencil(2 ** 29, 8, [])
    with pytest.raises(ValueError):
        fibered_stencil(4, 8, [(np.arange(4), np.arange(4), 8, np.ones(4))])


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
