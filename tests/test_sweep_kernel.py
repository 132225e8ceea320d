"""Building, loading and running the sweep kernel.

`warpconv._sweep` compiles `_sweep.c` once per hash of its source and flags
into a cache directory and loads the library from there afterwards; a
missing or failing compiler is an error that shows what went wrong.  The
kernel's sweeps must equal scipy's Dijkstra on the folded graph bit for
bit: where its wrap-free band of fiber positions is empty or one position
wide, where the weights spread wider than its bucket cap allows (so nodes
are queued again), and where a weight vanishes in the sum it is added to.
"""

import subprocess

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from oracle import graph_reference, oracle_sweeps, reference_fold
from warpconv import (
    ConstantProfile,
    FiberSpace,
    GridGraph,
    GridSpec,
    SequenceFamily,
    WarpedSpace,
    _sweep,
    circle_base,
    interval_base,
)
from warpconv.geodesy import FiberStencil, _sweep_cell, fibered_stencil


def count_compiles(monkeypatch):
    calls = []
    run = subprocess.run

    def counting(cmd, *args, **kwargs):
        calls.append(cmd)
        return run(cmd, *args, **kwargs)

    monkeypatch.setattr(_sweep.subprocess, "run", counting)
    return calls


def test_a_fresh_cache_builds_once_and_later_loads_do_not_compile(
        tmp_path, monkeypatch):
    calls = count_compiles(monkeypatch)
    cache = tmp_path / "cache"
    first = _sweep.load_library(_sweep.SOURCE, cache).warpconv_sweep
    assert len(calls) == 1 and calls[0][0] == _sweep.COMPILER
    # one library, named by the source hash; no temporary file left over
    (lib,) = cache.iterdir()
    assert lib.name.startswith("_sweep-") and lib.suffix == ".so"
    second = _sweep.load_library(_sweep.SOURCE, cache).warpconv_sweep
    assert len(calls) == 1
    assert list(cache.iterdir()) == [lib]
    # both loads sweep like the kernel warpconv imported
    stencil = path_stencil(6)
    want = sweep_with(_sweep.sweep, stencil, 2)
    assert np.array_equal(sweep_with(first, stencil, 2), want)
    assert np.array_equal(sweep_with(second, stencil, 2), want)


def test_an_edited_source_builds_a_new_library(tmp_path, monkeypatch):
    calls = count_compiles(monkeypatch)
    source = tmp_path / "_sweep.c"
    source.write_bytes(_sweep.SOURCE.read_bytes())
    cache = tmp_path / "cache"
    one = _sweep.build_library(source, cache)
    source.write_bytes(_sweep.SOURCE.read_bytes() + b"\n/* edited */\n")
    two = _sweep.build_library(source, cache)
    assert one != two and len(calls) == 2
    assert sorted(cache.iterdir()) == sorted([one, two])


def test_a_missing_compiler_raises_a_clear_error(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "no-such-dir"))
    cache = tmp_path / "cache"
    with pytest.raises(_sweep.KernelBuildError, match="no C compiler 'cc'"):
        _sweep.load_library(_sweep.SOURCE, cache)
    assert list(cache.iterdir()) == []


def test_a_failing_compile_shows_the_compiler_output(tmp_path):
    source = tmp_path / "_sweep.c"
    source.write_text("this is not C;\n")
    cache = tmp_path / "cache"
    with pytest.raises(_sweep.KernelBuildError) as info:
        _sweep.build_library(source, cache)
    message = str(info.value)
    assert "exited with status" in message and "_sweep.c" in message
    assert "error" in message.lower()
    assert list(cache.iterdir()) == []


def path_stencil(m):
    """A cycle of 5 base cells with edges of uneven weights, times a fiber
    of m positions, plus a fiber step inside each cell."""
    cells = np.arange(5)
    return fibered_stencil(5, m, [
        (cells, (cells + 1) % 5, 0, np.array([1.0, 0.3, 2.5, 0.7, 1.1])),
        (cells, (cells + 2) % 5, 1, np.array([0.4, 3.0, 0.9, 1.7, 0.2])),
        (cells, cells, 1, np.array([0.25, 0.5, 0.125, 2.0, 1.0])),
    ])


def sweep_with(kernel, stencil: FiberStencil, cell):
    m, start, target, step, weight = stencil
    row = np.empty((len(start) - 1) * (m // 2 + 1))
    kernel(len(start) - 1, m, start, target, step, weight, cell, row,
           *_sweep.work_arrays(len(row)))
    return row


def folded_csr(stencil: FiberStencil):
    """The folded graph of a stencil, edge by edge from its slots."""
    m, start, target, step, weight = stencil
    n_cells, h = len(start) - 1, m // 2 + 1
    best = {}  # (row, col) -> least weight: csr_matrix sums duplicates
    for c in range(n_cells):
        for z in range(h):
            for s in range(start[c], start[c + 1]):
                zz = (z + step[s]) % m
                key = c * h + z, target[s] * h + min(zz, m - zz)
                best[key] = min(weight[s], best.get(key, np.inf))
    if not best:
        return csr_matrix((n_cells * h,) * 2)
    (r, c), w = zip(*best), list(best.values())
    return csr_matrix((w, (r, c)), shape=(n_cells * h,) * 2)


def assert_sweeps_like_scipy(stencil: FiberStencil, cells):
    folded = folded_csr(stencil)
    h = stencil.m // 2 + 1
    succ, pred = _sweep.work_arrays(folded.shape[0])
    for cell in cells:
        row = np.empty(folded.shape[0])
        _sweep_cell(stencil, cell, row, succ, pred)
        assert np.array_equal(row, dijkstra(folded, indices=cell * h))


@pytest.mark.parametrize("m", [8, 9])
def test_kernel_sweeps_the_folded_stencil_like_scipy(m):
    assert_sweeps_like_scipy(path_stencil(m), range(5))


def spread_stencil(n_cells, m, lo, hi, seed):
    """A cycle of cells times a fiber of m positions, with weights drawn
    log-uniformly from [lo, hi]: edges to the next cell and the one after,
    and fiber steps of 1 and 2 within a cell."""
    rng = np.random.default_rng(seed)
    cells = np.arange(n_cells)

    def weights():
        return np.exp(rng.uniform(np.log(lo), np.log(hi), n_cells))

    return fibered_stencil(n_cells, m, [
        (cells, (cells + 1) % n_cells, 0, weights()),
        (cells, (cells + 1) % n_cells, 1, weights()),
        (cells, (cells + 2) % n_cells, 1, weights()),
        (cells, cells, 1, weights()),
        (cells, cells, 2, weights()),
    ])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m", [8, 13])
def test_weights_spread_wider_than_the_bucket_cap(m, seed):
    # the buckets widen to w_max / (cap - 3), wider than most weights here,
    # so a node taken off its bucket is often improved and queued again
    stencil = spread_stencil(24, m, 1e-4, 10.0, seed)
    assert 2 * stencil.weight.max() / stencil.weight.min() > _sweep.BUCKET_CAP
    assert_sweeps_like_scipy(stencil, [0, 7, 23])


@pytest.mark.parametrize("m", [8, 9])
def test_a_weight_below_half_an_ulp_leaves_the_sum_unchanged(m):
    # edges of 1e-17 out of every fourth cell beside weights near 1: adding
    # one to a distance of 0.25 or more leaves the distance as it was
    cells = np.arange(12)
    stencil = fibered_stencil(12, m, [
        (cells, (cells + 1) % 12, 0, np.linspace(0.5, 2.0, 12)),
        (cells, cells, 1, np.full(12, 0.7)),
        (cells, (cells + 1) % 12, 1, np.where(cells % 4 == 2, 1e-17, 1.3)),
    ])
    folded = folded_csr(stencil)
    h = m // 2 + 1
    for cell in [0, 11]:
        dist = dijkstra(folded, indices=cell * h)
        u = np.repeat(np.arange(folded.shape[0]), np.diff(folded.indptr))
        assert np.any((dist[u] + folded.data == dist[u]) & (dist[u] > 0))
    assert_sweeps_like_scipy(stencil, [0, 4, 11])


def test_a_stencil_without_edges_reaches_only_its_source():
    stencil = fibered_stencil(3, 8, [])
    assert_sweeps_like_scipy(stencil, [0, 2])


# The kernel takes positions K <= z <= m//2 - K, K the largest |fiber
# step| (k here), without wrap or fold and the rest through the fold.
# Fibers of 8 and 9 leave that band one position wide at k = 2 and empty
# at k = 3, fibers of 12 and 13 one position wide at k = 3.  Interval
# bases leave the end rows fewer slots, a constant profile makes many
# distances tie, and the sources sit in the first and the last cell.  On
# the thin fiber every position of a row is about as far as position 0, so
# an edge from just outside the band that skipped the fold, and so reached
# position 0 of the next cell, would be a shortcut.
EDGE_SPACES = {
    "cinched-circle": lambda: SequenceFamily("cinched-torus").space(2),
    "cinched-interval":
        lambda: SequenceFamily("cinched-torus", base_shape="interval").space(2),
    "constant-circle":
        lambda: WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(1.0)),
    "constant-interval":
        lambda: WarpedSpace(interval_base(), FiberSpace(), ConstantProfile(1.0)),
    "thin-circle":
        lambda: WarpedSpace(circle_base(), FiberSpace(), ConstantProfile(0.01)),
}


@pytest.mark.parametrize("m", [8, 9, 12, 13])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("space", sorted(EDGE_SPACES))
def test_kernel_at_the_edges_of_the_wrap_free_band(space, k, m):
    graph = GridGraph(EDGE_SPACES[space](), GridSpec(10, m, k))
    stencil = graph._stencil
    assert np.abs(stencil.step).max() == k
    folded = reference_fold(graph_reference(graph)[0], m)
    cells = [0, len(stencil.start) - 2]
    assert np.array_equal(graph.distances_from(cells),
                          oracle_sweeps(folded, m, cells))
