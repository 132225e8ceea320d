"""The per-graph orbit cache behind the experiments' pair lookups.

Edge weights of the surface grid depend only on the start row, and those of
the 3-torus grid only on (x, y), so translations along the fiber (z) map
each graph onto itself; a graph whose built weights are also equal across
rows (xy sheets) is invariant along every axis.  The cache answers a pair
from one sweep per source orbit, which must give bit-for-bit the value a
direct sweep from the pair's own source gives.  Sweeps of large graphs fan
out to forked children, one started on each CPU, which take the sources one
at a time; their table must equal one inline csgraph call bit for bit.
"""

import functools
import os
import time

import numpy as np
import pytest

from warpconv import (
    ConstantProfile,
    FiberSpace,
    GridGraph,
    GridSpec,
    SequenceFamily,
    SurfacePoint,
    WarpedSpace,
    circle_base,
    grid_distance,
    interval_base,
    run_family_experiment,
)
from warpconv import geodesy
from warpconv.geodesy import FORK_MIN_NNZ
from warpconv.torus3 import (
    BumpField,
    ConstantField,
    Grid3Graph,
    Grid3Spec,
    Point3,
    Torus3Family,
    grid3_distance,
    run_torus3_experiment,
)


def random_pairs(n_nodes, count, seed):
    """Pairs whose sources repeat, so rows get reused within one call."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, n_nodes, size=count // 3)
    return [(int(rng.choice(sources)), int(rng.integers(0, n_nodes)))
            for _ in range(count)]


def assert_cache_matches_direct_sweeps(graph, seed, full_rows):
    pairs = random_pairs(graph.n_nodes, 30, seed)
    cached = graph.pair_distances(pairs)
    sources = sorted({a for a, _ in pairs})
    table = full_rows(graph, sources)
    direct = [float(table[sources.index(a), b]) for a, b in pairs]
    assert cached == direct
    # a second lookup is served from the rows already on the graph
    assert graph.pair_distances(pairs) == direct


def surface_graph(base, profile, n=48):
    return GridGraph(WarpedSpace(base, FiberSpace(), profile), GridSpec(n, n, 2))


def test_cinched_stage_uses_fiber_symmetry_only(full_rows):
    graph = GridGraph(SequenceFamily("cinched-torus").space(2), GridSpec(48, 48, 2))
    assert not graph.base_invariant
    assert_cache_matches_direct_sweeps(graph, 1, full_rows)


def test_constant_profile_on_circle_is_row_invariant(full_rows):
    graph = surface_graph(circle_base(), ConstantProfile(1.3))
    assert graph.base_invariant
    assert_cache_matches_direct_sweeps(graph, 2, full_rows)


def test_constant_profile_on_interval_is_not_row_invariant(full_rows):
    # equal weights, but the boundary rows have no neighbours beyond them
    graph = surface_graph(interval_base(), ConstantProfile(1.3))
    assert not graph.base_invariant
    assert_cache_matches_direct_sweeps(graph, 3, full_rows)


def test_torus3_bump_field_uses_z_symmetry_only(full_rows):
    graph = Grid3Graph(BumpField(1.0, 2.0, (0.5, 0.5), 1.0), Grid3Spec(32))
    assert not graph.base_invariant
    assert_cache_matches_direct_sweeps(graph, 4, full_rows)


def test_torus3_constant_field_is_invariant_along_every_axis(full_rows):
    graph = Grid3Graph(ConstantField(1.3), Grid3Spec(32))
    assert graph.base_invariant
    assert_cache_matches_direct_sweeps(graph, 5, full_rows)


def test_cache_hit_does_not_sweep(monkeypatch):
    graph = surface_graph(circle_base(), ConstantProfile(1.0), n=16)
    pairs = [(5, 40), (100, 7)]
    first = graph.pair_distances(pairs)

    def no_sweep(self, sources, **kwargs):
        raise AssertionError(f"swept {list(sources)} on a cache hit")

    monkeypatch.setattr(GridGraph, "distances_from", no_sweep)
    assert graph.pair_distances(pairs) == first
    assert graph.pair_distances([]) == []


def record_sweeps(monkeypatch, cls):
    """Replace cls.distances_from with a wrapper logging (graph, sources)."""
    calls = []
    sweep = cls.distances_from

    def recording(self, sources, **kwargs):
        sources = list(sources)
        assert sources, "distances_from called without sources"
        calls.append((self, sources))
        return sweep(self, sources, **kwargs)

    monkeypatch.setattr(cls, "distances_from", recording)
    return calls


def sources_by_graph(calls):
    out = {}
    for graph, sources in calls:
        out.setdefault(id(graph), (graph, []))[1].extend(sources)
    return list(out.values())


def test_extra_limit_does_not_sweep_the_stage_again(monkeypatch):
    calls = record_sweeps(monkeypatch, GridGraph)
    fam = SequenceFamily("cinched-torus")
    run_family_experiment(fam, [1, 2], grid=GridSpec(64, 64, 2),
                          with_wrong_limit=True)
    per_graph = sources_by_graph(calls)
    # two stages, the cinched reference and the product reference
    assert len(per_graph) == 4
    for graph, sources in per_graph:
        assert len(sources) == len(set(sources))
    # the wrong limit reads the stage rows the primary limit swept
    stages = (fam.space(1), fam.space(2))
    stage_calls = [g for g, _ in calls if g.space in stages]
    assert len(stage_calls) == len(set(map(id, stage_calls))) == 2
    invariant = [s for g, s in per_graph if g.base_invariant]
    assert invariant == [[0]]


def test_torus3_constant_reference_swept_once(monkeypatch):
    calls = record_sweeps(monkeypatch, Grid3Graph)
    run_torus3_experiment(Torus3Family(), [2, 3], Grid3Spec(32),
                          n_sources=3, n_targets=4, with_audits=False)
    per_graph = sources_by_graph(calls)
    assert len(per_graph) == 3
    invariant = [s for g, s in per_graph if g.base_invariant]
    assert invariant == [[0]]
    for graph, sources in per_graph:
        assert len(sources) == len(set(sources))


SINGLE_PAIR = {
    "surface": lambda: (
        GridGraph,
        GridGraph(SequenceFamily("cinched-torus").space(2), GridSpec(48, 48, 2)),
        lambda g, p, q: grid_distance(g.space, p, q, graph=g, want_path=False),
        (SurfacePoint(-1.0, 0.3), SurfacePoint(1.2, 2.9))),
    "torus3": lambda: (
        Grid3Graph,
        Grid3Graph(BumpField(1.0, 2.0, (0.5, 0.5), 1.0), Grid3Spec(32)),
        lambda g, p, q: grid3_distance(g.field, p, q, graph=g),
        (Point3(-1.0, 0.3, 2.0), Point3(1.2, 2.9, -0.5))),
}


@pytest.mark.parametrize("kind", sorted(SINGLE_PAIR))
def test_single_pair_distance_reads_the_orbit_cache(kind, monkeypatch, full_rows):
    cls, graph, distance, (p, q) = SINGLE_PAIR[kind]()
    calls = record_sweeps(monkeypatch, cls)
    first = distance(graph, p, q)
    assert len(calls) == 1
    # the pair's source orbit is on the graph now: the repeat sweeps nothing
    assert distance(graph, p, q) == first
    assert len(calls) == 1
    src, _, cost_p = graph.snap(p)
    dst, _, cost_q = graph.snap(q)
    assert first.distance == graph.pair_distances([(src, dst)])[0]
    assert first.distance == full_rows(graph, [src])[0, dst]
    assert first.error_estimate == graph.error_bound(first.distance,
                                                     cost_p + cost_q)


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: surface_graph(circle_base(), ConstantProfile(1.3), n=16),
                 id="surface"),
    pytest.param(lambda: Grid3Graph(BumpField(1.0, 2.0, (0.5, 0.5), 1.0),
                                    Grid3Spec(32)), id="torus3"),
])
def test_error_bound_without_snap_cost_is_the_anisotropy_term(graph):
    graph = graph()
    rng = np.random.default_rng(11)
    for d in [0.0, 1.0, *rng.uniform(0.0, 10.0, size=20)]:
        assert graph.error_bound(d, 0.0) == graph.aniso_bound * d + 1e-9


# ---------------------------------------------------------------------------
# Sweeps of large graphs fan out to forked children


LARGE = {
    "surface": lambda: GridGraph(SequenceFamily("cinched-torus").space(2),
                                 GridSpec(512, 512, 2)),
    "torus3": lambda: Grid3Graph(BumpField(1.0, 2.0, (0.5, 0.5), 1.0),
                                 Grid3Spec(64)),
}


@pytest.fixture(scope="module")
def large():
    """Graphs above FORK_MIN_NNZ, each built once for this module."""
    return functools.cache(lambda kind: LARGE[kind]())


def inline_sweeps(graph, cells):
    """One csgraph call from node (cell, 0) of each cell."""
    h = graph._stencil.m // 2 + 1
    return geodesy._csgraph_dijkstra(graph._matrix, directed=True,
                                     indices=np.asarray(cells) * h)


def count_forks(monkeypatch):
    """Wrap os.fork; the returned list gets each child's pid."""
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def fake_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("cpus", [None, 3], ids=["usable-cpus", "three-cpus"])
@pytest.mark.parametrize("kind", sorted(LARGE))
def test_fanned_out_sweeps_equal_one_inline_call(kind, cpus, large, monkeypatch):
    graph = large(kind)
    assert graph._matrix.nnz >= FORK_MIN_NNZ
    if cpus is not None:
        fake_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    cells = [5, 0, 17, 3, 9]  # unsorted, and more cells than children
    table = graph.distances_from(cells)
    workers = min(len(cells), len(os.sched_getaffinity(0)))
    assert len(forks) == (workers if workers > 1 else 0)
    want = inline_sweeps(graph, cells)
    assert table.dtype == want.dtype == np.float64
    assert table.shape == want.shape == (len(cells), graph._matrix.shape[0])
    assert np.array_equal(table, want)


def test_small_graphs_single_cells_and_one_cpu_sweep_inline(large, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    fake_cpus(monkeypatch, 2)
    small = GridGraph(SequenceFamily("cinched-torus").space(2), GridSpec(256, 256, 2))
    assert small._matrix.nnz < FORK_MIN_NNZ
    assert np.array_equal(small.distances_from([0, 1, 2, 3]),
                          inline_sweeps(small, [0, 1, 2, 3]))
    graph = large("surface")
    assert np.array_equal(graph.distances_from([7]), inline_sweeps(graph, [7]))
    fake_cpus(monkeypatch, 1)
    assert np.array_equal(graph.distances_from([1, 2, 3]),
                          inline_sweeps(graph, [1, 2, 3]))


@pytest.mark.parametrize("failing", ["first", "every"])
def test_failed_child_raises_and_every_child_is_reaped(failing, large, monkeypatch):
    graph = large("surface")
    cells = [0, 1, 2, 3]
    first = cells[0] * (graph._stencil.m // 2 + 1)
    sweep = geodesy._csgraph_dijkstra

    def broken(matrix, directed, indices):
        # the first child fails; the others finish and block on a full pipe
        if failing == "every" or indices[0] == first:
            raise MemoryError("sweep failed")
        return sweep(matrix, directed=directed, indices=indices)

    fake_cpus(monkeypatch, 2)
    monkeypatch.setattr(geodesy, "_csgraph_dijkstra", broken)
    with pytest.raises(RuntimeError):
        graph.distances_from(cells)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_children(monkeypatch, log, slow_cpu=None, delay=0.0):
    """Make each sweep child append "cpu index" to `log` for every source it
    sweeps, where cpu is the one it moved to first, and the child started on
    `slow_cpu` sleep `delay` s per source.  No child really moves; each must
    allow every usable CPU again before it sweeps."""
    moves = []  # the child's sched_setaffinity calls, in the child only
    sweep = geodesy._csgraph_dijkstra

    def recording(matrix, directed, indices):
        (cpu,), usable = moves
        assert usable == os.sched_getaffinity(0)
        if cpu == slow_cpu:
            time.sleep(delay)
        with open(log, "a") as f:
            f.write(f"{cpu} {int(indices[0])}\n")
        return sweep(matrix, directed=directed, indices=indices)

    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: moves.append(cpus))
    monkeypatch.setattr(geodesy, "_csgraph_dijkstra", recording)


def swept(log):
    """{cpu: number of sources its child swept} from a `record_children` log."""
    counts = {}
    for line in log.read_text().splitlines():
        cpu = int(line.split()[0])
        counts[cpu] = counts.get(cpu, 0) + 1
    return counts


def test_each_child_starts_on_its_own_cpu_and_sweeps_one_source_a_time(
        large, monkeypatch, tmp_path):
    graph = large("torus3")
    cells = [4, 8, 15, 16, 23, 42]
    want = inline_sweeps(graph, cells)
    fake_cpus(monkeypatch, 3)
    log = tmp_path / "sweeps"
    record_children(monkeypatch, log)
    table = graph.distances_from(cells)
    h = graph._stencil.m // 2 + 1
    rows = [line.split() for line in log.read_text().splitlines()]
    assert {int(cpu) for cpu, _ in rows} == {0, 1, 2}
    assert sorted(int(index) for _, index in rows) == sorted(c * h for c in cells)
    assert np.array_equal(table, want)


def test_a_slow_child_sweeps_fewer_sources(large, monkeypatch, tmp_path):
    # child 0 needs 2 s a source: the other child sweeps the rest meanwhile
    graph = large("surface")
    cells = [0, 1, 2, 3, 4, 5]
    want = inline_sweeps(graph, cells)
    fake_cpus(monkeypatch, 2)
    log = tmp_path / "sweeps"
    record_children(monkeypatch, log, slow_cpu=0, delay=2.0)
    table = graph.distances_from(cells)
    assert swept(log) == {0: 1, 1: 5}
    assert np.array_equal(table, want)
