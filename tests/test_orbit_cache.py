"""The per-graph orbit cache behind the experiments' pair lookups.

Edge weights of the surface grid depend only on the start row, and those of
the 3-torus grid only on (x, y), so translations along the fiber (z) map
each graph onto itself; a graph whose built weights are also equal across
rows (xy sheets) is invariant along every axis.  The cache answers a pair
from one sweep per source orbit, which must give bit-for-bit the value a
direct sweep from the pair's own source gives.  Sweeps of several cells fan
out to threads, one started on each CPU, which take the cells one at a
time; their table must equal a one-thread call and scipy's sweeps on the
folded triplet oracle bit for bit.
"""

import functools
import os
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from oracle import graph_reference, oracle_sweeps, reference_fold
from warpconv import (
    ConstantProfile,
    FiberSpace,
    GridGraph,
    GridSpec,
    SequenceFamily,
    SurfacePoint,
    WarpedSpace,
    circle_base,
    interval_base,
    run_family_experiment,
)
from warpconv import geodesy
from warpconv.torus3 import (
    BumpField,
    ConstantField,
    Grid3Graph,
    Grid3Spec,
    Point3,
    Torus3Family,
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
        (SurfacePoint(-1.0, 0.3), SurfacePoint(1.2, 2.9))),
    "torus3": lambda: (
        Grid3Graph,
        Grid3Graph(BumpField(1.0, 2.0, (0.5, 0.5), 1.0), Grid3Spec(32)),
        (Point3(-1.0, 0.3, 2.0), Point3(1.2, 2.9, -0.5))),
}


@pytest.mark.parametrize("kind", sorted(SINGLE_PAIR))
def test_single_pair_distance_reads_the_orbit_cache(kind, monkeypatch, full_rows):
    cls, graph, (p, q) = SINGLE_PAIR[kind]()
    calls = record_sweeps(monkeypatch, cls)
    (src, _), (dst, _) = graph.snap(p), graph.snap(q)
    first = graph.pair_distances([(src, dst)])
    assert len(calls) == 1
    # the pair's source orbit is on the graph now: the repeat sweeps nothing
    assert graph.pair_distances([(src, dst)]) == first
    assert len(calls) == 1
    assert first[0] == full_rows(graph, [src])[0, dst]


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
        assert graph.error_bound(d) == graph.aniso_bound * d + 1e-9


# ---------------------------------------------------------------------------
# Sweeps of several cells fan out to threads


FANNED = {
    "surface": lambda: GridGraph(SequenceFamily("cinched-torus").space(2),
                                 GridSpec(256, 256, 2)),
    "torus3": lambda: Grid3Graph(BumpField(1.0, 2.0, (0.5, 0.5), 1.0),
                                 Grid3Spec(32)),
}


@pytest.fixture(scope="module")
def fanned():
    """(graph, its folded triplet oracle), each built once for this module."""

    @functools.cache
    def build(kind):
        graph = FANNED[kind]()
        return graph, reference_fold(graph_reference(graph)[0], graph._stencil.m)

    return build


def fake_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_threads(monkeypatch):
    """Count the threads `distances_from` starts; returns the list of them."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(geodesy.threading, "Thread", Counted)
    return started


def record_cells(monkeypatch, delay_on=None, delay=0.0, threads=None):
    """Log (thread, cell) for every cell `_sweep_cell` sweeps, where thread
    is the CPU the sweeping thread moved to first, and make the thread on
    `delay_on` sleep `delay` s per cell.  No thread really moves; each must
    allow every usable CPU again before it sweeps.  With `threads` given,
    each thread waits before its first sweep until that many threads have
    taken a cell, so none can sweep every cell before another starts."""
    moves = {}  # thread ident -> its sched_setaffinity calls
    log = []
    sweep = geodesy._sweep_cell
    barrier = threading.Barrier(threads, timeout=60) if threads else None
    waited = set()

    def moving(pid, cpus):
        assert pid == 0
        moves.setdefault(threading.get_ident(), []).append(set(cpus))

    def recording(stencil, cell, row, succ, pred):
        (cpu,), usable = moves[threading.get_ident()]
        assert usable == os.sched_getaffinity(0)
        if barrier is not None and cpu not in waited:
            waited.add(cpu)
            barrier.wait()
        if cpu == delay_on:
            time.sleep(delay)
        log.append((cpu, cell))
        sweep(stencil, cell, row, succ, pred)

    monkeypatch.setattr(os, "sched_setaffinity", moving)
    monkeypatch.setattr(geodesy, "_sweep_cell", recording)
    return log


@pytest.mark.parametrize("cpus", [None, 3], ids=["usable-cpus", "three-cpus"])
@pytest.mark.parametrize("kind", sorted(FANNED))
def test_fanned_out_sweeps_equal_one_inline_call(kind, cpus, fanned, monkeypatch):
    graph, folded = fanned(kind)
    cells = [5, 0, 17, 3, 9]  # unsorted, and more cells than threads
    if cpus is not None:
        fake_cpus(monkeypatch, cpus)
    threads = count_threads(monkeypatch)
    table = graph.distances_from(cells)
    workers = min(len(cells), len(os.sched_getaffinity(0)))
    assert len(threads) == (workers if workers > 1 else 0)
    assert not any(t.is_alive() for t in threads)
    fake_cpus(monkeypatch, 1)
    one_thread = graph.distances_from(cells)
    want = oracle_sweeps(folded, graph._stencil.m, cells)
    assert table.dtype == want.dtype == np.float64
    assert table.shape == one_thread.shape == want.shape
    assert np.array_equal(table, one_thread)
    assert np.array_equal(table, want)


def test_single_cells_and_one_cpu_sweep_on_the_calling_thread(fanned,
                                                              monkeypatch):
    graph, folded = fanned("surface")
    m = graph._stencil.m

    def no_thread(*args, **kwargs):
        raise AssertionError("started a thread")

    def no_move(pid, cpus):
        raise AssertionError("moved the calling thread")

    monkeypatch.setattr(geodesy.threading, "Thread", no_thread)
    monkeypatch.setattr(os, "sched_setaffinity", no_move)
    fake_cpus(monkeypatch, 2)
    assert np.array_equal(graph.distances_from([7]), oracle_sweeps(folded, m, [7]))
    fake_cpus(monkeypatch, 1)
    assert np.array_equal(graph.distances_from([1, 2, 3]),
                          oracle_sweeps(folded, m, [1, 2, 3]))
    assert graph.distances_from([]).shape == (0, folded.shape[0])


def test_cpus_are_counted_where_the_platform_has_no_affinity(fanned,
                                                            monkeypatch):
    graph, folded = fanned("torus3")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delattr(os, "sched_setaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert geodesy._usable_cpus() == [0, 1, 2]
    threads = count_threads(monkeypatch)
    cells = [1, 2, 3, 4]
    table = graph.distances_from(cells)
    assert len(threads) == 3
    assert np.array_equal(table, oracle_sweeps(folded, graph._stencil.m, cells))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert geodesy._usable_cpus() == [0]


def test_cells_outside_the_base_are_refused(fanned):
    graph, _ = fanned("surface")
    for cells in ([-1], [0, graph.n_rows]):
        with pytest.raises(IndexError):
            graph.distances_from(cells)


@pytest.mark.parametrize("failing", ["first", "every"])
def test_failed_worker_raises_and_caches_no_row(failing, fanned, monkeypatch):
    graph, _ = fanned("surface")
    graph._orbit_rows.clear()
    m = graph._stencil.m
    pairs = [(cell * m, 5) for cell in (40, 41, 42, 43)]
    sweep = geodesy._sweep_cell

    def broken(stencil, cell, row, succ, pred):
        if failing == "every" or cell == 40:
            raise MemoryError("sweep failed")
        sweep(stencil, cell, row, succ, pred)

    fake_cpus(monkeypatch, 2)
    threads = count_threads(monkeypatch)
    monkeypatch.setattr(geodesy, "_sweep_cell", broken)
    with pytest.raises(MemoryError, match="sweep failed"):
        graph.pair_distances(pairs)
    assert len(threads) == 2
    assert not any(t.is_alive() for t in threads)
    assert graph._orbit_rows == {}
    monkeypatch.setattr(geodesy, "_sweep_cell", sweep)
    assert len(graph.pair_distances(pairs)) == 4
    assert graph._orbit_rows.keys() == {40, 41, 42, 43}


def test_each_worker_starts_on_its_own_cpu_and_sweeps_one_cell_at_a_time(
        fanned, monkeypatch):
    graph, folded = fanned("torus3")
    cells = [4, 8, 15, 16, 23, 42]
    fake_cpus(monkeypatch, 3)
    log = record_cells(monkeypatch, threads=3)
    table = graph.distances_from(cells)
    assert {cpu for cpu, _ in log} == {0, 1, 2}
    assert sorted(cell for _, cell in log) == cells
    assert np.array_equal(table, oracle_sweeps(folded, graph._stencil.m, cells))


def test_a_slow_worker_sweeps_fewer_cells(fanned, monkeypatch):
    # the thread on CPU 0 needs 1 s a cell: the other sweeps the rest meanwhile
    graph, folded = fanned("surface")
    cells = [0, 1, 2, 3, 4, 5]
    fake_cpus(monkeypatch, 2)
    log = record_cells(monkeypatch, delay_on=0, delay=1.0, threads=2)
    table = graph.distances_from(cells)
    assert Counter(cpu for cpu, _ in log) == {0: 1, 1: 5}
    assert np.array_equal(table, oracle_sweeps(folded, graph._stencil.m, cells))


def test_many_workers_sweep_every_cell_once(fanned, monkeypatch):
    # more threads than CPUs, switching as often as the interpreter allows:
    # a lost update of the shared cell iterator would sweep a cell twice or
    # leave a row unwritten
    graph, _ = fanned("torus3")
    cells = list(range(0, 1024, 16))
    fake_cpus(monkeypatch, 1)
    want = graph.distances_from(cells)
    fake_cpus(monkeypatch, 8)
    log = record_cells(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        table = graph.distances_from(cells)
        assert time.monotonic() - start < 60
    finally:
        sys.setswitchinterval(interval)
    assert sorted(cell for _, cell in log) == cells
    assert len({cpu for cpu, _ in log}) > 1
    assert np.array_equal(table, want)
