"""The per-graph orbit sweeps behind the experiments' pair lookups.

Edge weights of the surface grid depend only on the start row, and those of
the 3-torus grid only on (x, y), so translations along the fiber (z) map
each graph onto itself; a graph whose every direction is one translation of
a wrapped base lattice with one weight is invariant along every axis.  A
bump lattice on a circle or on an interval symmetric about 0 builds weights
that the base mirror r -> -r maps onto themselves bit for bit, so a row and
its mirror image share one orbit; one weight off by an ulp must refuse the
mirror.  `pair_distances` answers a pair from one sweep per source orbit,
which must give bit for bit the value a direct sweep from the pair's own
source (and scipy's) gives, and keeps no row: an experiment reads each
graph once, so each source orbit is swept once per graph.  Sweeps
of several cells are mapped over a thread pool of at most one thread per
usable CPU, whose threads take the cells one at a time; their table must
equal a one-thread call and scipy's sweeps on the folded triplet oracle bit
for bit.  The thread tests tell the pool's threads apart by their idents.
"""

import functools
import math
import os
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import (
    graph_reference,
    mirror_start_rows,
    oracle_sweeps,
    reference_fold,
)
from warpconv import (
    TAU,
    BumpLatticeProfile,
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
from warpconv import _sweep, geodesy
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
    # no row is kept: a second lookup sweeps again, to the same values
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


def direct_pair_distances(cache, pairs):
    """Each pair's distance read from a direct sweep of its source's own
    cell, rolled by the source's fiber position and folded by the mirror."""
    m = cache._stencil.m
    a, b = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    sources = sorted(set((a // m).tolist()))
    rows = cache.distances_from(sources).reshape(len(sources), -1, m // 2 + 1)
    z = np.abs((b - a + m // 2) % m - m // 2)
    return [float(rows[sources.index(ca), cb, k])
            for ca, cb, k in zip((a // m).tolist(), (b // m).tolist(), z.tolist())]


def test_a_direction_on_some_cells_only_is_not_a_translation():
    # a 6-cell circle times a fiber of 8: unit axis steps everywhere, and a
    # fiber step of 2 at weight 0.5 from cells 2 and 3 only, so node 16
    # (cell 2, z = 0) reaches node 20 (cell 2, z = 4) in two such steps
    # while cell 0 needs four axis steps
    cells = np.arange(6)
    axes = [(cells, (cells + 1) % 6, 0, np.ones(6)), (cells, cells, 1, np.ones(6))]
    some = np.array([2, 3])
    partial = geodesy.OrbitSweepCache(
        (6,), 8, axes + [(some, some, 2, np.full(2, 0.5))], True)
    assert not partial.base_invariant
    assert partial.pair_distances([(16, 20)]) == [1.0]
    assert direct_pair_distances(partial, [(16, 20)]) == [1.0]
    # every cell, but the targets are cycled in two groups of three, not
    # moved by one offset
    cycled = np.array([1, 2, 0, 4, 5, 3])
    uneven = geodesy.OrbitSweepCache(
        (6,), 8, axes + [(cells, cycled, 3, np.full(6, 0.5))], True)
    assert not uneven.base_invariant
    pairs = [(a, b) for a in range(48) for b in range(48)]
    assert uneven.pair_distances(pairs) == direct_pair_distances(uneven, pairs)
    assert geodesy.OrbitSweepCache((6,), 8, axes, True).base_invariant
    assert not geodesy.OrbitSweepCache((6,), 8, axes, False).base_invariant


@st.composite
def wrapped_stencils(draw):
    """(base shape, m, directions, whether every direction is a translation
    with one weight) for a small wrapped lattice times a fiber.  A direction
    moves cells by a lattice offset and the fiber by +-dz; it starts on
    every cell or on some, with one weight or a weight per cell.  No two
    edge slots of a cell share a (target, step)."""
    shape = tuple(draw(st.lists(st.integers(3, 5), min_size=1, max_size=2)))
    m = draw(st.integers(4, 9))
    n_cells = math.prod(shape)
    grid = np.indices(shape).reshape(len(shape), -1)
    taken, directions, translations = set(), [], True
    for _ in range(draw(st.integers(1, 5))):
        offset = tuple(draw(st.integers(-1, 2)) % n for n in shape)
        back = tuple(-o % n for o, n in zip(offset, shape))
        dz = draw(st.integers(0, m // 2))
        signs = (dz, -dz) if dz else (0,)
        slots = [(offset, s) for s in signs]
        if any(offset):
            slots += [(back, -s) for s in signs]
        if not (any(offset) or dz) or len(set(slots)) < len(slots) \
                or taken.intersection(slots):
            continue
        taken.update(slots)
        src = np.arange(n_cells)
        if draw(st.booleans()):
            keep = draw(st.lists(st.booleans(), min_size=n_cells,
                                 max_size=n_cells).filter(any))
            src = src[np.array(keep)]
        dst = np.ravel_multi_index(
            tuple((grid[:, src].T + offset).T), shape, mode="wrap")
        weight = st.floats(0.25, 2.0, allow_nan=False, allow_infinity=False)
        if draw(st.booleans()):
            w = np.full(src.size, draw(weight))
        else:
            w = np.array(draw(st.lists(weight, min_size=src.size,
                                       max_size=src.size)))
        translations = translations and src.size == n_cells and bool(
            np.all(w == w[0]))
        directions.append((src, dst, dz, w))
    if not directions:
        directions.append((np.arange(n_cells), np.arange(n_cells), 1,
                           np.ones(n_cells)))
    return shape, m, directions, translations


@settings(max_examples=150, deadline=None)
@given(wrapped_stencils())
def test_orbit_cache_equals_direct_sweeps_on_random_wrapped_stencils(stencil):
    shape, m, directions, translations = stencil
    cache = geodesy.OrbitSweepCache(shape, m, directions, True)
    assert cache.base_invariant == translations
    n_nodes = math.prod(shape) * m
    pairs = [(a, b) for a in range(n_nodes) for b in range(n_nodes)]
    assert cache.pair_distances(pairs) == direct_pair_distances(cache, pairs)


def record_sweeps(monkeypatch, cls):
    """Replace cls.distances_from with a wrapper logging (graph, sources)."""
    calls = []
    sweep = cls.distances_from

    def recording(self, sources, columns=None):
        sources = list(sources)
        assert sources, "distances_from called without sources"
        calls.append((self, sources))
        return sweep(self, sources, columns)

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


def test_each_graph_is_built_and_read_once(monkeypatch, held_rows):
    # three stages on one grid against the cinched limit and the naive
    # product: each reference is built at the first stage and read there
    # for all three, one sweep per source orbit of the plans' union
    builds = []
    init = GridGraph.__init__

    def built(graph, *args, **kwargs):
        init(graph, *args, **kwargs)
        builds.append(graph)

    monkeypatch.setattr(GridGraph, "__init__", built)
    calls = record_sweeps(monkeypatch, GridGraph)
    fam = SequenceFamily("cinched-torus")
    j_list = [1, 2, 4]
    plans = [fam.sample_plan(j, n_sources=3, n_targets=5, offset=1)
             for j in j_list]
    run_family_experiment(fam, j_list, grid=GridSpec(48, 48, 2), n_sources=3,
                          n_targets=5, with_wrong_limit=True, seed=1)
    assert [graph for graph, _ in calls] == builds
    stage_1, cinched, product, stage_2, stage_4 = builds
    assert [g.space for g in (stage_1, stage_2, stage_4)] == [
        fam.space(j) for j in j_list]

    def source_rows(graph, some_plans):
        return sorted({graph.snap(a)[0] // graph.n_theta
                       for plan in some_plans for a, _ in plan.pairs()})

    swept = dict((id(graph), sources) for graph, sources in calls)
    for graph, plan in zip((stage_1, stage_2, stage_4), plans):
        assert swept[id(graph)] == source_rows(graph, [plan])
    assert not cinched.base_invariant
    assert swept[id(cinched)] == source_rows(cinched, plans)
    assert len(swept[id(cinched)]) > len(source_rows(cinched, plans[:1]))
    assert product.base_invariant and swept[id(product)] == [0]
    assert not any(held_rows(graph) for graph in builds)
    # no pairs, no sweep
    assert stage_1.pair_distances([]) == []
    assert len(calls) == len(builds)


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
    # the graph keeps no row: the repeat sweeps the one orbit again
    assert graph.pair_distances([(src, dst)]) == first
    assert len(calls) == 2 and calls[1][1] == calls[0][1]
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


def record_cells(monkeypatch, slow_cell=None, delay=0.0, threads=None):
    """Log (thread ident, cell) for every cell `_sweep_cell` sweeps, and make
    the thread whose first cell is `slow_cell` sleep `delay` s before each
    cell it sweeps.  No thread may change its CPU affinity.  With `threads`
    given, each thread but the caller waits before its first sweep until
    that many threads have taken a cell, so none can sweep every cell
    before another starts."""
    log = []
    sweep = geodesy._sweep_cell
    barrier = threading.Barrier(threads, timeout=60) if threads else None
    seen, slow = {threading.get_ident()}, set()

    def no_move(pid, cpus):
        raise AssertionError("a sweep changed its thread's CPU affinity")

    def recording(stencil, cell, row):
        me = threading.get_ident()
        if me not in seen:
            seen.add(me)
            if cell == slow_cell:
                slow.add(me)
            if barrier is not None:
                barrier.wait()
        if me in slow:
            time.sleep(delay)
        log.append((me, cell))
        sweep(stencil, cell, row)

    monkeypatch.setattr(os, "sched_setaffinity", no_move, raising=False)
    monkeypatch.setattr(geodesy, "_sweep_cell", recording)
    return log


def sweeping_threads(log):
    """The idents of the threads that swept the logged cells, after checking
    that none of them, the calling thread apart, is still alive."""
    idents = {ident for ident, _ in log}
    workers = idents - {threading.get_ident()}
    assert not workers & {t.ident for t in threading.enumerate()}
    return idents


@pytest.mark.parametrize("cpus", [None, 3], ids=["usable-cpus", "three-cpus"])
@pytest.mark.parametrize("kind", sorted(FANNED))
def test_fanned_out_sweeps_equal_one_inline_call(kind, cpus, fanned, monkeypatch):
    graph, folded = fanned(kind)
    cells = [5, 0, 17, 3, 9]  # unsorted, and more cells than threads
    if cpus is not None:
        fake_cpus(monkeypatch, cpus)
    workers = min(len(cells), geodesy._usable_cpus())
    log = record_cells(monkeypatch, threads=workers if workers > 1 else None)
    table = graph.distances_from(cells)
    idents = sweeping_threads(log)
    if workers > 1:
        assert len(idents) == workers
        assert threading.get_ident() not in idents
    else:
        assert idents == {threading.get_ident()}
    assert sorted(cell for _, cell in log) == sorted(cells)
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

    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool")

    monkeypatch.setattr(geodesy, "ThreadPoolExecutor", no_pool)
    log = record_cells(monkeypatch)
    fake_cpus(monkeypatch, 2)
    assert np.array_equal(graph.distances_from([7]), oracle_sweeps(folded, m, [7]))
    fake_cpus(monkeypatch, 1)
    assert np.array_equal(graph.distances_from([1, 2, 3]),
                          oracle_sweeps(folded, m, [1, 2, 3]))
    assert graph.distances_from([]).shape == (0, folded.shape[0])
    assert [cell for _, cell in log] == [7, 1, 2, 3]
    assert sweeping_threads(log) == {threading.get_ident()}


def test_cpus_are_counted_where_the_platform_has_no_affinity(fanned,
                                                            monkeypatch):
    graph, folded = fanned("torus3")
    log = record_cells(monkeypatch, threads=3)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delattr(os, "sched_setaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert geodesy._usable_cpus() == 3
    cells = [1, 2, 3, 4]
    table = graph.distances_from(cells)
    assert len(sweeping_threads(log)) == 3
    assert np.array_equal(table, oracle_sweeps(folded, graph._stencil.m, cells))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert geodesy._usable_cpus() == 1


def test_cells_outside_the_base_are_refused(fanned):
    graph, folded = fanned("surface")
    for cells in ([-1], [0, graph.n_rows]):
        with pytest.raises(IndexError):
            graph.distances_from(cells)
    for columns in ([-1], [0, folded.shape[0]]):
        with pytest.raises(IndexError):
            graph.distances_from([0], columns)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("kind", sorted(FANNED))
def test_columns_are_read_from_each_row(kind, cpus, fanned, monkeypatch):
    # each sweeping thread allocates one row buffer, at its first cell,
    # sweeps every later cell into it and copies the asked columns out
    graph, folded = fanned(kind)
    cells = [5, 0, 17, 3, 9, 11]
    columns = [7, 0, folded.shape[0] - 1, 7, 123]  # unsorted, one repeated
    fake_cpus(monkeypatch, cpus)
    log = record_cells(monkeypatch, threads=cpus if cpus > 1 else None)
    rows = []  # (thread ident, row): keeping the rows keeps their ids apart
    recording = geodesy._sweep_cell

    def keeping(stencil, cell, row):
        rows.append((threading.get_ident(), row))
        recording(stencil, cell, row)

    monkeypatch.setattr(geodesy, "_sweep_cell", keeping)
    table = graph.distances_from(cells, columns)
    buffers = {(ident, id(row)) for ident, row in rows}
    assert sorted(ident for ident, _ in buffers) == sorted(sweeping_threads(log))
    assert len(buffers) == cpus
    assert all(row.shape == folded.shape[:1] for _, row in rows)
    want = oracle_sweeps(folded, graph._stencil.m, cells)
    assert np.array_equal(table, want[:, columns])
    assert graph.distances_from(cells, []).shape == (len(cells), 0)


@pytest.mark.parametrize("failing", ["first", "every"])
def test_failed_worker_raises_and_caches_no_row(failing, fanned, monkeypatch,
                                               held_rows):
    graph, _ = fanned("surface")
    m = graph._stencil.m
    pairs = [(cell * m, 5) for cell in (40, 41, 42, 43)]
    sweep = geodesy._sweep_cell

    def broken(stencil, cell, row):
        if failing == "every" or cell == 40:
            raise MemoryError("sweep failed")
        sweep(stencil, cell, row)

    fake_cpus(monkeypatch, 2)
    monkeypatch.setattr(geodesy, "_sweep_cell", broken)
    log = record_cells(monkeypatch, threads=2)
    with pytest.raises(MemoryError, match="sweep failed"):
        graph.pair_distances(pairs)
    assert len(sweeping_threads(log)) == 2
    assert held_rows(graph) == []
    monkeypatch.setattr(geodesy, "_sweep_cell", sweep)
    assert len(graph.pair_distances(pairs)) == 4
    assert held_rows(graph) == []


@pytest.mark.parametrize("failing", ["first", "every"])
def test_a_kernel_out_of_memory_raises_and_holds_no_row(failing, fanned,
                                                       monkeypatch, held_rows):
    # a stand-in kernel that returns the status the real one returns when
    # it cannot allocate or grow its queue
    graph, _ = fanned("surface")
    m = graph._stencil.m
    pairs = [(cell * m, 5) for cell in (40, 41, 42, 43)]
    kernel = geodesy._kernel_sweep

    def no_memory(n_cells, m, start, target, step, weight, cell, row, pool):
        if failing == "every" or cell == 40:
            return _sweep.NO_MEMORY
        return kernel(n_cells, m, start, target, step, weight, cell, row, pool)

    fake_cpus(monkeypatch, 2)
    monkeypatch.setattr(geodesy, "_kernel_sweep", no_memory)
    log = record_cells(monkeypatch, threads=2)
    with pytest.raises(MemoryError, match="from cell 40 could not allocate"):
        graph.pair_distances(pairs)
    assert len(sweeping_threads(log)) == 2
    assert held_rows(graph) == []
    # without the barrier, which a new thread reusing an old ident would
    # leave waiting
    monkeypatch.undo()
    fake_cpus(monkeypatch, 2)
    assert len(graph.pair_distances(pairs)) == 4
    assert held_rows(graph) == []


def test_a_slow_worker_sweeps_fewer_cells(fanned, monkeypatch):
    # the thread that takes cell 0 needs 1 s a cell: the other sweeps the
    # rest meanwhile
    graph, folded = fanned("surface")
    cells = [0, 1, 2, 3, 4, 5]
    fake_cpus(monkeypatch, 2)
    log = record_cells(monkeypatch, slow_cell=0, delay=1.0, threads=2)
    table = graph.distances_from(cells)
    per_thread = Counter(ident for ident, _ in log)
    (slow,) = [ident for ident, cell in log if cell == 0]
    assert per_thread[slow] == 1
    assert sorted(per_thread.values()) == [1, 5]
    assert np.array_equal(table, oracle_sweeps(folded, graph._stencil.m, cells))


def test_many_workers_sweep_every_cell_once(fanned, monkeypatch):
    # more threads than CPUs, switching as often as the interpreter allows:
    # a cell handed out twice would be swept twice, a lost one would leave
    # its row unwritten
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
    assert len(sweeping_threads(log)) > 1
    assert np.array_equal(table, want)


# ---------------------------------------------------------------------------
# The base mirror r -> -r pairs the rows of a bump lattice's graph


def oracle_pair_distances(graph, pairs):
    """Each pair's distance read from scipy's sweep of the pair's own source
    cell on the graph's folded triplet oracle."""
    m = graph._stencil.m
    folded = reference_fold(graph_reference(graph)[0], m)
    a, b = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    sources = sorted(set((a // m).tolist()))
    table = oracle_sweeps(folded, m, sources)
    columns = (b // m) * (m // 2 + 1) + np.abs((b - a + m // 2) % m - m // 2)
    return [float(table[sources.index(ca), col])
            for ca, col in zip((a // m).tolist(), columns.tolist())]


@st.composite
def mirrored_lattice_graphs(draw):
    """A surface grid of a random bump lattice, its peak above or below its
    level, on a circle or on an interval symmetric about 0, with an even or
    odd number of subdivisions per axis and k = 1, 2 or 3."""
    cells = draw(st.integers(2, 9))
    level = draw(st.floats(0.5, 2.0))
    peak = level * draw(st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 3.0)))
    half_width = draw(st.floats(0.05, 0.5)) * (TAU / cells)
    if draw(st.booleans()):
        base = circle_base()
    else:
        a = draw(st.floats(1.0, 4.0))
        base = interval_base(-a, a)
    space = WarpedSpace(base, FiberSpace(),
                        BumpLatticeProfile(level, peak, cells, half_width))
    spec = GridSpec(draw(st.integers(8, 21)), draw(st.integers(8, 13)),
                    draw(st.integers(1, 3)))
    return GridGraph(space, spec)


@settings(max_examples=150, deadline=None)
@given(mirrored_lattice_graphs(), st.integers(0, 2 ** 32 - 1))
def test_mirrored_lattice_sweeps_equal_unmirrored_ones_and_scipy(graph, seed):
    rows = np.arange(graph.n_rows)
    mirror = mirror_start_rows(graph, rows, 0)
    assert graph.base_invariant or np.array_equal(graph.base_mirror, mirror)
    # sources in some rows and in their mirror images, any targets
    rng = np.random.default_rng(seed)
    some = rng.choice(rows, size=min(4, rows.size), replace=False)
    sources = np.concatenate((some, mirror[some], rng.choice(rows, 2)))
    m = graph.n_theta
    pairs = [(int(row * m + rng.integers(m)), int(rng.integers(graph.n_nodes)))
             for row in sources for _ in range(5)]
    got = graph.pair_distances(pairs)
    # the graph's own weights, given no base mirror
    unmirrored = geodesy.OrbitSweepCache((graph.n_rows,), m, graph._directions(),
                                         graph.space.base.is_circle)
    assert unmirrored.base_mirror is None
    assert got == unmirrored.pair_distances(pairs)
    assert got == oracle_pair_distances(graph, pairs)
    if not graph.base_invariant:
        # one sweep per mirror pair of source rows
        a, b = np.asarray(pairs).T
        reps = graph._orbit(a, b)[0]
        assert set(reps.tolist()) == set(np.minimum(sources, mirror[sources]).tolist())


def test_a_base_mirror_must_be_an_involution():
    cells = np.arange(6)
    axes = [(cells, (cells + 1) % 6, 0, np.ones(6)), (cells, cells, 1, np.ones(6))]
    assert np.array_equal(geodesy.OrbitSweepCache(
        (6,), 8, axes, False, -cells % 6).base_mirror, -cells % 6)
    for mirror in ([1, 2, 0, 3, 4, 5], [0, 5, 4, 3, 2], [0, 5, 4, 3, 2, 7]):
        with pytest.raises(ValueError, match="involution"):
            geodesy.OrbitSweepCache((6,), 8, axes, False, mirror)


def test_one_weight_off_by_an_ulp_refuses_the_mirror(monkeypatch):
    graph = GridGraph(SequenceFamily("ret-cinches").space(1), GridSpec(48, 48, 2))
    m = graph.n_theta
    # rows 3 and 45, 10 and 38 are mirror pairs; 0 and 24 are fixed
    rows = [3, 45, 10, 38, 0, 24, 7]
    pairs = [(r * m + 5 * r % m, t) for r in rows for t in range(0, graph.n_nodes, 97)]
    assert np.array_equal(graph.base_mirror, -np.arange(48) % 48)
    log = record_cells(monkeypatch)
    graph.pair_distances(pairs)
    assert sorted(cell for _, cell in log) == [0, 3, 7, 10, 24]
    weights = graph._direction_weights

    def nudged(di, dj):
        # the (1, +-1) edge from row 5, whose image starts in row 42
        idx, w = weights(di, dj)
        if (di, abs(dj)) == (1, 1):
            w = w.copy()
            w[5] = np.nextafter(w[5], np.inf)
        return idx, w

    monkeypatch.setattr(graph, "_direction_weights", nudged)
    cache = geodesy.OrbitSweepCache((48,), m, graph._directions(), True,
                                    graph.base_mirror)
    assert cache.base_mirror is None and not cache.base_invariant
    log.clear()
    got = cache.pair_distances(pairs)
    assert sorted(cell for _, cell in log) == sorted(rows)
    assert got == direct_pair_distances(cache, pairs)
    assert got == oracle_pair_distances(graph, pairs)


def record_pairs(monkeypatch):
    """Log the pairs of every `pair_distances` call by graph."""
    calls = {}
    read = geodesy.OrbitSweepCache.pair_distances

    def recording(self, pairs):
        calls.setdefault(id(self), (self, []))[1].extend(pairs)
        return read(self, pairs)

    monkeypatch.setattr(geodesy.OrbitSweepCache, "pair_distances", recording)
    return calls


@pytest.mark.parametrize("kind, j, rows, sweeps", [
    # ret-large's seed-0 plan: stage and stretched-mix reference, 1024^2
    ("ret-cinches", 1, [9, 9], [6, 6]),
    # cinch-audit's j=8 stage; `BumpProfile` builds its own-row weights
    ("cinched-torus", 8, [10, 10], [10, 10]),
])
def test_mirror_sweeps_one_row_of_each_pair(kind, j, rows, sweeps, monkeypatch):
    pairs = record_pairs(monkeypatch)
    calls = record_sweeps(monkeypatch, GridGraph)
    log = record_cells(monkeypatch)
    run_family_experiment(SequenceFamily(kind), [j], seed=0)
    per_graph = sources_by_graph(calls)
    graphs = [graph for graph, _ in per_graph]
    source_rows = [len({a // graph.n_theta for a, _ in pairs[id(graph)][1]})
                   for graph in graphs]
    swept = [len(sources) for _, sources in per_graph]
    assert (source_rows, swept) == (rows, sweeps)
    assert len(log) == sum(sweeps)
    assert [graph.base_mirror is not None for graph in graphs] == [
        kind == "ret-cinches"] * 2
