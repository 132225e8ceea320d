"""A swept row lives only while its sweep runs.

`OrbitSweepCache.distances_from` gives each sweeping thread one row buffer,
8 bytes per folded node, and copies out only the columns asked for, so
`pair_distances` holds at most one row per thread, plus its table of read
entries, however many source orbits it sweeps, and leaves no row on the
graph.  That peak is measured with `tracemalloc`, which sees numpy's
buffers.  The kernel's bucket queue is a pool of entries that the C code
allocates and frees within each sweep, which `tracemalloc` cannot see: a
fresh process's peak resident set (`ru_maxrss`) bounds the rows and pools
of two sweeping threads on a 1024^2 grid together, and a process whose
address space is too small for the pool gets MemoryError, not a crash.
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from warpconv import GridGraph, GridSpec, SequenceFamily, geodesy

SRC = Path(__file__).resolve().parents[1] / "src"
# ru_maxrss in KiB, /proc/self/statm and an enforced RLIMIT_AS
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads Linux process accounting")


@pytest.fixture(scope="module")
def graph():
    return GridGraph(SequenceFamily("cinched-torus").space(2),
                     GridSpec(256, 256, 2))


def pairs_from_rows(graph, rows, targets, seed):
    """`targets` pairs from a random node of each row to random nodes."""
    rng = np.random.default_rng(seed)
    return [(int(row * graph.n_theta + rng.integers(graph.n_theta)),
             int(rng.integers(graph.n_nodes)))
            for row in rows for _ in range(targets)]


@pytest.mark.parametrize("cpus", [1, 2, None], ids=["one-cpu", "two-cpus",
                                                    "usable-cpus"])
@pytest.mark.parametrize("sources", [4, 16])
def test_pair_distances_holds_one_row_per_thread(graph, sources, cpus,
                                                 monkeypatch, held_rows,
                                                 full_rows):
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
    rows = np.linspace(0, graph.n_rows, sources, endpoint=False).astype(int)
    pairs = pairs_from_rows(graph, rows, 24, seed=sources)
    folded = graph.n_rows * (graph.n_theta // 2 + 1)
    # the kernel's row (float64); its queue pool is C memory, which
    # tracemalloc does not see (test_two_threads_hold_two_rows_and_pools)
    per_thread = 8 * folded
    workers = min(sources, geodesy._usable_cpus())
    # the table of read entries, and index arrays and Python floats per pair
    bound = (workers * per_thread + 8 * sources * len(pairs)
             + 256 * len(pairs) + 128 * 1024)
    tracemalloc.start()
    try:
        values = graph.pair_distances(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)
    assert held_rows(graph) == []
    sources_of = sorted({a for a, _ in pairs})
    table = full_rows(graph, sources_of)
    assert values == [float(table[sources_of.index(a), b]) for a, b in pairs]


def run_fresh(script: str) -> str:
    """Standard output of `script` run in a fresh interpreter on the
    sources under test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@linux_only
def test_two_threads_hold_two_rows_and_pools():
    # the ret-cinches stage at 1024^2: 525 312 folded nodes, a 4 MiB row.
    # Two threads each take a cell before either sweeps, so both rows and
    # both queue pools are alive at once; the pools peak at a few thousand
    # 16-byte entries.  Building the graph leaves the peak resident set
    # within a fraction of a MiB of the resident set, so its rise over the
    # sweeps is what they add.
    out = run_fresh("""
        import os, resource, threading
        from warpconv import GridGraph, GridSpec, SequenceFamily, geodesy

        def peak_kib():
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        os.sched_getaffinity = lambda pid: {0, 1}
        graph = GridGraph(SequenceFamily("ret-cinches").space(1),
                          GridSpec(1024, 1024, 2))
        sweep, barrier, threads = geodesy._sweep_cell, threading.Barrier(2), set()

        def together(stencil, cell, row):
            if threading.get_ident() not in threads:
                threads.add(threading.get_ident())
                barrier.wait(timeout=60)
            sweep(stencil, cell, row)

        geodesy._sweep_cell = together
        before = peak_kib()
        graph.distances_from([0, 100, 200, 300], columns=[0, 5])
        print(len(threads), graph.n_rows * (graph.n_theta // 2 + 1),
              before, peak_kib())
    """)
    threads, folded, before, after = map(int, out.split())
    assert threads == 2
    row = 8 * folded
    # two rows, and 2 MiB for the two pools, thread stacks and the table;
    # two int32 entries more per node and thread would add 4 MiB
    assert (after - before) * 1024 <= 2 * row + 2 * 2 ** 20, (before, after)


@linux_only
def test_a_pool_too_large_for_the_address_space_raises_memory_error():
    # the kernel's first allocation, 2**31 - 1 entries of 16 bytes, cannot
    # fit 512 MiB beyond the address space in use
    out = run_fresh("""
        import os, resource
        import numpy as np
        from warpconv import GridGraph, GridSpec, SequenceFamily, geodesy

        graph = GridGraph(SequenceFamily("cinched-torus").space(2),
                          GridSpec(64, 64, 2))
        want = graph.distances_from([3])
        with open("/proc/self/statm") as f:
            size = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (size + 2 ** 29, hard))
        geodesy.INITIAL_POOL = 2 ** 31 - 1
        try:
            graph.distances_from([3])
        except MemoryError as exc:
            print("MemoryError:", exc)
        geodesy.INITIAL_POOL = 1024
        print(np.array_equal(graph.distances_from([3]), want))
    """)
    assert out.splitlines() == [
        "MemoryError: the sweep from cell 3 could not allocate its bucket "
        "queue", "True"]
