"""A swept row lives only while its sweep runs.

`OrbitSweepCache.distances_from` gives each sweeping thread one row buffer
and one pair of work arrays and copies out only the columns asked for, so
`pair_distances` holds at most one row and one pair of work arrays per
thread, plus its table of read entries, however many source orbits it
sweeps, and leaves no row on the graph.  The peak is measured with
`tracemalloc`, which sees numpy's buffers.
"""

import os
import tracemalloc

import numpy as np
import pytest

from warpconv import GridGraph, GridSpec, SequenceFamily, geodesy
from warpconv._sweep import BUCKET_CAP


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
    # the kernel's row (float64) and its two int32 work arrays
    per_thread = 8 * folded + 2 * 4 * (folded + BUCKET_CAP)
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
