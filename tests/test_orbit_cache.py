"""The per-graph orbit cache behind the experiments' pair lookups.

Edge weights of the surface grid depend only on the start row, and those of
the 3-torus grid only on (x, y), so translations along the fiber (z) map
each graph onto itself; a graph whose built weights are also equal across
rows (xy sheets) is invariant along every axis.  The cache answers a pair
from one sweep per source orbit, which must give bit-for-bit the value a
direct sweep from the pair's own source gives.
"""

import numpy as np

from warpconv import (
    ConstantProfile,
    FiberSpace,
    GridGraph,
    GridSpec,
    SequenceFamily,
    WarpedSpace,
    circle_base,
    interval_base,
    run_family_experiment,
)
from warpconv.torus3 import (
    BumpField,
    ConstantField,
    Grid3Graph,
    Grid3Spec,
    Torus3Family,
    run_torus3_experiment,
)


def random_pairs(n_nodes, count, seed):
    """Pairs whose sources repeat, so rows get reused within one call."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, n_nodes, size=count // 3)
    return [(int(rng.choice(sources)), int(rng.integers(0, n_nodes)))
            for _ in range(count)]


def assert_cache_matches_direct_sweeps(graph, seed):
    pairs = random_pairs(graph.n_nodes, 30, seed)
    cached = graph.pair_distances(pairs)
    sources = sorted({a for a, _ in pairs})
    table = graph.distances_from(sources)
    direct = [float(table[sources.index(a), b]) for a, b in pairs]
    assert cached == direct
    # a second lookup is served from the rows already on the graph
    assert graph.pair_distances(pairs) == direct


def surface_graph(base, profile, n=48):
    return GridGraph(WarpedSpace(base, FiberSpace(), profile), GridSpec(n, n, 2))


def test_cinched_stage_uses_fiber_symmetry_only():
    graph = GridGraph(SequenceFamily("cinched-torus").space(2), GridSpec(48, 48, 2))
    assert not graph.row_invariant
    assert_cache_matches_direct_sweeps(graph, seed=1)


def test_constant_profile_on_circle_is_row_invariant():
    graph = surface_graph(circle_base(), ConstantProfile(1.3))
    assert graph.row_invariant
    assert_cache_matches_direct_sweeps(graph, seed=2)


def test_constant_profile_on_interval_is_not_row_invariant():
    # equal weights, but the boundary rows have no neighbours beyond them
    graph = surface_graph(interval_base(), ConstantProfile(1.3))
    assert not graph.row_invariant
    assert_cache_matches_direct_sweeps(graph, seed=3)


def test_torus3_bump_field_uses_z_symmetry_only():
    graph = Grid3Graph(BumpField(1.0, 2.0, (0.5, 0.5), 1.0), Grid3Spec(32))
    assert not graph.xy_invariant
    assert_cache_matches_direct_sweeps(graph, seed=4)


def test_torus3_constant_field_is_invariant_along_every_axis():
    graph = Grid3Graph(ConstantField(1.3), Grid3Spec(32))
    assert graph.xy_invariant
    assert_cache_matches_direct_sweeps(graph, seed=5)


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
    invariant = [s for g, s in per_graph if g.row_invariant]
    assert invariant == [[0]]


def test_torus3_constant_reference_swept_once(monkeypatch):
    calls = record_sweeps(monkeypatch, Grid3Graph)
    run_torus3_experiment(Torus3Family(), [2, 3], Grid3Spec(32),
                          n_sources=3, n_targets=4, with_audits=False)
    per_graph = sources_by_graph(calls)
    assert len(per_graph) == 3
    invariant = [s for g, s in per_graph if g.xy_invariant]
    assert invariant == [[0]]
    for graph, sources in per_graph:
        assert len(sources) == len(set(sources))
