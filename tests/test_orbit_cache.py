"""The per-graph orbit cache behind the experiments' pair lookups.

Edge weights of the surface grid depend only on the start row, and those of
the 3-torus grid only on (x, y), so translations along the fiber (z) map
each graph onto itself; a graph whose built weights are also equal across
rows (xy sheets) is invariant along every axis.  The cache answers a pair
from one sweep per source orbit, which must give bit-for-bit the value a
direct sweep from the pair's own source gives.
"""

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
