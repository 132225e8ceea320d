"""The experiments hold one stage graph at a time.

Each stage graph is read once on its plan and released before any
reference graph is built or swept, and each reference is read once, for
every stage on its grid, and dropped, so a run's peak memory is one graph's
stencil and sweep buffers, not two.  The checks watch every graph through
weak references, so they hold no graph themselves: a graph is alive only
while the library keeps it.
"""

import weakref

import numpy as np
import pytest

from warpconv import (
    GridGraph,
    GridSpec,
    SequenceFamily,
    run_family_experiment,
)
from warpconv import convergence
from warpconv.convergence import (
    DiscrepancyResult,
    default_grid,
    plan_values,
    stage_row,
)
from warpconv.torus3 import (
    ConstantField,
    Grid3Graph,
    Grid3Spec,
    Torus3Family,
    limit3_distance,
    run_torus3_experiment,
)


class GraphWatch:
    """Weak references to the graphs of one class, each tagged stage or
    reference when built, with the release order checked at every build
    and sweep and the points of each snap call logged per graph."""

    def __init__(self, monkeypatch, cls, is_reference):
        self.graphs = []  # (kind, weak reference)
        self.snaps = []  # points per snap call, per graph by build order
        self.alive_at_build = []  # (kind, spec) of the live graphs, per build
        self.sweeps = {"stage": 0, "reference": 0}
        init, sweep, snap = cls.__init__, cls.distances_from, cls.snap
        watch = self

        def built(graph, *args, **kwargs):
            init(graph, *args, **kwargs)
            kind = "reference" if is_reference(graph) else "stage"
            assert watch.live_stages() == 0, f"{kind} built beside a stage graph"
            watch.alive_at_build.append(watch.live())
            graph._watch_serial = len(watch.graphs)
            watch.graphs.append((kind, weakref.ref(graph)))
            watch.snaps.append([])

        def swept(graph, cells, columns=None):
            kind = watch.graphs[graph._watch_serial][0]
            if kind == "reference":
                assert watch.live_stages() == 0, "reference swept beside a stage graph"
            watch.sweeps[kind] += len(cells)
            return sweep(graph, cells, columns)

        def snapped(graph, p):
            watch.snaps[graph._watch_serial].append(np.size(p[0]))
            return snap(graph, p)

        monkeypatch.setattr(cls, "__init__", built)
        monkeypatch.setattr(cls, "distances_from", swept)
        monkeypatch.setattr(cls, "snap", snapped)

    def live(self):
        return [(kind, ref().spec) for kind, ref in self.graphs
                if ref() is not None]

    def live_stages(self):
        return sum(1 for kind, ref in self.graphs
                   if kind == "stage" and ref() is not None)

    def kinds(self):
        return [kind for kind, _ in self.graphs]


@pytest.fixture
def surface_watch(monkeypatch):
    """GraphWatch over GridGraph; references are the graphs built on a
    space `reference_space` returned."""
    made = []
    make = convergence.reference_space

    def recording(*args, **kwargs):
        space = make(*args, **kwargs)
        made.append(space)
        return space

    monkeypatch.setattr(convergence, "reference_space", recording)
    return GraphWatch(monkeypatch, GridGraph,
                      lambda g: any(g.space is s for s in made))


@pytest.mark.parametrize("kind, j_list, wrong", [
    ("cinched-torus", [1, 2, 4], True),
    ("moving-cinch", [3, 5], False),
])
def test_surface_stages_are_released_before_references(surface_watch, kind,
                                                       j_list, wrong):
    fam = SequenceFamily(kind)
    report = run_family_experiment(fam, j_list, grid=GridSpec(48, 48, 2),
                                   n_sources=3, n_targets=5,
                                   with_wrong_limit=wrong, seed=2)
    assert all(len(row.alt_eps) == 1 for row in report.rows)
    kinds = surface_watch.kinds()
    # one stage graph per stage; two limits, so two references, each built
    # and dropped before the next graph is built
    assert kinds.count("stage") == len(j_list)
    assert kinds.count("reference") == 2
    assert surface_watch.alive_at_build == [[]] * len(kinds)
    assert surface_watch.sweeps["stage"] > 0
    assert surface_watch.sweeps["reference"] > 0
    assert surface_watch.live_stages() == 0
    # every stage graph is snapped in two calls, one per side of the plan's
    # pairs, whatever the limits
    stage_snaps = [n for k, n in zip(kinds, surface_watch.snaps) if k == "stage"]
    assert stage_snaps == [
        [fam.sample_plan(j, n_sources=3, n_targets=5, offset=2).n_pairs] * 2
        for j in j_list]


def test_a_reference_is_released_after_the_last_stage_on_its_grid(
        surface_watch):
    # the default schedule moves from 256^2 (j = 8) to 288^2 (j = 9)
    fam = SequenceFamily("cinched-torus")
    first, second = default_grid(fam, 8), default_grid(fam, 9)
    assert first != second
    run_family_experiment(fam, [8, 9], n_sources=2, n_targets=3)
    assert surface_watch.kinds() == ["stage", "reference", "stage", "reference"]
    # the 256^2 reference is gone before the 288^2 stage graph is built
    assert surface_watch.alive_at_build == [[], [], [], []]
    assert surface_watch.live() == []


def test_torus3_stages_are_released_before_the_reference(monkeypatch):
    watch = GraphWatch(monkeypatch, Grid3Graph,
                       lambda g: isinstance(g.field, ConstantField))
    run_torus3_experiment(Torus3Family(), [2, 3, 4], Grid3Spec(32),
                          n_sources=3, n_targets=4, with_audits=False)
    assert watch.kinds() == ["stage", "reference", "stage", "stage"]
    assert watch.sweeps["stage"] > 0
    # a constant field is invariant along every axis: one sweep in all
    assert watch.sweeps["reference"] == 1
    assert watch.live_stages() == 0


def test_surface_rows_match_probe_plan_on_prebuilt_graphs():
    fam = SequenceFamily("cinched-torus")
    grid = GridSpec(48, 48, 2)
    report = run_family_experiment(fam, [2, 4], grid=grid, n_sources=3,
                                   n_targets=5, with_wrong_limit=True, seed=4)
    plan = fam.sample_plan(2, n_sources=3, n_targets=5, offset=4)
    stage = plan_values(GridGraph(fam.space(2), grid), plan)

    def result(limit):
        reference = GridGraph(convergence.reference_space(
            limit, fam.base, fam.fiber, grid), grid)
        return DiscrepancyResult(
            2, limit.describe(), grid, stage,
            limit.distance(fam.base, fam.fiber, stage.p, stage.q),
            plan_values(reference, plan).values)

    limit, wrong = fam.limit(), fam.naive_limit()
    head = result(limit)
    alt = {wrong.describe(): max(result(wrong).corrected_gaps)}
    row = report.rows[0]
    assert stage_row(head, row.l2_norm, row.l2_bound, row.lam, row.mass, 2,
                     alt) == row


def test_torus3_rows_match_probe_plan_on_prebuilt_graphs():
    fam = Torus3Family()
    grid = Grid3Spec(32)
    report = run_torus3_experiment(fam, [2], grid, n_sources=3, n_targets=4,
                                   with_audits=False, seed=1)
    plan = fam.sample_plan(2, n_sources=3, n_targets=4, offset=1)
    reference = plan_values(Grid3Graph(ConstantField(fam.level), grid), plan)
    stage = plan_values(Grid3Graph(fam.field(2), grid), plan)
    limit = limit3_distance(fam.level, stage.p, stage.q)
    row = report.rows[0]
    assert row.eps_corrected == max(abs(stage.values - reference.values))
    assert row.eps_raw == max(abs(stage.values - limit))
    assert row.grid_error == max(stage.errors)
