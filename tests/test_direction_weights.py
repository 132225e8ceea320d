"""Edge weights of the surface grid on rows whose edges cross breakpoints.

`GridGraph._direction_weights` integrates most rows with one bulk 4-point
midpoint rule and computes the rows whose edge crosses a profile breakpoint
all at once (`geodesy._crossing_lengths`).  The reference below is the
per-row loop: one `segment_length(points_per_piece=4)` call per crossing
row, on the breakpoints `breakpoints_unwrapped` gives that segment.  Every
weight must equal it bit for bit, on cinched, ridge, bump-lattice (the
stretched-mix reference grid among them), interval-base and seam-crossing
spaces, for every stencil radius.  `_crossing_lengths` must also equal
`segment_length` on segments run backwards (dr < 0), which the grid never
builds.
"""

import math

import numpy as np
import pytest

from oracle import SumOfBumpsProfile
from warpconv import (
    FiberSpace,
    GridGraph,
    GridSpec,
    SequenceFamily,
    WarpedSpace,
    circle_base,
    neighborhood_offsets,
    reference_space,
    segment_length,
)
from warpconv.geodesy import _crossing_lengths


def loop_weights(graph, di, dj):
    """Weights of direction (di, dj) per start row, crossing rows by the
    per-row `segment_length` loop."""
    space = graph.space
    dr, dtheta = di * graph.hr, dj * graph.htheta
    if space.base.is_circle:
        idx = np.arange(graph.n_rows)
    else:
        idx = np.arange(max(0, -di), graph.n_rows - max(0, di))
    r0 = graph.rows[idx]
    mids = r0[:, None] + dr * (2 * np.arange(4) + 1)[None, :] / 8.0
    f = np.asarray(space.warp_at(mids), dtype=float)
    w = np.mean(np.sqrt(dr * dr + (f * dtheta) ** 2), axis=1)
    span_lo = np.minimum(r0, r0 + dr)
    bps = space.breakpoints_unwrapped(
        float(graph.rows[0] - abs(dr)), float(graph.rows[-1] + abs(dr)))
    crossing = []
    if bps.size:
        i0 = np.searchsorted(bps, span_lo)
        i1 = np.searchsorted(bps, span_lo + abs(dr))
        crossing = np.nonzero(i1 > i0)[0]
        for a in crossing:
            w[a] = segment_length(space, float(r0[a]), dr, dtheta,
                                  points_per_piece=4)
    return idx, w, r0[crossing]


def stretched_mix_reference(n, k):
    fam = SequenceFamily("ret-cinches")
    return reference_space(fam.limit(), fam.base, fam.fiber, GridSpec(n, n, k))


# bumps hugging both sides of the seam r = +-pi: edges that cross it see
# the other side's breakpoints shifted by a period
SEAM = WarpedSpace(circle_base(), FiberSpace(), SumOfBumpsProfile(
    1.0, ((0.5, -math.pi + 0.03, 0.02), (1.6, math.pi - 0.05, 0.04))))

SPACES = {
    "cinched-j1": (SequenceFamily("cinched-torus").space(1), 64),
    "cinched-j8": (SequenceFamily("cinched-torus").space(8), 64),
    "cinched-interval": (
        SequenceFamily("cinched-torus", base_shape="interval").space(2), 64),
    "single-ridge": (SequenceFamily("single-ridge", depth=1.5).space(3), 64),
    "many-ridges": (SequenceFamily("many-ridges", depth=1.5).space(2), 65),
    "ret-cinches-j1": (SequenceFamily("ret-cinches").space(1), 128),
    "stretched-mix-reference": (stretched_mix_reference(256, 2), 256),
    "seam": (SEAM, 64),
}


def crossing_directions(k):
    return [(di, dj) for di, dj in neighborhood_offsets(k) if di > 0 and dj > 0]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_crossing_rows_equal_the_per_row_loop(name, k):
    space, n = SPACES[name]
    graph = GridGraph(space, GridSpec(n, n, k))
    crossed = over_seam = 0
    for di, dj in crossing_directions(k):
        idx, w = graph._direction_weights(di, dj)
        ref_idx, ref_w, starts = loop_weights(graph, di, dj)
        assert np.array_equal(idx, ref_idx)
        assert w.dtype == ref_w.dtype
        assert np.array_equal(w, ref_w), (di, dj)
        crossed += len(starts)
        over_seam += int(np.sum(starts + di * graph.hr > space.base.r_max))
    assert crossed > 0
    if name == "seam" and k > 1:
        # edges from the last rows cross r = pi into the shifted bumps
        assert over_seam > 0


def test_stretched_mix_reference_of_the_large_workload():
    # the 1024^2 k=2 reference grid: a dip every fourth row
    space = stretched_mix_reference(1024, 2)
    graph = GridGraph(space, GridSpec(1024, 1024, 2))
    crossed = 0
    for di, dj in crossing_directions(2):
        _, w = graph._direction_weights(di, dj)
        _, ref_w, starts = loop_weights(graph, di, dj)
        assert np.array_equal(w, ref_w), (di, dj)
        crossed += len(starts)
    assert crossed > 1000


@pytest.mark.parametrize("offset", [0.0, 0.37])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", ["cinched-interval", "seam",
                                  "stretched-mix-reference"])
def test_crossing_lengths_equal_segment_length_either_way(name, sign, offset):
    space, n = SPACES[name]
    base = space.base
    h = base.length / n
    dr, dtheta = sign * 3 * h, 2 * space.fiber.circumference / n
    # interval segments stay inside the base; circle ones cross the seam
    skip = 0 if base.is_circle else 3
    r0 = base.r_min + h * (np.arange(skip, n - skip) + offset)
    bps = space.breakpoints_unwrapped(float(r0[0]) - 3 * h, float(r0[-1]) + 3 * h)
    want = [segment_length(space, float(r), dr, dtheta, points_per_piece=4)
            for r in r0]
    assert np.array_equal(_crossing_lengths(space, r0, dr, dtheta, bps), want)
