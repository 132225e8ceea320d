"""Surface grid edge weights come from one quadrature, `segment_length`.

`GridGraph._direction_weights` makes one `segment_length` call over all the
start rows of a direction.  That array call queries the breakpoints once per
chunk of starts whose hull the profile refines in full (`refined_span`), and
pads the rows that cross fewer of them with empty pieces at t = 1.  The
reference below is the per-row loop: one scalar
`segment_length(points_per_piece=4)` call per start row.  Every weight must
equal it bit for bit, on cinched, ridge, bump-lattice (the stretched-mix
reference grid among them), interval-base and seam-crossing spaces, for
every stencil radius, with rows that cross breakpoints among them.  Bump
lattices build mirrored weights (`mirror_weights`): there the rule holds on
the canonical rows, each edge no later than its r -> -r image, and every
other row must equal its image's weight bit for bit and its own call
within MIRROR_GAP.  Array calls must also equal per-start scalar calls on
segments the grid never builds: run backwards (dr < 0) and off the grid
rows, at 4, 16 and 128 midpoints per piece.  Scalar calls in turn must
equal `loop_length`, the rule written out one piece at a time.
"""

import math

import numpy as np
import pytest

from oracle import SumOfBumpsProfile, mirror_start_rows
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


def loop_length(space, r0, dr, dtheta, points_per_piece):
    """The composite midpoint rule one piece at a time: split t in [0, 1]
    at the breakpoints strictly inside the segment, and add each piece's
    sum * width / points_per_piece to a running total from 0.0."""
    lo, hi = min(r0, r0 + dr), max(r0, r0 + dr)
    ts = np.sort((space.breakpoints_unwrapped(lo, hi) - r0) / dr)
    edges = [0.0] + [t for t in ts if 1e-15 < t < 1 - 1e-15] + [1.0]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t_mid = a + (2 * np.arange(points_per_piece) + 1) * (b - a) / (
            2 * points_per_piece)
        f = space.warp_at(r0 + t_mid * dr)
        total += np.sum(np.sqrt(dr * dr + (f * dtheta) ** 2)) * (b - a) / points_per_piece
    return float(total)


def loop_weights(graph, di, dj):
    """Weights of direction (di, dj) per start row, one scalar
    `segment_length` call per row, and the starts whose edge crosses a
    profile breakpoint."""
    space = graph.space
    dr, dtheta = di * graph.hr, dj * graph.htheta
    if space.base.is_circle:
        idx = np.arange(graph.n_rows)
    else:
        idx = np.arange(max(0, -di), graph.n_rows - max(0, di))
    starts = graph.rows[idx].tolist()
    w = np.array([segment_length(space, r, dr, dtheta, points_per_piece=4)
                  for r in starts])
    crossing = [r for r in starts
                if space.breakpoints_unwrapped(min(r, r + dr), max(r, r + dr)).size]
    return idx, w, np.array(crossing)


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


MIRRORED = {"many-ridges", "ret-cinches-j1", "stretched-mix-reference"}


def graph_directions(k):
    """The offsets `GridGraph._directions` builds weights for."""
    return [(di, dj) for di, dj in neighborhood_offsets(k) if di >= 0 and dj >= 0]


# Largest relative gap allowed between a copied weight and the scalar call
# from its own start row.  The two differ only through the rounding of the
# mirrored rows' r, which the bump slopes amplify; measured at most 1.4e-13
# (the 1024^2 stretched-mix reference, whose dips are half a row wide).
MIRROR_GAP = 1e-12


def assert_weights_equal_the_loop(graph, k):
    """Every direction's weights equal the per-row loop, on the canonical
    rows where the profile builds mirrored weights, and every other row
    equals its mirror image's weight and its own call within MIRROR_GAP;
    returns the starts of the edges that cross a breakpoint, over all
    directions, and those of the edges that also cross the base's upper
    end."""
    crossed, over_end = [], []
    for di, dj in graph_directions(k):
        idx, w = graph._direction_weights(di, dj)
        ref_idx, ref_w, starts = loop_weights(graph, di, dj)
        assert np.array_equal(idx, ref_idx)
        assert w.dtype == ref_w.dtype == np.float64
        image = mirror_start_rows(graph, idx, di)
        assert (image is None) == (graph.base_mirror is None)
        if image is None:
            assert np.array_equal(w, ref_w), (di, dj)
        else:
            canonical = idx <= image
            assert np.array_equal(w[canonical], ref_w[canonical]), (di, dj)
            assert np.array_equal(w, w[image - idx[0]]), (di, dj)
            assert np.all(np.abs(w - ref_w) <= MIRROR_GAP * ref_w), (di, dj)
        crossed += starts.tolist()
        over_end += starts[starts + di * graph.hr > graph.space.base.r_max].tolist()
    return crossed, over_end


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_crossing_rows_equal_the_per_row_loop(name, k):
    space, n = SPACES[name]
    graph = GridGraph(space, GridSpec(n, n, k))
    # the bump lattices, and none of the others, mirror their weights
    assert (graph.base_mirror is not None) == (name in MIRRORED)
    crossed, over_seam = assert_weights_equal_the_loop(graph, k)
    assert crossed
    if name == "seam" and k > 1:
        # edges from the last rows cross r = pi into the shifted bumps
        assert over_seam


def test_stretched_mix_reference_of_the_large_workload():
    # the 1024^2 k=2 reference grid: a dip every fourth row
    space = stretched_mix_reference(1024, 2)
    graph = GridGraph(space, GridSpec(1024, 1024, 2))
    assert graph.base_mirror is not None
    crossed, _ = assert_weights_equal_the_loop(graph, 2)
    assert len(crossed) > 1000


@pytest.mark.parametrize("j", [10, 11])
@pytest.mark.parametrize("kind, depth", [("ret-cinches", 0.5),
                                         ("many-ridges", 1.5)])
def test_lattice_weights_equal_the_loop_beyond_the_breakpoint_cap(kind, depth,
                                                                  j):
    # from j = 11 the lattice holds more bumps than `breakpoints_in` refines
    # over one interval, so the array call must split its starts: a single
    # query over the whole base would skip every breakpoint, and the 4-point
    # rule would alias with the lattice
    space = SequenceFamily(kind, depth=depth).space(j)
    graph = GridGraph(space, GridSpec(256, 256, 2))
    assert graph.base_mirror is not None
    assert (space.profile.refined_span() < space.base.length) == (j == 11)
    crossed, _ = assert_weights_equal_the_loop(graph, 2)
    assert len(crossed) > 256


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
    for points in (4, 16, 128):
        want = [segment_length(space, r, dr, dtheta, points_per_piece=points)
                for r in r0.tolist()]
        got = segment_length(space, r0, dr, dtheta, points_per_piece=points)
        assert np.array_equal(got, want), points
        assert want == [loop_length(space, r, dr, dtheta, points)
                        for r in r0.tolist()], points


def test_a_scalar_start_gives_a_float_and_an_array_keeps_its_shape():
    space, _ = SPACES["seam"]
    starts = np.linspace(-math.pi, math.pi, 6).reshape(2, 3)
    # quadrature, pure-r and pure-theta segments
    for dr, dtheta in ((0.3, 0.2), (0.3, 0.0), (0.0, 0.2)):
        for r0 in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(segment_length(space, r0, dr, dtheta)) is float
        got = segment_length(space, starts, dr, dtheta)
        assert got.shape == starts.shape
        assert got.tolist() == [[segment_length(space, r, dr, dtheta) for r in row]
                                for row in starts.tolist()]
