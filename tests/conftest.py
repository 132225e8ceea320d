"""Shared test helpers."""

import numpy as np
import pytest


def unfold_rows(graph, sources):
    """Distances from each source node to every node of a grid graph, as an
    (len(sources), n_nodes) array, unfolded from `graph.distances_from`.

    The index arithmetic is the test's own: the sweep of a source's cell
    holds, for node (cell, z), the distance at column cell * (m//2 + 1)
    plus the fiber offset |((z - z_source + m//2) mod m) - m//2|.
    """
    m = graph._stencil.m
    half = m // 2
    sources = np.asarray(sources, dtype=np.int64)
    folded = graph.distances_from(sources // m)
    cell, z = np.divmod(np.arange(graph.n_nodes), m)
    offset = np.abs((z[None, :] - (sources % m)[:, None] + half) % m - half)
    return np.take_along_axis(folded, cell * (half + 1) + offset, axis=1)


@pytest.fixture(scope="session")
def full_rows():
    """`unfold_rows`: full-fiber distance rows of a grid graph's sweeps."""
    return unfold_rows
