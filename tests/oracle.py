"""The grid graphs' edges built the slow way, and scipy sweeps over them.

The reference is the triplet construction of the full graph: COO triplets
for both orientations of every canonical direction, each direction's
weights computed on their own, converted with `tocsr()`.  `reference_fold`
folds it independently (keep z <= m//2, fold every column, keep the minimum
of each duplicate), and `oracle_sweeps` runs scipy's Dijkstra on that fold:
the values the sweep kernel must return bit for bit.
"""

import math

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra

from warpconv import neighborhood_offsets
from warpconv.torus3 import Grid3Graph, stencil_offsets3


def triplet_csr(edges, n_nodes):
    rows, cols, data = [], [], []
    for u, v, w in edges:
        rows.extend((u, v))
        cols.extend((v, u))
        data.extend((w, w))
    return coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes)).tocsr()


def surface_reference(graph):
    """Triplet CSR of a surface grid and its row invariance."""
    circle = graph.space.base.is_circle
    nt = graph.n_theta
    cols_theta = np.arange(nt)
    edges = []
    row_invariant = circle
    for di, dj in neighborhood_offsets(graph.spec.k):
        if not (di > 0 or (di == 0 and dj > 0)):
            continue
        idx, w = graph._direction_weights(di, dj)
        row_invariant = row_invariant and bool(np.all(w == w[0]))
        idx2 = (idx + di) % graph.n_rows if circle else idx + di
        u = (idx[:, None] * nt + cols_theta[None, :]).ravel()
        v = (idx2[:, None] * nt + ((cols_theta + dj) % nt)[None, :]).ravel()
        edges.append((u, v, np.repeat(w, nt)))
    return triplet_csr(edges, graph.n_nodes), row_invariant


def torus3_reference(fld, n):
    """Triplet CSR of the periodic n^3 grid and its xy invariance."""
    h = 2.0 * math.pi / n
    xs = -math.pi + h * np.arange(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    plane = np.arange(n * n, dtype=np.int32).reshape(n, n)
    z_idx = np.arange(n, dtype=np.int32)
    edges = []
    xy_invariant = True
    for dx, dy, dz in (o for o in stencil_offsets3() if o > (0, 0, 0)):
        if dz == 0:
            w_sheet = np.full((n, n), h * math.hypot(dx, dy))
        else:
            f = np.asarray(fld(X + 0.5 * dx * h, Y + 0.5 * dy * h), dtype=float)
            w_sheet = h * np.sqrt(dx * dx + dy * dy + (f * dz) ** 2)
        xy_invariant = xy_invariant and bool(np.all(w_sheet == w_sheet[0, 0]))
        sheet_to = plane[(np.arange(n) + dx) % n][:, (np.arange(n) + dy) % n]
        u = (plane[:, :, None] * np.int32(n) + z_idx[None, None, :]).ravel()
        v = (sheet_to[:, :, None] * np.int32(n)
             + ((z_idx + dz) % n).astype(np.int32)[None, None, :]).ravel()
        edges.append((u, v, np.repeat(w_sheet.ravel(), n)))
    return triplet_csr(edges, n ** 3), xy_invariant


def graph_reference(graph):
    """(triplet CSR, invariance along the base) of either kind of graph."""
    if isinstance(graph, Grid3Graph):
        return torus3_reference(graph.field, graph.spec.n)
    return surface_reference(graph)


def first_of_runs(row, col, w):
    """Sort (row, col, w) triplets and keep the smallest w of each (row, col)."""
    order = np.lexsort((w, col, row))
    row, col, w = row[order], col[order], w[order]
    first = np.ones(row.size, dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
    return row[first], col[first], w[first]


def reference_fold(full, m):
    """Quotient of a full fibered CSR by the mirror z -> -z (mod m)."""
    h = m // 2 + 1
    coo = full.tocoo()
    cell_r, z_r = np.divmod(coo.row.astype(np.int64), m)
    cell_c, z_c = np.divmod(coo.col.astype(np.int64), m)
    keep = z_r < h
    row, col, w = first_of_runs(cell_r[keep] * h + z_r[keep],
                                cell_c[keep] * h
                                + np.minimum(z_c[keep], m - z_c[keep]),
                                coo.data[keep])
    n = full.shape[0] // m * h
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n))))
    return csr_matrix((w, col, indptr), shape=(n, n))


def oracle_sweeps(folded, m, cells):
    """scipy's Dijkstra on a folded reference from node (cell, 0) of each
    cell: the table `distances_from(cells)` must equal."""
    return dijkstra(folded, directed=True,
                    indices=np.asarray(cells, dtype=np.int64) * (m // 2 + 1))
