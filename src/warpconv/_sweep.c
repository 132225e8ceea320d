/* Dijkstra on the mirror-folded graph of a fiber stencil.
 *
 * The full graph has node (c, z) for base cell c in [0, n_cells) and fiber
 * position z in [0, m); slot s of cell c joins (c, z) to
 * (target[c, s], (z + step[s]) mod m) at weight[c, s], and a slot without
 * an edge has target n_cells.  The folded graph keeps z in [0, h),
 * h = m / 2 + 1, and folds every target position by the mirror z -> -z onto
 * min(z, m - z).  Node (c, z) is index c * h + z.
 *
 * warpconv_sweep fills dist (n_cells * h doubles) with the distances from
 * node (source, 0): a binary heap with decrease-key, each node settled once,
 * only unsettled nodes relaxed, so every distance is min over settled
 * in-neighbours u of the double sum dist[u] + w, as scipy's csgraph Dijkstra
 * computes it.  heap and pos are work arrays of n_cells * h entries.
 * The caller checks the sizes, that every step satisfies |step| < m and
 * every target lies in [0, n_cells], and that n_cells * h fits an int32.
 */

#include <math.h>
#include <stdint.h>

#define UNSEEN (-1)
#define SETTLED (-2)

static void sift_up(int32_t *heap, int32_t *pos, const double *dist,
                    int32_t i)
{
    int32_t v = heap[i];
    double dv = dist[v];
    while (i > 0) {
        int32_t parent = (i - 1) / 2;
        int32_t u = heap[parent];
        if (dist[u] <= dv)
            break;
        heap[i] = u;
        pos[u] = i;
        i = parent;
    }
    heap[i] = v;
    pos[v] = i;
}

static void sift_down(int32_t *heap, int32_t *pos, const double *dist,
                      int32_t i, int32_t size)
{
    int32_t v = heap[i];
    double dv = dist[v];
    for (;;) {
        int32_t child = 2 * i + 1;
        if (child >= size)
            break;
        if (child + 1 < size && dist[heap[child + 1]] < dist[heap[child]])
            child++;
        if (dv <= dist[heap[child]])
            break;
        heap[i] = heap[child];
        pos[heap[i]] = i;
        i = child;
    }
    heap[i] = v;
    pos[v] = i;
}

void warpconv_sweep(int64_t n_cells, int64_t m, int64_t n_slots,
                    const int64_t *target, const int64_t *step,
                    const double *weight, int64_t source, double *dist,
                    int32_t *heap, int32_t *pos)
{
    const int64_t h = m / 2 + 1;
    const int32_t n_nodes = (int32_t)(n_cells * h);
    int32_t size = 1;

    for (int32_t i = 0; i < n_nodes; i++) {
        dist[i] = INFINITY;
        pos[i] = UNSEEN;
    }
    heap[0] = (int32_t)(source * h);
    pos[heap[0]] = 0;
    dist[heap[0]] = 0.0;

    while (size > 0) {
        int32_t v = heap[0];
        pos[v] = SETTLED;
        if (--size > 0) {
            heap[0] = heap[size];
            sift_down(heap, pos, dist, 0, size);
        }
        const int64_t cell = v / h;
        const int64_t z = v - cell * h;
        const int64_t *to = target + cell * n_slots;
        const double *w = weight + cell * n_slots;
        const double dv = dist[v];
        for (int64_t s = 0; s < n_slots; s++) {
            if (to[s] == n_cells)
                continue;
            int64_t zz = z + step[s];
            if (zz < 0)
                zz += m;
            else if (zz >= m)
                zz -= m;
            if (2 * zz > m)
                zz = m - zz;
            const int32_t u = (int32_t)(to[s] * h + zz);
            if (pos[u] == SETTLED)
                continue;
            const double du = dv + w[s];
            if (du < dist[u]) {
                dist[u] = du;
                if (pos[u] == UNSEEN) {
                    heap[size] = u;
                    pos[u] = size++;
                }
                sift_up(heap, pos, dist, pos[u]);
            }
        }
    }
}
