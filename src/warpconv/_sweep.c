/* Dijkstra on the mirror-folded graph of a fiber stencil.
 *
 * The full graph has node (c, z) for base cell c in [0, n_cells) and fiber
 * position z in [0, m).  Cell c's edges are the slots start[c] ..
 * start[c + 1] - 1: slot s joins (c, z) to (target[s], (z + step[s]) mod m)
 * at weight[s].  The folded graph keeps z in [0, h), h = m / 2 + 1, and
 * folds every target position by the mirror z -> -z onto min(z, m - z).
 * Node (c, z) is index c * h + z.
 *
 * warpconv_sweep fills dist (n_cells * h doubles) with the distances from
 * node (source, 0): a 4-ary heap of (distance, node) entries with
 * decrease-key through pos, each node settled once, so every distance is
 * min over settled in-neighbours u of the double sum dist[u] + w, as
 * scipy's csgraph Dijkstra computes it.  A settled node is never improved
 * again, because its distance is at most that of the node being settled
 * and weights are positive; so nodes carry no settled mark, a node is
 * unseen while its distance is infinite, and pos is read only for nodes in
 * the heap.  heap and pos are work arrays of n_cells * h entries that need
 * no initial values.
 *
 * With K the largest |step|, a position K <= z <= h - 1 - K reaches only
 * positions z + step in [0, h), which need neither wrap nor fold; those
 * positions take a loop without either, and only the 2K positions at the
 * ends of the folded fiber go through the fold.
 *
 * The caller checks the sizes, that start runs from 0 up to the slot
 * count, that every step satisfies |step| < m, every target lies in
 * [0, n_cells) and every weight is positive, and that m and n_cells * h
 * fit an int32.
 */

#include <math.h>
#include <stdint.h>

typedef struct {
    double key;
    int32_t node;
} entry;

/* Place e at heap index i or above. */
static void sift_up(entry *heap, int32_t *pos, int32_t i, entry e)
{
    while (i > 0) {
        const int32_t parent = (i - 1) / 4;
        if (heap[parent].key <= e.key)
            break;
        heap[i] = heap[parent];
        pos[heap[i].node] = i;
        i = parent;
    }
    heap[i] = e;
    pos[e.node] = i;
}

/* Place e at the root or below, in a heap of size entries.  The least of
 * four children is picked without branches: which one it is cannot be
 * predicted. */
static void sift_down(entry *heap, int32_t *pos, int32_t size, entry e)
{
    int32_t i = 0;
    for (;;) {
        const int32_t first = 4 * i + 1;
        int32_t best = first;
        if (first + 4 <= size) {
            const entry *c = heap + first;
            const int32_t a = c[1].key < c[0].key;
            const int32_t b = 2 + (c[3].key < c[2].key);
            best += c[b].key < c[a].key ? b : a;
        } else {
            if (first >= size)
                break;
            for (int32_t c = first + 1; c < size; c++)
                if (heap[c].key < heap[best].key)
                    best = c;
        }
        if (e.key <= heap[best].key)
            break;
        heap[i] = heap[best];
        pos[heap[i].node] = i;
        i = best;
    }
    heap[i] = e;
    pos[e.node] = i;
}

/* Lower node u to du if that is shorter, entering it into the heap. */
static inline void relax(entry *heap, int32_t *pos, double *dist,
                         int32_t *size, int32_t u, double du)
{
    if (du < dist[u]) {
        const int32_t i = dist[u] == INFINITY ? (*size)++ : pos[u];
        dist[u] = du;
        sift_up(heap, pos, i, (entry){du, u});
    }
}

void warpconv_sweep(int32_t n_cells, int32_t m, const int32_t *start,
                    const int32_t *target, const int32_t *step,
                    const double *weight, int32_t source, double *dist,
                    entry *heap, int32_t *pos)
{
    const int32_t h = m / 2 + 1;
    const int32_t n_nodes = n_cells * h;
    int32_t reach = 0;
    int32_t size = 0;

    for (int32_t s = 0; s < start[n_cells]; s++) {
        const int32_t a = step[s] < 0 ? -step[s] : step[s];
        if (a > reach)
            reach = a;
    }
    for (int32_t i = 0; i < n_nodes; i++)
        dist[i] = INFINITY;
    relax(heap, pos, dist, &size, source * h, 0.0);

    while (size > 0) {
        const entry top = heap[0];
        if (--size > 0)
            sift_down(heap, pos, size, heap[size]);
        const int32_t cell = top.node / h;
        const int32_t z = top.node - cell * h;
        const int32_t first = start[cell], end = start[cell + 1];
        if (z >= reach && z < h - reach) {
            for (int32_t s = first; s < end; s++)
                relax(heap, pos, dist, &size, target[s] * h + z + step[s],
                      top.key + weight[s]);
            continue;
        }
        for (int32_t s = first; s < end; s++) {
            int64_t zz = (int64_t)z + step[s];
            if (zz < 0)
                zz += m;
            else if (zz >= m)
                zz -= m;
            if (2 * zz > m)
                zz = m - zz;
            relax(heap, pos, dist, &size, target[s] * h + (int32_t)zz,
                  top.key + weight[s]);
        }
    }
}
