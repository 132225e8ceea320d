/* Shortest paths on the mirror-folded graph of a fiber stencil.
 *
 * The full graph has node (c, z) for base cell c in [0, n_cells) and fiber
 * position z in [0, m).  Cell c's edges are the slots start[c] ..
 * start[c + 1] - 1: slot s joins (c, z) to (target[s], (z + step[s]) mod m)
 * at weight[s].  The folded graph keeps z in [0, h), h = m / 2 + 1, and
 * folds every target position by the mirror z -> -z onto min(z, m - z).
 * Node (c, z) is index c * h + z.
 *
 * warpconv_sweep fills dist (n_cells * h doubles) with the distances from
 * node (source, 0), taking nodes from a circular bucket queue (Dial 1969).
 * With w_min and w_max the least and largest stencil weight, the buckets
 * are delta = w_min / 2 wide and there are nb = floor(w_max / delta) + 3 of
 * them; where that exceeds WARPCONV_BUCKET_CAP, nb is the cap and delta
 * widens to w_max / (cap - 3).  Absolute bucket b holds distances in
 * [b delta, (b + 1) delta) and lives in slot b mod nb: a node taken from
 * bucket cur queues its neighbours at most w_max (plus rounding) further
 * on, so every queued distance lies in buckets cur .. cur + nb - 1, and a
 * bucket index outside that window (rounding only) is clamped into it.
 *
 * The buckets use lazy deletion: every time a node's distance falls, an
 * entry (node, distance) is appended to the new distance's bucket, and an
 * entry whose distance is above its node's current one is skipped when it
 * is taken off.  A node's values strictly fall, so at most one of its
 * entries, the last, carries its current value.  Each bucket is a singly
 * linked FIFO list of entries in one pool that the sweep allocates, grows
 * by doubling and frees; freed entries are reused, so the pool holds the
 * peak number of queued entries, stale ones included, and nothing per
 * node.  The live entries leave in the order a queue with decrease-key
 * that moves a lowered node to the back of its new bucket would take the
 * nodes.  Entries are taken from the lowest non-empty bucket, first in
 * first out (any order would do).  A node taken off can still improve:
 * from a node of its own bucket where the bucket is wider than the least
 * weight (the capped case), or by rounding; it then gets a new entry and
 * is taken once more (label-correcting).  With delta = w_min / 2 an edge
 * crosses at least two bucket boundaries, so outside the capped case that
 * happens only where rounding puts a distance one bucket low.
 *
 * Why the distances are bit for bit scipy's csgraph Dijkstra, whatever the
 * order: write fl(a + w) for the rounded double sum.  (1) Every value ever
 * assigned is the left-to-right double sum along some path from the
 * source.  (2) At the end, d(v) <= fl(d(u) + w) on every edge u -> v: each
 * time d(u) falls an entry with the new value is queued, and the entry
 * with u's last value is taken off after that last decrease and is not
 * skipped, so u relaxes every edge with its final value, after which d(v)
 * only falls.  Take a path whose double sum S_k is least among paths to v,
 * with prefix sums S_i at its nodes v_i.  By (2) and induction, since
 * rounding is monotone, d(v_{i+1}) <= fl(d(v_i) + w) <= fl(S_i + w) =
 * S_{i+1}; so d(v) <= S_k, and by (1) d(v) >= S_k.  Each distance is the
 * least double path sum, which depends on the graph alone.  Dijkstra's
 * output satisfies (1) and (2) too (a node settled before u has
 * d(v) <= d(u) <= fl(d(u) + w)), so both are that least sum.  The loop
 * ends: every entry is queued by a strict decrease of its node's value,
 * a node's values are doubles no greater than its first one, and each
 * pass of the loop takes one entry off.  The argument needs
 * fl(d + w) >= d, which holds for w > 0 even where w is below half an ulp
 * of d and fl(d + w) == d.
 *
 * With K the largest |step|, a position K <= z <= h - 1 - K reaches only
 * positions z + step in [0, h), which need neither wrap nor fold; only the
 * 2K positions at the ends of the folded fiber go through the fold.  The
 * wrap-free positions, nearly all of them on a long fiber, scan a node's
 * slots in two phases.  First a pass without branches compares
 * d(u) + weight[s] with dist[off[s] + z], 64 slots at a time, and packs
 * the results into the bits of a 64-bit mask; off[s] = target[s] h +
 * step[s] is computed once per sweep.  Then relax() runs on the set bits
 * only, in slot order.  Most comparisons fail, so the scan trades one
 * unpredictable branch per slot for one per improvement.  No two slots of
 * a cell share (target, step), so the slots of one scan reach distinct
 * nodes, no relaxation of the scan changes a value another slot compares
 * with, and the scan relaxes exactly the slots that a loop relaxing each
 * slot in turn would, in the same order, with the same double sums: the
 * queue sees the same entries.  relax() compares again all the same, so
 * (1) and (2), and with them the rows bit for bit, would hold even if two
 * slots shared a node.
 *
 * run is built twice, for AVX2 and for the baseline x86-64, and the
 * dynamic loader picks one when the library loads (target_clones, on GCC
 * and Clang for x86-64 with glibc; one plain build elsewhere).  With AVX2
 * the comparison pass adds and compares four slots per instruction.
 * Vector additions and comparisons of doubles round like scalar ones, so
 * either build gives the same rows.
 *
 * warpconv_sweep returns 0, or WARPCONV_NO_MEMORY when the queue or the
 * offsets cannot be allocated or the queue cannot grow; dist is then
 * incomplete.  The pool starts at pool_size entries.  The offsets take
 * 4 bytes per slot.  The caller checks the sizes, that start runs from 0
 * up to the slot count, that every step satisfies |step| < m, every target
 * lies in [0, n_cells) and every weight is positive, and that m and
 * n_cells * h fit an int32.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define WARPCONV_BUCKET_CAP 4096
#define WARPCONV_NO_MEMORY 1

const int32_t warpconv_bucket_cap = WARPCONV_BUCKET_CAP;
const int32_t warpconv_no_memory = WARPCONV_NO_MEMORY;

typedef struct {
    double dist;   /* the node's value when the entry was queued */
    int32_t node;
    int32_t next;  /* next entry of its bucket, or of the free list; -1 */
} entry;

typedef struct {
    entry *pool;
    int32_t size;      /* entries allocated */
    int32_t used;      /* entries ever handed out, at most size */
    int32_t free;      /* first reusable entry, or -1 */
    int32_t *head, *tail;  /* each slot's first and last entry, or -1 */
    double *dist;
    double inv_delta;  /* 1 / bucket width */
    double cur;        /* absolute index of the bucket being emptied */
    int32_t slot;      /* its slot, cur mod nb */
    int32_t nb;        /* live slots */
    int32_t queued;    /* entries in some bucket */
} queue;

/* Lower node v to dv if that is shorter, queueing an entry in dv's bucket.
 * Returns 0, or WARPCONV_NO_MEMORY when the pool cannot grow. */
static inline int relax(queue *q, int32_t v, double dv)
{
    if (!(dv < q->dist[v]))
        return 0;
    q->dist[v] = dv;
    int32_t e = q->free;
    if (e >= 0) {
        q->free = q->pool[e].next;
    } else {
        if (q->used == q->size) {
            if (q->size > INT32_MAX / 2)
                return WARPCONV_NO_MEMORY;
            entry *grown = realloc(q->pool, 2 * (size_t)q->size * sizeof *grown);
            if (grown == NULL)
                return WARPCONV_NO_MEMORY;
            q->pool = grown;
            q->size *= 2;
        }
        e = q->used++;
    }
    /* clamped as a double: no conversion can overflow */
    double ahead = dv * q->inv_delta - q->cur;
    if (!(ahead >= 0))
        ahead = 0;
    else if (ahead >= q->nb)
        ahead = q->nb - 1;
    int32_t slot = q->slot + (int32_t)ahead;
    if (slot >= q->nb)
        slot -= q->nb;
    q->pool[e] = (entry){dv, v, -1};
    if (q->tail[slot] < 0)
        q->head[slot] = e;
    else
        q->pool[q->tail[slot]].next = e;
    q->tail[slot] = e;
    q->queued++;
    return 0;
}

/* the clones need an ifunc, which glibc's loader resolves and musl's has no
 * support for */
#if defined(__x86_64__) && defined(__GLIBC__) \
    && (defined(__GNUC__) || defined(__clang__))
__attribute__((target_clones("avx2", "default")))
#endif
static int run(queue *q, int32_t m, const int32_t *start,
               const int32_t *target, const int32_t *step, const int32_t *off,
               const double *weight, int32_t source, int32_t reach)
{
    const int32_t h = m / 2 + 1;
    const double *dist = q->dist;
    int status = relax(q, source * h, 0.0);

    while (status == 0 && q->queued > 0) {
        const int32_t e = q->head[q->slot];
        if (e < 0) {
            q->cur += 1;
            if (++q->slot == q->nb)
                q->slot = 0;
            continue;
        }
        const entry taken = q->pool[e];
        q->head[q->slot] = taken.next;
        if (taken.next < 0)
            q->tail[q->slot] = -1;
        else  /* many entries are stale (half on 1024^2 grids): fetch the
               * value the next one is checked against */
            __builtin_prefetch(&dist[q->pool[taken.next].node]);
        q->pool[e].next = q->free;
        q->free = e;
        q->queued--;
        const int32_t u = taken.node;
        const double du = dist[u];
        if (taken.dist > du)
            continue;  /* stale: u has a later entry */
        const int32_t cell = u / h;
        const int32_t z = u - cell * h;
        const int32_t first = start[cell], end = start[cell + 1];
        if (z >= reach && z < h - reach) {
            const double *dist_z = dist + z;
            for (int32_t c = first; c < end && status == 0; c += 64) {
                const uint64_t n = end - c < 64 ? (uint64_t)(end - c) : 64;
                uint64_t hit = 0;
                for (uint64_t i = 0; i < n; i++)
                    hit |= (uint64_t)(du + weight[c + i]
                                      < dist_z[off[c + i]]) << i;
                while (hit != 0 && status == 0) {
                    const int32_t s = c + __builtin_ctzll(hit);
                    hit &= hit - 1;
                    status = relax(q, off[s] + z, du + weight[s]);
                }
            }
            continue;
        }
        for (int32_t s = first; s < end && status == 0; s++) {
            int64_t zz = (int64_t)z + step[s];
            if (zz < 0)
                zz += m;
            else if (zz >= m)
                zz -= m;
            if (2 * zz > m)
                zz = m - zz;
            status = relax(q, target[s] * h + (int32_t)zz, du + weight[s]);
        }
    }
    return status;
}

int warpconv_sweep(int32_t n_cells, int32_t m, const int32_t *start,
                   const int32_t *target, const int32_t *step,
                   const double *weight, int32_t source, double *dist,
                   int32_t pool_size)
{
    const int32_t h = m / 2 + 1, n_nodes = n_cells * h;
    const int32_t n_slots = start[n_cells];
    int32_t reach = 0;
    double w_min = INFINITY, w_max = 0.0;

    for (int32_t s = 0; s < n_slots; s++) {
        const int32_t a = step[s] < 0 ? -step[s] : step[s];
        if (a > reach)
            reach = a;
        if (weight[s] < w_min)
            w_min = weight[s];
        if (weight[s] > w_max)
            w_max = weight[s];
    }
    double delta = w_min / 2;
    int32_t nb = WARPCONV_BUCKET_CAP;
    if (w_max / delta <= WARPCONV_BUCKET_CAP - 3)
        nb = (int32_t)(w_max / delta) + 3;
    else
        delta = w_max / (WARPCONV_BUCKET_CAP - 3);

    if (pool_size < 1)
        pool_size = 1;
    queue q = {malloc((size_t)pool_size * sizeof(entry)), pool_size, 0, -1,
               malloc(2 * (size_t)nb * sizeof(int32_t)), NULL, dist,
               1 / delta, 0.0, 0, nb, 0};
    /* one entry more: a stencil without slots would ask for malloc(0),
     * which may return NULL */
    int32_t *off = malloc(((size_t)n_slots + 1) * sizeof *off);
    int status = WARPCONV_NO_MEMORY;
    if (q.pool != NULL && q.head != NULL && off != NULL) {
        q.tail = q.head + nb;
        for (int32_t i = 0; i < 2 * nb; i++)
            q.head[i] = -1;
        for (int32_t i = 0; i < n_nodes; i++)
            dist[i] = INFINITY;
        /* only the wrap-free band reads off: where it is empty, skip the
         * sums, which could then leave the int32 range */
        if (reach < h - reach)
            for (int32_t s = 0; s < n_slots; s++)
                off[s] = target[s] * h + step[s];
        status = run(&q, m, start, target, step, off, weight, source, reach);
    }
    free(q.pool);
    free(q.head);
    free(off);
    return status;
}
