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
 * Each bucket is a circular doubly linked list through succ and pred,
 * work arrays of n_nodes + WARPCONV_BUCKET_CAP int32 entries: entries
 * below n_nodes are the nodes' links, entry n_nodes + i is the head of
 * slot i.  Lowering a queued node's distance unlinks it and links it into
 * its new bucket, so no node is queued twice.  A node taken off its bucket
 * has pred -1.  Nodes are unseen while their distance is infinite, so only
 * the heads need initial values.  Nodes are taken from the lowest
 * non-empty bucket, first in first out (any order would do).  A node taken
 * off can still improve: from a node of its own bucket where the bucket is
 * wider than the least weight (the capped case), or by rounding; it is
 * then queued again and taken once more (label-correcting).  With
 * delta = w_min / 2 an edge crosses at least two bucket boundaries, so
 * outside the capped case that happens only where rounding puts a
 * distance one bucket low.
 *
 * Why the distances are bit for bit scipy's csgraph Dijkstra, whatever the
 * order: write fl(a + w) for the rounded double sum.  (1) Every value ever
 * assigned is the left-to-right double sum along some path from the
 * source.  (2) At the end, d(v) <= fl(d(u) + w) on every edge u -> v: each
 * time d(u) falls u is queued, and the last time it is taken off it relaxes
 * every edge with its final value, after which d(v) only falls.  Take a
 * path whose double sum S_k is least among paths to v, with prefix sums
 * S_i at its nodes v_i.  By (2) and induction, since rounding is monotone,
 * d(v_{i+1}) <= fl(d(v_i) + w) <= fl(S_i + w) = S_{i+1}; so d(v) <= S_k, and
 * by (1) d(v) >= S_k.  Each distance is the least double path sum, which
 * depends on the graph alone.  Dijkstra's output satisfies (1) and (2) too
 * (a node settled before u has d(v) <= d(u) <= fl(d(u) + w)), so both are
 * that least sum.  Strict decreases of finitely many path sums end the
 * loop.  The argument needs fl(d + w) >= d, which holds for w > 0 even
 * where w is below half an ulp of d and fl(d + w) == d.
 *
 * With K the largest |step|, a position K <= z <= h - 1 - K reaches only
 * positions z + step in [0, h), which need neither wrap nor fold; those
 * positions take a loop without either, and only the 2K positions at the
 * ends of the folded fiber go through the fold.
 *
 * The caller checks the sizes, that start runs from 0 up to the slot
 * count, that every step satisfies |step| < m, every target lies in
 * [0, n_cells) and every weight is positive, and that m and
 * n_cells * h + WARPCONV_BUCKET_CAP fit an int32.
 */

#include <math.h>
#include <stdint.h>

#define WARPCONV_BUCKET_CAP 4096

const int32_t warpconv_bucket_cap = WARPCONV_BUCKET_CAP;

typedef struct {
    int32_t *succ, *pred;
    double *dist;
    double inv_delta;  /* 1 / bucket width */
    double cur;        /* absolute index of the bucket being emptied */
    int32_t slot;      /* its slot, cur mod nb */
    int32_t nb;        /* live slots */
    int32_t heads;     /* index of slot 0's head, n_nodes */
    int32_t queued;    /* nodes in some bucket */
} queue;

/* Lower node v to dv if that is shorter, moving it to dv's bucket. */
static inline void relax(queue *q, int32_t v, double dv)
{
    int32_t *succ = q->succ, *pred = q->pred;
    if (!(dv < q->dist[v]))
        return;
    if (q->dist[v] == INFINITY || pred[v] < 0) {
        q->queued++;
    } else {
        succ[pred[v]] = succ[v];
        pred[succ[v]] = pred[v];
    }
    q->dist[v] = dv;
    /* clamped as a double: no conversion can overflow */
    double ahead = dv * q->inv_delta - q->cur;
    if (!(ahead >= 0))
        ahead = 0;
    else if (ahead >= q->nb)
        ahead = q->nb - 1;
    int32_t slot = q->slot + (int32_t)ahead;
    if (slot >= q->nb)
        slot -= q->nb;
    const int32_t head = q->heads + slot, last = pred[head];
    pred[v] = last;
    succ[v] = head;
    succ[last] = v;
    pred[head] = v;
}

void warpconv_sweep(int32_t n_cells, int32_t m, const int32_t *start,
                    const int32_t *target, const int32_t *step,
                    const double *weight, int32_t source, double *dist,
                    int32_t *succ, int32_t *pred)
{
    const int32_t h = m / 2 + 1;
    const int32_t n_nodes = n_cells * h;
    int32_t reach = 0;
    double w_min = INFINITY, w_max = 0.0;

    for (int32_t s = 0; s < start[n_cells]; s++) {
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

    queue q = {succ, pred, dist, 1 / delta, 0.0, 0, nb, n_nodes, 0};
    for (int32_t i = n_nodes; i < n_nodes + nb; i++)
        succ[i] = pred[i] = i;
    for (int32_t i = 0; i < n_nodes; i++)
        dist[i] = INFINITY;
    relax(&q, source * h, 0.0);

    while (q.queued > 0) {
        const int32_t head = n_nodes + q.slot;
        const int32_t u = succ[head];
        if (u == head) {
            q.cur += 1;
            if (++q.slot == nb)
                q.slot = 0;
            continue;
        }
        succ[head] = succ[u];
        pred[succ[u]] = head;
        pred[u] = -1;
        q.queued--;
        const double du = dist[u];
        const int32_t cell = u / h;
        const int32_t z = u - cell * h;
        const int32_t first = start[cell], end = start[cell + 1];
        if (z >= reach && z < h - reach) {
            for (int32_t s = first; s < end; s++)
                relax(&q, target[s] * h + z + step[s], du + weight[s]);
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
            relax(&q, target[s] * h + (int32_t)zz, du + weight[s]);
        }
    }
}
