/* The compiled kernels, built and loaded by repro.core.native: the triangle
 * search of repro.graphs.adjacency and the four per-source kernels of
 * repro.core.kernels, whose docstrings say what each returns. A kernel takes
 * an Oriented table (ptr, ind, tptr, tri) and a source, whose d out-neighbours
 * are local nodes 0..d-1, each with a W-word mask of its out-neighbours among
 * them (W = ceil(d/64)), set from the triangle rows. Set bits are visited low
 * to high (ctz), in ascending node id. A negative result: malloc failed. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;
#define TABLE const int64_t *ptr, const int32_t *ind, const int64_t *tptr, const int32_t *tri
#define OPEN(valid, undirected) open_local(&S, ptr, ind, tptr, tri, src, k, valid, undirected)
/* Runs the statement after it with i = each set bit of the w-word set, low to
 * high; there, b_ holds the bits of word x_ from bit i up. */
#define EACH_BIT(set, w, i)                  \
    for (int64_t x_ = 0, i; x_ < (w); x_++) \
        for (u64 b_ = (set)[x_]; b_ && (i = 64 * x_ + __builtin_ctzll(b_), 1); b_ &= b_ - 1)

typedef struct {
    int64_t k, d, w, n, cap, first, prune, found, visited, best;
    const int32_t *nb;  /* the positions of the local nodes */
    u64 *mask, *cand;   /* d rows of w words; k rows, a candidate set per depth */
    int64_t *local;     /* per local node: its count share, or its score */
    int32_t *prefix, *tmp, *out, *members;  /* prefix: the members so far, source first */
} Search;

/* The local subgraph of src: 1, or 0 if fewer than k-1 out-neighbours are
 * valid. Undirected, each triangle row sets its bit both ways. */
static int open_local(Search *S, TABLE, int64_t src, int64_t k, const uint8_t *valid, int undirected) {
    int64_t a = ptr[src], d = ptr[src + 1] - a, w = (d + 63) / 64, c = 0;
    memset(S, 0, sizeof *S);
    if (k < 2 || d < k - 1) return 0;
    if (!(S->mask = calloc(d * w + k * w + d + k, sizeof(u64)))) return -1;
    S->k = k, S->d = d, S->w = w, S->nb = ind + a, S->cand = S->mask + d * w;
    S->local = (int64_t *)(S->cand + k * w), S->prefix = (int32_t *)(S->local + d);
    S->tmp = S->prefix + k, S->prefix[0] = (int32_t)src;
    for (int64_t i = 0; i < d; i++)
        if (!valid || valid[ind[a + i]]) S->cand[i >> 6] |= 1ULL << (i & 63), c++;
    for (int64_t r = tptr[src]; c >= k - 1 && r < tptr[src + 1]; r++) {
        int64_t i = tri[2 * r], j = tri[2 * r + 1];
        S->mask[i * w + (j >> 6)] |= 1ULL << (j & 63);
        if (undirected) S->mask[j * w + (i >> 6)] |= 1ULL << (i & 63);
    }
    return c >= k - 1;
}

/* nxt = cand & the mask of local node i; returns its popcount. */
static int64_t meet(const Search *S, const u64 *cand, int64_t i, u64 *nxt) {
    int64_t c = 0;
    for (int64_t x = 0; x < S->w; x++) c += __builtin_popcountll(nxt[x] = cand[x] & S->mask[i * S->w + x]);
    return c;
}

static void sort32(int32_t *a, int64_t n) {
    for (int64_t i = 1; i < n; i++)
        for (int64_t j = i; j > 0 && a[j - 1] > a[j]; j--) { int32_t t = a[j]; a[j] = a[j - 1], a[j - 1] = t; }
}

/* The number of need-cliques in cand, each reached from its lowest local
 * node, adding each node's share to S->local. */
static int64_t count_rec(Search *S, u64 *cand, int64_t need) {
    int64_t w = S->w, total = 0;
    EACH_BIT(cand, w, i) {
        int64_t n = need == 1, c = 0;
        const u64 *m = S->mask + i * w;
        if (need == 2)
            for (int64_t y = 0; y < w; y++) n += __builtin_popcountll(cand[y] & m[y]);
        if (need > 2) {  /* the candidates after i, met with the mask of i */
            for (int64_t y = 0; y < w; y++)
                c += __builtin_popcountll(cand[w + y] = (y < x_ ? 0 : y == x_ ? b_ & (b_ - 1) : cand[y]) & m[y]);
            if (c < need - 1) continue;
            n = count_rec(S, cand + w, need - 1);
        }
        S->local[i] += n, total += n;
    }
    return need == 2 ? total / 2 : total;
}

/* Writes the cliques below the prefix into S->out, up to S->cap rows, and
 * counts them all in S->n; with S->first, stops at the first one. */
static int enum_rec(Search *S, u64 *cand, int64_t need, int64_t depth) {
    EACH_BIT(cand, S->w, i) {
        if (need == 1) {
            if (S->n < S->cap) {
                memcpy(S->out + S->n * S->k, S->prefix, depth * sizeof(int32_t));
                S->out[S->n * S->k + depth] = S->nb[i];
            }
            if (S->n++, S->first) return 1;
        } else if (meet(S, cand, i, cand + S->w) >= need - 1) {
            S->prefix[depth] = S->nb[i];
            if (enum_rec(S, cand + S->w, need - 1, depth + 1)) return 1;
        }
    }
    return 0;
}

/* FindMin below the prefix, of partial score s: the lowest (score, sorted
 * members) clique goes to S->best and S->members. */
static void min_rec(Search *S, u64 *cand, int64_t need, int64_t depth, int64_t s) {
    int64_t low = -1, j = 0;
    for (int64_t x = 0; x < S->w; x++) S->visited += __builtin_popcountll(cand[x]);
    EACH_BIT(cand, S->w, i) {
        if (need == 1) {  /* the prefix is fixed: the lowest (score, index) wins */
            if (low < 0 || S->local[i] < S->local[low]) low = i;
        } else if (!(S->prune && S->found && s + S->local[i] > S->best)
                   && meet(S, cand, i, cand + S->w) >= need - 1) {
            S->prefix[depth] = S->nb[i];
            min_rec(S, cand + S->w, need - 1, depth + 1, s + S->local[i]);
        }
    }
    if (low < 0) return;
    if ((s += S->local[low]) > S->best && S->found) return;
    memcpy(S->tmp, S->prefix, depth * sizeof(int32_t));
    S->tmp[depth] = S->nb[low];
    sort32(S->tmp, S->k);
    while (S->found && s == S->best && j < S->k && S->tmp[j] == S->members[j]) j++;
    if (!S->found || s < S->best || (j < S->k && S->tmp[j] < S->members[j])) {
        memcpy(S->members, S->tmp, S->k * sizeof(int32_t));
        S->best = s, S->found = 1;
    }
}

/* Row (i, j) of source u when its i-th out-neighbour v has the j-th as one,
 * in arc order, then N+(v) order; sets tptr[u + 1] to the rows up to u's
 * last, writes the rows unless tri is NULL, and returns their number. */
int64_t triangles(int64_t n, const int64_t *ptr, const int32_t *ind, int64_t *tptr, int32_t *tri) {
    int32_t *mark = calloc(n + 1, sizeof *mark);  /* local index + 1 in N+(u), or 0 */
    int64_t t = 0;
    if (!mark) return -1;
    tptr[0] = 0;
    for (int64_t u = 0; u < n; u++) {
        for (int64_t e = ptr[u]; e < ptr[u + 1]; e++) mark[ind[e]] = (int32_t)(e - ptr[u] + 1);
        for (int64_t e = ptr[u]; e < ptr[u + 1]; e++)
            for (int64_t f = ptr[ind[e]]; f < ptr[ind[e] + 1]; f++) {
                int32_t j = mark[ind[f]];
                if (j && tri) tri[2 * t] = (int32_t)(e - ptr[u]), tri[2 * t + 1] = j - 1;
                t += j != 0;
            }
        for (int64_t e = ptr[u]; e < ptr[u + 1]; e++) mark[ind[e]] = 0;
        tptr[u + 1] = t;
    }
    free(mark);
    return t;
}

int64_t count_from_source(TABLE, int64_t src, int64_t k, int64_t *counts) {
    Search S;
    int r = OPEN(NULL, 1);
    if (r > 0) counts[src] += count_rec(&S, S.cand, k - 1);
    for (int64_t i = 0; r > 0 && i < S.d; i++) counts[S.nb[i]] += S.local[i];
    free(S.mask);
    return r < 0 ? -1 : 0;
}

int64_t enumerate_from_source(TABLE, int64_t src, int64_t k, const uint8_t *valid, int32_t *out, int64_t cap) {
    Search S;
    int r = OPEN(valid, 0);
    S.out = out, S.cap = cap;
    if (r > 0) enum_rec(&S, S.cand, k - 1, 1);
    free(S.mask);
    return r < 0 ? -1 : S.n;
}

int64_t find_first_clique(TABLE, int64_t src, int64_t k, const uint8_t *valid, int32_t *out) {
    Search S;
    int r = OPEN(valid, 0);
    S.out = out, S.cap = S.first = 1;
    if (r > 0 && enum_rec(&S, S.cand, k - 1, 1)) sort32(out, k);
    free(S.mask);
    return r < 0 ? -1 : S.n;
}

int64_t find_min_clique(TABLE, int64_t src, int64_t k, const uint8_t *valid, const int64_t *score,
                        int64_t prune, int64_t *best, int32_t *members) {
    Search S;
    int r = OPEN(valid, 0);
    S.prune = prune, S.members = members;
    for (int64_t i = 0; r > 0 && i < S.d; i++) S.local[i] = score[S.nb[i]];
    if (r > 0) min_rec(&S, S.cand, k - 1, 1, score[src]);
    best[0] = S.found, best[1] = S.best;
    free(S.mask);
    return r < 0 ? -1 : S.visited;
}
