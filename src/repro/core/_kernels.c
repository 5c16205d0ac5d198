/* The compiled kernels, built and loaded by repro.core.native: the table
 * builder and the id map of repro.graphs.adjacency, the per-source kernels of
 * repro.core.kernels, whose docstrings say what each returns, GC's selection
 * scan (repro.core.gc.greedy_select) and the candidate index of
 * repro.dynamic.index.build_index. A per-source kernel takes
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

/* Edge e of pos as the arc u -> v, from the endpoint of higher rank (ties and
 * a NULL rank: as given); 0 if live is given and an endpoint is dead. */
static int arc(const int64_t *pos, const int64_t *rank, const uint8_t *live, int64_t e, int64_t *u, int64_t *v) {
    int64_t a = pos[2 * e], b = pos[2 * e + 1];
    if (live && !(live[a] && live[b])) return 0;
    if (rank && rank[a] < rank[b]) *u = b, *v = a;
    else *u = a, *v = b;
    return 1;
}

/* Grows *buf, of *have rows of width entries, to hold need rows, at least
 * doubling it; 0 if realloc fails. */
static int room(int32_t **buf, int64_t *have, int64_t need, int64_t width) {
    int32_t *more;
    if (need <= *have) return 1;
    if (need < 2 * *have) need = 2 * *have;
    if (!(more = realloc(*buf, width * need * sizeof *more))) return 0;
    *buf = more, *have = need;
    return 1;
}

/* The table of repro.graphs.adjacency.orient_by_rank. The arcs of the m
 * edges over n positions go into a CSR with ascending targets by two counting
 * scatters (by target, then by source). Source u's triangle rows are (i, j)
 * when its i-th out-neighbour has its j-th as one, in arc order, then N+ order,
 * found in one scan that marks N+(u) with local index + 1. The arcs in fewer
 * than k-2 of u's rows are dropped, and so are their rows; the rest are
 * re-indexed into the kept out-neighbours. Writes ptr and tptr (n + 1 each)
 * and ind (m entries), sets *tri to a buffer of the kept rows, which the
 * caller frees with release, and returns their number, or -1. */
int64_t orient(int64_t n, int64_t m, const int64_t *pos, const int64_t *rank, const uint8_t *live,
               int64_t k, int64_t *ptr, int32_t *ind, int64_t *tptr, int32_t **tri) {
    int64_t *optr = calloc(2 * (n + 2), sizeof *optr), *iptr = optr + n + 2, *cnt = NULL;
    int32_t *src = calloc(2 * m + n + 1, sizeof *src), *full = src + m, *mark = full + m, *loc, *rows = NULL,
            *out = NULL;
    int64_t u, v, d = 0, t = 0, kept = 0, have = 0, had = 0, r;
    if (!optr || !src || !room(&out, &had, 1, 2)) goto fail;
    for (int64_t e = 0; e < m; e++)  /* degrees, at [p + 2]: the scatters turn [p + 1] into p's end */
        if (arc(pos, rank, live, e, &u, &v)) optr[u + 2]++, iptr[v + 2]++;
    for (int64_t p = 2; p < n + 2; p++) optr[p] += optr[p - 1], iptr[p] += iptr[p - 1];
    for (int64_t e = 0; e < m; e++)
        if (arc(pos, rank, live, e, &u, &v)) src[iptr[v + 1]++] = (int32_t)u;
    for (v = 0; v < n; v++)
        for (int64_t x = iptr[v]; x < iptr[v + 1]; x++) full[optr[src[x] + 1]++] = (int32_t)v;
    for (u = 0; u < n; u++) d = optr[u + 1] - optr[u] > d ? optr[u + 1] - optr[u] : d;
    if (!(cnt = calloc(d + 1, sizeof *cnt + sizeof *loc))) goto fail;
    loc = (int32_t *)(cnt + d + 1), ptr[0] = tptr[0] = 0;
    for (u = 0; u < n; u++) {
        int64_t a = optr[u];
        d = optr[u + 1] - a, r = 0;
        for (int64_t i = 0; i < d; i++) mark[full[a + i]] = (int32_t)(i + 1);
        for (int64_t i = 0; i < d; i++) {
            int64_t b = optr[full[a + i]], c = optr[full[a + i] + 1];
            if (!room(&rows, &have, r + c - b, 2)) goto fail;  /* every row of this out-neighbour fits */
            for (int64_t f = b; f < c; f++) {
                int32_t j = mark[full[f]];
                if (j) rows[2 * r] = (int32_t)i, rows[2 * r + 1] = j - 1, cnt[i]++, cnt[j - 1]++, r++;
            }
        }
        for (int64_t i = 0; i < d; i++) {
            mark[full[a + i]] = 0;
            loc[i] = cnt[i] >= k - 2 ? (int32_t)(kept - ptr[u]) : -1;
            if (loc[i] >= 0) ind[kept++] = full[a + i];
            cnt[i] = 0;
        }
        ptr[u + 1] = kept;
        if (!room(&out, &had, t + r, 2)) goto fail;
        for (int64_t x = 0; x < r; x++) {
            int32_t i = loc[rows[2 * x]], j = loc[rows[2 * x + 1]];
            if (i >= 0 && j >= 0) out[2 * t] = i, out[2 * t + 1] = j, t++;
        }
        tptr[u + 1] = t;
    }
    goto done;
fail:
    t = -1, free(out), out = NULL;
done:
    free(optr), free(src), free(cnt), free(rows);
    *tri = out;
    return t;
}

int64_t release(void *buf) {
    free(buf);
    return 0;
}

int64_t count_from_source(TABLE, int64_t src, int64_t k, int64_t *counts) {
    Search S;
    int r = OPEN(NULL, 1);
    if (r > 0) counts[src] += count_rec(&S, S.cand, k - 1);
    for (int64_t i = 0; r > 0 && i < S.d; i++) counts[S.nb[i]] += S.local[i];
    free(S.mask);
    return r < 0 ? -1 : 0;
}

/* count_from_source from every position with k-1 or more out-neighbours. */
int64_t node_scores(TABLE, int64_t n, int64_t k, int64_t *counts) {
    for (int64_t u = 0; u < n; u++)
        if (ptr[u + 1] - ptr[u] >= k - 1 && count_from_source(ptr, ind, tptr, tri, u, k, counts) < 0) return -1;
    return 0;
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

/* Algorithm 2's selection: walks the n rows of cliques (k positions each) in
 * the given order and keeps each row that has no position used yet, marking
 * its positions used and picked[x] for row order[x]. Returns the rows kept. */
int64_t greedy_scan(int64_t n, int64_t k, const int32_t *cliques, const int64_t *order, uint8_t *used,
                    uint8_t *picked) {
    int64_t kept = 0, j;
    for (int64_t x = 0; x < n; x++) {
        const int32_t *c = cliques + order[x] * k;
        for (j = 0; j < k && !used[c[j]]; j++) {}
        if (j < k) continue;
        for (j = 0; j < k; j++) used[c[j]] = 1;
        picked[x] = 1, kept++;
    }
    return kept;
}

/* The id map of repro.graphs.adjacency.positions: an open-addressing table
 * (linear probing, Fibonacci hashing, at most half full) of the n distinct
 * keys, then out[x] = the index of query[x] among them, or -1 if it is not a
 * key. Returns the number of queries that are not keys, or -1. */
int64_t index_of(int64_t n, const int64_t *keys, int64_t m, const int64_t *query, int64_t *out) {
    int64_t size = 2, bits = 1, miss = 0, *table;
    while (size < 2 * n) size *= 2, bits++;
    if (!(table = malloc(size * sizeof *table))) return -1;
    memset(table, 0xff, size * sizeof *table);
#define HOME(key) (int64_t)((uint64_t)(key) * 0x9E3779B97F4A7C15ULL >> (64 - bits))
    for (int64_t i = 0; i < n; i++) {
        int64_t h = HOME(keys[i]);
        while (table[h] >= 0) h = (h + 1) & (size - 1);
        table[h] = i;
    }
    for (int64_t x = 0; x < m; x++) {
        int64_t h = HOME(query[x]);
        while (table[h] >= 0 && keys[table[h]] != query[x]) h = (h + 1) & (size - 1);
        miss += (out[x] = table[h]) < 0;
    }
#undef HOME
    free(table);
    return miss;
}

/* Algorithm 5's index, for repro.dynamic.index.build_index. The graph is a
 * CSR over n rows (nbr holds rows, in any order), and S is n_s cliques of k
 * rows (members), each in ascending id. Clique c's B = c ∪ N_F(c) is numbered
 * by a per-row slot array (-1: not in B): its members 0..k-1, then its free
 * neighbours as met. Each local node gets a W-word mask of its neighbours of
 * higher slot in B, so enum_rec lists each k-clique of B once, from its lowest
 * slot; rooted at 0..k-1, these are the cliques with a member of c, each from
 * its lowest member of c. c itself (every slot below k) is dropped. Writes
 * c's number of candidates to counts[c], sets *out to a buffer of their k-row
 * records, in S order, which the caller frees with release, and returns their
 * number, or -1. */
int64_t candidate_index(int64_t n, const int64_t *ptr, const int64_t *nbr, int64_t n_s, int64_t k,
                        const int64_t *members, int64_t *counts, int32_t **out) {
    int32_t *slot = malloc((n + 1) * sizeof *slot), *b = malloc((n + k) * sizeof *b), *buf = NULL;
    uint8_t *held = calloc(n + 1, 1);
    u64 *work = NULL, *more;
    int64_t total = 0, have = 0, words = 0, j, s;
    Search S;
    memset(&S, 0, sizeof S);
    if (!slot || !b || !held || !room(&buf, &have, 1, k)) goto fail;
    memset(slot, 0xff, n * sizeof *slot);
    for (int64_t x = 0; x < n_s * k; x++) held[members[x]] = 1;
    for (int64_t c = 0; c < n_s; c++) {
        const int64_t *m = members + c * k;
        int64_t d = 0, w, kept = 0;
        int32_t *rows;  /* c's rows, from the end of the earlier cliques' */
        for (j = 0; j < k; j++) slot[m[j]] = (int32_t)d, b[d++] = (int32_t)m[j];
        for (j = 0; j < k; j++)
            for (int64_t x = ptr[m[j]]; x < ptr[m[j] + 1]; x++)
                if (!held[nbr[x]] && slot[nbr[x]] < 0) slot[nbr[x]] = (int32_t)d, b[d++] = (int32_t)nbr[x];
        w = (d + 63) / 64;
        if ((d + k) * w + k > words) {  /* d mask rows, k candidate rows, the prefix */
            if (!(more = realloc(work, 2 * ((d + k) * w + k) * sizeof *work))) goto fail;
            work = more, words = 2 * ((d + k) * w + k);
        }
        memset(work, 0, d * w * sizeof *work);
        for (int64_t i = 0; i < d; i++)
            for (int64_t x = ptr[b[i]]; x < ptr[b[i] + 1]; x++)
                if ((s = slot[nbr[x]]) > i) work[i * w + (s >> 6)] |= 1ULL << (s & 63);
        S.k = k, S.w = w, S.nb = b, S.mask = work, S.cand = work + d * w;
        S.prefix = (int32_t *)(S.cand + k * w);
        for (;;) {  /* again, with room for them all, if the buffer was short */
            S.out = buf + total * k, S.cap = have - total, S.n = 0;
            for (int64_t i = 0; k >= 2 && i < k; i++) {
                S.prefix[0] = b[i];
                memcpy(S.cand, work + i * w, w * sizeof *work);
                enum_rec(&S, S.cand, k - 1, 1);
            }
            if (S.n <= S.cap) break;
            if (!room(&buf, &have, total + S.n, k)) goto fail;
        }
        rows = buf + total * k;
        for (int64_t x = 0; x < S.n; x++) {
            for (j = 0; j < k && slot[rows[x * k + j]] < k; j++) {}
            if (j < k) memmove(rows + kept * k, rows + x * k, k * sizeof *rows), kept++;
        }
        counts[c] = kept, total += kept;
        for (int64_t i = 0; i < d; i++) slot[b[i]] = -1;
    }
    goto done;
fail:
    total = -1, free(buf), buf = NULL;
done:
    free(slot), free(b), free(held), free(work);
    *out = buf;
    return total;
}
