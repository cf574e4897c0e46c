/* Chunk kernels of the evolution integrators and the event engines of the
 * two finite processes (further down), loaded by _kernels.py.
 *
 * is_chunk runs both independent-set processes (d = 3 and 4) and cut_chunk
 * the max-cut process.  Each transcribes the composed round of is_evolution
 * / cut_evolution (is_chunk loop for loop over the degree classes): every
 * expression, its left-to-right evaluation order and every status code is
 * the same, and with -ffp-contract=off (fused multiply-adds round
 * differently) the two produce bit-identical doubles, pinned by tests at
 * -O2 and at -O0.  The unroll pragmas and the class indices known at compile
 * time only keep the classes in registers, for speed.  The source refuses to
 * compile where doubles are evaluated at a wider precision (x87).  An edit
 * to a round rule goes into both.  The state goes in and out through one
 * double array; rounds and status come back through out[0] and out[1].
 */
#include <float.h>
#include <stdint.h>

#if FLT_EVAL_METHOD != 0
#error "double arithmetic must round to double (FLT_EVAL_METHOD == 0)"
#endif

#define STATUS_STOPPED 0
#define STATUS_BUDGET 1
#define STATUS_INVALID 2
#define STATUS_EXHAUSTED 3
#define DEGREE_CAP 7  /* is_evolution.DEGREE_CAP */

/* Advance the d-regular independent-set recurrence by up to max_rounds
 * rounds: Is3Rules.step for d = 3 and Is4Rules.step for d = 4, block for
 * block, each loop over the degree classes that of is_evolution.  The run
 * stops once the start class v[d] falls to eps.
 *
 * state: v[2], ..., v[DEGREE_CAP], independent, erase */
void is_chunk(double *state, double eps, int64_t d, int64_t improvement,
              int64_t max_rounds, int64_t *out)
{
    double v[DEGREE_CAP + 1];
#pragma GCC unroll 8
    for (int k = 2; k <= DEGREE_CAP; k++)
        v[k] = state[k - 2];
    double independent = state[DEGREE_CAP - 1], erase = state[DEGREE_CAP];
    int64_t rounds = 0;
    int64_t status = STATUS_BUDGET;
    while (rounds < max_rounds) {
        if (!((d == 3 ? v[3] : v[4]) > eps)) {
            status = STATUS_STOPPED;
            break;
        }
        rounds += 1;

        /* redistribute_erasures: its pool is not empty, as v[d] > eps */
        double s = 0.0;
        if (erase > eps) {
#pragma GCC unroll 8
            for (int k = 3; k <= DEGREE_CAP; k++)
                if (v[k] > eps)
                    s += k * v[k];
            double r = (erase + eps) / s;
#pragma GCC unroll 8
            for (int k = 3; k <= DEGREE_CAP; k++)
                if (v[k] > eps) {
                    double dl = r * k * v[k];
                    v[k] -= dl;
                    v[k - 1] += dl;
                }
            erase = -eps;
        }

        /* open_edge_mass: apply_contractions' s, is3's edge_pool */
        s = 0.0;
#pragma GCC unroll 8
        for (int k = 3; k <= DEGREE_CAP; k++)
            if (v[k] > eps)
                s += k * v[k];

        if (v[2] > eps) {  /* apply_contractions */
            if (!(s > 0.0)) {
                status = STATUS_EXHAUSTED;
                break;
            }
            double r = (v[2] + eps) / s;
            double edge[DEGREE_CAP + 1], add[2 * DEGREE_CAP - 1] = {0.0};
#pragma GCC unroll 8
            for (int k = 3; k <= DEGREE_CAP; k++)
                edge[k] = k * v[k];
#pragma GCC unroll 8
            for (int i = 3; i <= DEGREE_CAP; i++)
#pragma GCC unroll 8
                for (int j = 3; j <= DEGREE_CAP; j++)
                    add[i + j - 2] += edge[i] * edge[j];
            independent += v[2] + eps;
            v[2] = -eps;
#pragma GCC unroll 8
            for (int k = 3; k <= DEGREE_CAP; k++)
                v[k] = v[k] + r * (add[k] / s - 2 * k * v[k]);
#pragma GCC unroll 8
            for (int m = DEGREE_CAP + 1; m < 2 * DEGREE_CAP - 1; m++)
                erase += m * r * add[m] / s;
        }

        /* is3_delete_step's test for an occupied class */
        if (d == 3) {
            int occupied = 0;
#pragma GCC unroll 8
            for (int k = 3; k <= DEGREE_CAP; k++)
                occupied = occupied || v[k] > eps;
            if (!occupied) {
                status = STATUS_EXHAUSTED;
                break;
            }
        }

        /* _delete_top_class's search down to floor 4 for d = 3, and to 5
         * for d = 4, where 5 is Is4Rules.step's test for the probe step */
        int floor = d == 3 ? 4 : 5;
        int mx = DEGREE_CAP;
#pragma GCC unroll 8
        for (int k = DEGREE_CAP; k > 4; k--)
            if (mx == k && k > floor && v[k] < eps)
                mx = k - 1;
        if (d == 4 && mx == 5) {  /* is4_special_step */
            double den = 3 * v[3] + 4 * v[4] + 5 * v[5];
            if (!(den > 0.0)) {
                status = STATUS_EXHAUSTED;
                break;
            }
            double rat3 = 3 * v[3] / den;
            double rat4 = 4 * v[4] / den;
            double rat5 = 5 * v[5] / den;
            v[2] += eps * 3 * rat3 * rat3 * rat3;
            v[3] += eps * (-1 - 3 * rat3);
            v[4] += eps * 3 * (-rat4 + rat3 * rat3 * (1 - rat3));
            v[5] += eps * 3 * (-rat5 + rat3 * rat4 * (rat4 + 2 * rat5));
            independent += eps * (1 - rat3 * rat3 * rat3);
            erase += eps * (6 - 12 * rat3 * rat3 + 6 * rat3 * rat3 * rat3
                            + (15 * rat3 * rat4 + 3) * (rat4 + 2 * rat5));
        } else {  /* _delete_top_class's deletion */
#pragma GCC unroll 8
            for (int k = 4; k <= DEGREE_CAP; k++)
                if (k == mx)
                    v[k] -= 2 * eps;
            erase += 2 * mx * eps;
        }

        /* is3_delete_step's correction terms */
        if (improvement && mx == 4) {
            double x = 4 * v[4] / s;
            double p4444 = 2 * eps * x * x * x * x;
            v[3] -= 4 * p4444;
            erase += 12 * p4444;
            independent += p4444;
            double p4443 = 8 * eps * x * x * x * 3 * v[3] / s;
            v[3] -= 3 * p4443;
            v[2] -= p4443;
            erase += 11 * p4443;
            independent += p4443;
            x = 12 * v[4] * v[3] / s / s;
            double p4433 = 12 * eps * x * x;
            v[4] += p4433;
            v[3] -= 2 * p4433;
            v[2] -= 2 * p4433;
            erase += 6 * p4433;
            independent += p4433;
        }

        /* state_in_range */
        double lo = -8.0 * eps, hi = 1.0 + 8.0 * eps;
        int in_range = 1;
#pragma GCC unroll 8
        for (int k = 2; k <= DEGREE_CAP; k++)
            in_range = in_range && v[k] >= lo && v[k] <= hi;
        if (!(in_range && independent >= -1e-12 && independent <= 0.5 + 8 * eps
              && erase >= lo && erase <= 1.0)) {
            status = STATUS_INVALID;
            break;
        }
    }
    /* volatile: paired into vector stores, these would carry pairs of
     * classes through every round in vector registers, 4% slower */
    volatile double *put = state;
#pragma GCC unroll 8
    for (int k = 2; k <= DEGREE_CAP; k++)
        put[k - 2] = v[k];
    put[DEGREE_CAP - 1] = independent;
    put[DEGREE_CAP] = erase;
    out[0] = rounds;
    out[1] = status;
}

/* Advance the max-cut recurrence by up to max_rounds rounds; the run stops
 * once rat2 + rat3 falls to eps.  linear selects the action-rate route: the
 * per-round rates come from eliminating the six-equation action system and
 * are rescaled by the pool polynomial, instead of using the pre-expanded
 * polynomials directly.  The two routes must agree to rounding; keeping
 * both guards the polynomial transcription.
 *
 * state: rat2, rat3, good, bad */
void cut_chunk(double *state, double eps, int64_t linear, int64_t max_rounds,
               int64_t *out)
{
    double rat2 = state[0], rat3 = state[1], good = state[2], bad = state[3];
    int64_t rounds = 0;
    int64_t status = STATUS_BUDGET;
    while (rounds < max_rounds) {
        if (!(rat2 + rat3 > eps)) {
            status = STATUS_STOPPED;
            break;
        }
        rounds += 1;

        double den = 2 * rat2 + 3 * rat3;
        if (!(den > 0.0)) {
            status = STATUS_EXHAUSTED;
            break;
        }
        double q = rat2 / den;
        double q2 = q * q;
        double q3 = q2 * q;
        double q4 = q2 * q2;
        double q5 = q4 * q;
        /* open-edge pool polynomial D: both routes lower rat3 by eps * D,
         * and the linear route rescales its per-plain-vertex rates by it */
        double d_pool = 2 - 4 * q - 4 * q2 + 8 * q3 + 2 * q4 - 4 * q5;

        if (linear) {
            /* Direct elimination on the six action-count equations with
             * c_R temporarily pinned to 1, then rescaled so the plain-vertex
             * consumption rate is exactly one vertex per unit time. */
            double t = 1.0;
            double c_rr = q * t;
            double c_3rr = 2 * q * (1 - 2 * q) * t / (1 - q * q);
            double c_3r = (1 - 2 * q) * t + q * c_3rr;
            double r_act = q * (2 * t + c_3r + c_3rr + c_rr + 2 * q * c_rr)
                / (1 - q - 2 * q * q);
            double w_act = q * (r_act + c_rr);
            double scale = 1.0 / ((1 - 2 * q)
                                  * (t + r_act + c_3r + c_3rr + c_rr + w_act));
            double c_r = t * scale;
            r_act = r_act * scale;
            c_3r = c_3r * scale;
            c_3rr = c_3rr * scale;
            c_rr = c_rr * scale;
            w_act = w_act * scale;
            double total = c_r + r_act + c_3r + c_3rr + c_rr + w_act;
            double v_r = -c_r - 2 * q * total + (1 - 2 * q) * (r_act + c_3rr)
                + (2 - 3 * q) * c_3r + q * c_rr;
            double g_rate = 3 * q * c_r + 4 * q * r_act + (1 + q) * c_3r
                + (4 + q) * c_3rr + 8 * q * c_rr + w_act;
            double b_rate = q * r_act + c_3rr + 2 * q * c_rr;
            rat2 += eps * (d_pool * v_r);
            good += eps * (d_pool * g_rate);
            bad += eps * (d_pool * b_rate);
        } else {
            rat2 += eps * (1 - 8 * q + 4 * q2 + 8 * q3 + 3 * q4 - 10 * q5);
            good += eps * (1 + 8 * q - 11 * q2 - 6 * q3 + 12 * q5);
            bad += eps * q * (1 - q) * (1 - q) * (2 + q + 2 * q2);
        }
        rat3 -= eps * d_pool;

        double lo = -8.0 * eps;
        double hi = 1.0 + 8.0 * eps;
        if (!(rat2 >= lo && rat2 <= hi && rat3 >= lo && rat3 <= hi)) {
            status = STATUS_INVALID;
            break;
        }
        /* conservation law of the closed-form rates: g + b = 1.5 D - 2 v_R */
        double law = good + bad + 2 * rat2 + 1.5 * rat3 - 1.5;
        if (!(good >= -1e-12 && bad >= -1e-12
              && -1e-9 <= law && law <= 1e-9)) {
            status = STATUS_INVALID;
            break;
        }
    }
    state[0] = rat2;
    state[1] = rat3;
    state[2] = good;
    state[3] = bad;
    out[0] = rounds;
    out[1] = status;
}

/* ---- Shared by the event engines --------------------------------------
 *
 * The library exports four functions: the two chunk kernels above and one
 * run per engine, cut_run and is_run.  A run is one call with one exit: it
 * allocates its engine's state struct, runs the whole process and returns
 * 0, ENGINE_NOMEM after an allocation failure, or ENGINE_BROKEN when a
 * bookkeeping invariant failed (an assertion in the Python methods).  Each
 * private array is one take, which records its field in the struct's
 * failure record, as reserve records a vector's buffer; on every exit the
 * entry calls release, which frees every recorded block, and then frees the
 * struct.  A failed check or allocation calls fail, which jumps straight
 * back to the run's entry: the run stops at once, as the Python method's
 * exception ends the reference run, and leaves the shared buffers where
 * that stops.
 *
 * An engine reads and writes only its own state and the buffers it was
 * given: this file has no mutable file-scope state.  So engines over
 * distinct buffers may run at once on different threads; ctypes releases
 * the GIL for each call.
 *
 * Vertex and half-edge ids are stored as int32_t: the cut's pairing (the
 * graph's own array; config_model.Multigraph builds it so, for graphs of
 * fewer than 2^31 vertices and half-edges), the independent set's
 * neighbour array, and every id an engine keeps of its own.  Multigraph
 * groups the half-edges by owner in ascending vertex order, so vertex v's
 * half-edges are the contiguous block that starts after those of the
 * vertices below v, and neither engine reads the owners.  Arithmetic on
 * ids and counts runs in int64_t locals, and each store into 32-bit
 * storage is an explicit (int32_t) cast of a value that fits.  Of the
 * buffers shared with Python, the cut's aliases are int32_t ids too, while
 * the degrees and counters stay int64_t.
 */
#include <setjmp.h>
#include <stdlib.h>
#include <string.h>

#define ENGINE_NOMEM 1
#define ENGINE_BROKEN 2

#define BLOCKS 24  /* a run's most private blocks; the cut engine owns 19 */

/* a run's exit: its entry's setjmp point, the code that fail leaves, and
 * the addresses of the pointer fields that hold the run's private blocks */
typedef struct {
    jmp_buf at;
    int64_t err;
    void *owned[BLOCKS];
    int64_t nowned;
} failure;

/* fail never returns (an attribute that gcc and clang both take) */
static void fail(failure *f, int64_t code) __attribute__((noreturn));

static void fail(failure *f, int64_t code)
{
    f->err = code;
    longjmp(f->at, 1);
}

/* the run owns the block that the pointer field at field holds, now and
 * after any realloc; the field is read and written through memcpy */
static void own(failure *f, void *field)
{
    if (f->nowned == BLOCKS)
        fail(f, ENGINE_BROKEN);  /* more blocks than the record holds */
    f->owned[f->nowned++] = field;
}

/* a zeroed block of count items of size bytes (an allocated one even for
 * none) into the pointer field at field, which the run then owns */
static void take(failure *f, void *field, int64_t count, size_t size)
{
    own(f, field);
    void *block = calloc(count > 0 ? (size_t)count : 1, size);
    if (!block)
        fail(f, ENGINE_NOMEM);
    memcpy(field, &block, sizeof block);
}

/* free every block the run owns */
static void release(failure *f)
{
    for (int64_t i = 0; i < f->nowned; i++) {
        void *block;
        memcpy(&block, f->owned[i], sizeof block);
        free(block);
    }
}

/* a growable vector of ids */
typedef struct {
    int32_t *data;
    int64_t len, cap;
} vec;

/* room for need items in v (and an allocated buffer even for none); the
 * run owns the buffer from its first allocation on, and a failed realloc
 * leaves the old buffer in v, for release */
static void reserve(failure *f, vec *v, int64_t need)
{
    if (v->data && need <= v->cap)
        return;
    if (!v->data)
        own(f, &v->data);
    int64_t cap = need > 2 * v->cap ? need : 2 * v->cap;
    cap = cap > 64 ? cap : 64;
    int32_t *data = realloc(v->data, cap * sizeof *data);
    if (!data)
        fail(f, ENGINE_NOMEM);
    v->data = data;
    v->cap = cap;
}

static void push(failure *f, vec *v, int64_t x)
{
    reserve(f, v, v->len + 1);
    v->data[v->len++] = (int32_t)x;
}

/* a FIFO queue: the items of q from index *head on */
static void fifo_push(failure *f, vec *q, int64_t *head, int64_t x)
{
    if (q->len == q->cap && *head > 0) {
        /* drop the popped front before growing */
        memmove(q->data, q->data + *head, (q->len - *head) * sizeof *q->data);
        q->len -= *head;
        *head = 0;
    }
    push(f, q, x);
}

static int64_t fifo_pop(vec *q, int64_t *head)
{
    int64_t x = q->data[(*head)++];
    if (*head == q->len)
        *head = q->len = 0;
    return x;
}

/* Vertex sets as bit sets: vertex v is bit v % 64 of word v / 64, so a
 * set over n vertices takes words(n) words, and reading each word's set
 * bits lowest first gives the members in ascending order. */
static int64_t words(int64_t n)
{
    return (n + 63) / 64;
}

static uint64_t bit_of(int64_t v)
{
    return (uint64_t)1 << (v % 64);
}

/* A summarised bit set is a bit set with a summary, one bit per word of
 * the set, which is set whenever that word is non-zero: summary word a
 * covers the 4096 vertices 4096 * a .. 4096 * a + 4095, and
 * words(words(n)) words cover n vertices.  A scan reads the summary and
 * then only the words it flags. */
static void sset_add(uint64_t *set, uint64_t *sum, int64_t v)
{
    set[v / 64] |= bit_of(v);
    sum[v / 4096] |= bit_of(v / 64);
}

/* the lowest set bit of w != 0, and the number of set bits of w, by the
 * count-trailing-zeros and population-count builtins that gcc and clang
 * both provide (__builtin_ctzll, __builtin_popcountll) */
static int64_t lowest(uint64_t w)
{
    return __builtin_ctzll(w);
}

static int64_t ones(uint64_t w)
{
    return __builtin_popcountll(w);
}

/* The draws, made as _kernels.draw makes them: round t's pick for a
 * purpose is u(key, t, purpose, v) for vertex v, whose id is its label,
 * or the round key's for a rank pick, and depends on no order of draws. */
enum { MARK, FORCE, RED_PICK, GREEN_PICK };

/* splitmix64's finalizer */
static uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

static uint64_t round_key(uint64_t key, int64_t t, int64_t purpose)
{
    return mix64(key + 0x9e3779b97f4a7c15ULL
                 * (uint64_t)(4 * t + purpose + 1));
}

/* int(u * m) for round t's pick u, of no vertex: below m < 2^31 */
static int64_t draw_index(uint64_t key, int64_t t, int64_t purpose, int64_t m)
{
    return (int64_t)((double)(round_key(key, t, purpose) >> 11) * 0x1p-53
                     * (double)m);
}

/* whether vertex v's draw under the round key rk falls below p */
static int marked_by(uint64_t rk, int64_t v, double p)
{
    return (double)(mix64(rk ^ (uint64_t)v) >> 11) * 0x1p-53 < p;
}

/* ---- The finite cut process's event engine ----------------------------
 *
 * cut_local_algorithm.CutProcess restated over flat arrays: _reveal, query,
 * commit, whiten, eliminate_white, reduce_rrr, _connected, closure, the
 * endgame commits and _resolve_pending, run by cut_run as CutProcess._drive
 * runs them (each round is query_round), with the endgame floor passed in
 * from Python.  Every rule, its order of effects and every tie-break (by
 * ascending id, so by label) is the same as in the Python methods, the
 * reference semantics.
 *
 * The lone set is exact as of the start of the last round: a bit set of
 * the lone vertices, read in ascending order.  Whether v is lone depends
 * on its status, its path degree and its R/G labels only, and every change
 * of one of them calls touch (leave, add_path_slot, remove_path_slot,
 * give_label), which puts v in the touched bit set.  Each round re-tests
 * the touched vertices alone and empties that set.  Every vertex starts
 * touched, so an engine's first round tests all n.
 *
 * The rules rest on the module's invariant (P): every survival path
 * component is a simple path (proved in cut_local_algorithm's docstring).
 * So v's two path neighbours are distinct, and eliminating a white never
 * closes a cycle.
 *
 * The graph comes in as its pairing alone: vertex v's half-edges are 3v,
 * 3v + 1 and 3v + 2, so half-edge h belongs to vertex h / 3.  Shared with
 * Python (the CutProcess's own buffers, read by its numpy scans): status,
 * f, the label counters nR/nG/nW/nD, pd, alias, revealed, and counts =
 * {good, bad, survival}.  Private here, each array taken by cut_alloc and
 * each vector's buffer recorded by reserve, all freed by cut_run's release:
 *   - two (neighbour, parity) path slots per vertex, kept in list order
 *     (a pop shifts the second slot down, as list.pop does);
 *   - a chain of half-edges per vertex v (next), from 3v in the order of
 *     the Python slot list, whose unrevealed ones are v's open half-edges;
 *     reduce_rrr moves s3's unrevealed ones to the end of s1's chain (s3
 *     never reads its chain again);
 *   - the pending colours (target, bit, free) with an age-order list: a
 *     vertex is pending iff its age is not -1, and a re-pend keeps its
 *     place;
 *   - the white marks (source, bit), deferred triples, the FIFO queue and
 *     the pattern-scan candidates: a two-level bit set read lowest first,
 *     which holds each vertex at most once (CutProcess.closure says why
 *     once is enough);
 *   - the lone and touched bit sets, and a round's marked vertices.
 */
#define RED 0
#define GREEN 1

enum { LOOP, INHERITED, DEAD, LIVE };

typedef struct {
    failure fail;
    int64_t n;
    const int32_t *pair;
    uint64_t key;
    uint8_t *status, *n_r, *n_g, *n_w, *n_d, *pd, *revealed;
    int8_t *f;
    int32_t *alias;
    int64_t *counts;
    int32_t *path_nb;
    uint8_t *path_par;
    int32_t *next;
    int32_t *target, *age;
    uint8_t *bit, *free_;
    int32_t *wsrc;
    uint8_t *wbit;
    vec order, deferred, queue, walk;
    int64_t qhead, cand_lo;
    int32_t *seen;
    uint64_t *cand, *cand_sum, *lones, *touched;
    int32_t *marked;
} cut_state;

#define GOOD(s) ((s)->counts[0])
#define BAD(s) ((s)->counts[1])
#define SURVIVAL(s) ((s)->counts[2])

/* -- queue and candidate set ------------------------------------------ */

static void queue_push(cut_state *s, int64_t x)
{
    fifo_push(&s->fail, &s->queue, &s->qhead, x);
}

/* The pattern-scan candidates, each vertex at most once: the summarised
 * bit set cand and its summary cand_sum, with no non-zero summary word
 * below cand_lo.  A pop takes the lowest id, as CutProcess.closure pops
 * its heap. */
static void cand_add(cut_state *s, int64_t v)
{
    sset_add(s->cand, s->cand_sum, v);
    if (v / 4096 < s->cand_lo)
        s->cand_lo = v / 4096;
}

/* the lowest candidate, taken out of the set; -1 when it is empty */
static int64_t cand_pop(cut_state *s)
{
    int64_t nsum = words(words(s->n));
    while (s->cand_lo < nsum && !s->cand_sum[s->cand_lo])
        s->cand_lo++;
    if (s->cand_lo == nsum)
        return -1;
    int64_t i = 64 * s->cand_lo + lowest(s->cand_sum[s->cand_lo]);
    int64_t v = 64 * i + lowest(s->cand[i]);
    s->cand[i] &= ~bit_of(v);
    if (!s->cand[i])
        s->cand_sum[s->cand_lo] &= ~bit_of(i);
    return v;
}

/* -- small helpers ----------------------------------------------------- */

static int64_t cd(const cut_state *s, int64_t v)
{
    return s->n_r[v] + s->n_g[v] + s->n_w[v] + s->n_d[v];
}

/* v's status, path degree or R/G labels changed: the next round re-tests
 * whether it is lone */
static void touch(cut_state *s, int64_t v)
{
    s->touched[v / 64] |= bit_of(v);
}

/* v leaves survival, committed (1) or white (2) */
static void leave(cut_state *s, int64_t v, uint8_t status)
{
    s->status[v] = status;
    SURVIVAL(s) -= 1;
    touch(s, v);
}

static void dirty(cut_state *s, int64_t v)
{
    if (s->status[v] == 0)
        cand_add(s, v);
}

static void dirty_area(cut_state *s, int64_t v)
{
    dirty(s, v);
    for (int64_t i = 0; i < s->pd[v]; i++)
        dirty(s, s->path_nb[2 * v + i]);
}

static void wake(cut_state *s, int64_t x)
{
    queue_push(s, x);
    dirty_area(s, x);
}

static int64_t holder(cut_state *s, int64_t v)
{
    int32_t *alias = s->alias;
    while (alias[v] != v) {
        alias[v] = alias[alias[v]];
        v = alias[v];
    }
    return v;
}

static void set_pending(cut_state *s, int64_t v, int64_t target, int bit,
                        int free_)
{
    if (s->age[v] < 0) {  /* a re-pend keeps v's age */
        s->age[v] = (int32_t)s->order.len;
        push(&s->fail, &s->order, v);
    }
    s->target[v] = (int32_t)target;
    s->bit[v] = (uint8_t)bit;
    s->free_[v] = (uint8_t)free_;
}

static void oppose(cut_state *s, int64_t x, int64_t v)
{
    if (s->age[x] >= 0 && s->free_[x]) {
        s->target[x] = (int32_t)v;
        s->bit[x] = 1;
        s->free_[x] = 0;
    }
}

static void defer(cut_state *s, int64_t u, int64_t w, int64_t parity)
{
    push(&s->fail, &s->deferred, u);
    push(&s->fail, &s->deferred, w);
    push(&s->fail, &s->deferred, parity);
}

static void wake_holder(cut_state *s, int64_t x)
{
    int64_t h = holder(s, x);
    if (s->status[h] == 0)
        wake(s, h);
}

static void mark_white(cut_state *s, int64_t x, int64_t src, int bit)
{
    s->n_w[x] += 1;
    s->wsrc[x] = (int32_t)src;
    s->wbit[x] = (uint8_t)bit;
}

static void pend_against(cut_state *s, int64_t v, int64_t a, int bit)
{
    GOOD(s) += 1;
    set_pending(s, v, a, bit, 0);
    mark_white(s, a, v, bit);
}

static int majority(const cut_state *s, int64_t v, int tie)
{
    if (s->n_r[v] > s->n_g[v])
        return GREEN;
    if (s->n_g[v] > s->n_r[v])
        return RED;
    return tie;
}

static int64_t first_unrevealed(const cut_state *s, int64_t v)
{
    for (int64_t h = 3 * v; h >= 0; h = s->next[h])
        if (!s->revealed[h])
            return h;
    return -1;
}

static void give_label(cut_state *s, int64_t x, int color)
{
    if (color == RED)
        s->n_r[x] += 1;
    else
        s->n_g[x] += 1;
    touch(s, x);
    wake(s, x);
}

static void add_path_slot(cut_state *s, int64_t x, int64_t y, int parity)
{
    if (s->pd[x] >= 2)
        fail(&s->fail, ENGINE_BROKEN);
    s->path_nb[2 * x + s->pd[x]] = (int32_t)y;
    s->path_par[2 * x + s->pd[x]] = (uint8_t)parity;
    s->pd[x] += 1;
    touch(s, x);
}

/* index of x's first path slot pointing at y */
static int64_t path_index(cut_state *s, int64_t x, int64_t y)
{
    for (int64_t i = 0; i < s->pd[x]; i++)
        if (s->path_nb[2 * x + i] == y)
            return 2 * x + i;
    fail(&s->fail, ENGINE_BROKEN);  /* path slot bookkeeping out of sync */
}

/* drop one of x's slots pointing at y; returns its parity */
static int remove_path_slot(cut_state *s, int64_t x, int64_t y)
{
    int64_t i = path_index(s, x, y);
    int parity = s->path_par[i];
    if (i == 2 * x && s->pd[x] == 2) {
        s->path_nb[i] = s->path_nb[i + 1];
        s->path_par[i] = s->path_par[i + 1];
    }
    s->pd[x] -= 1;
    touch(s, x);
    return parity;
}

static void replace_path_slot(cut_state *s, int64_t x, int64_t old,
                              int64_t new_, int parity)
{
    int64_t i = path_index(s, x, old);
    s->path_nb[i] = (int32_t)new_;
    s->path_par[i] = (uint8_t)parity;
}

static void pend_on_path_end(cut_state *s, int64_t v)
{
    int64_t a = s->path_nb[2 * v];
    int parity = remove_path_slot(s, v, a);
    remove_path_slot(s, a, v);
    pend_against(s, v, a, 1 ^ parity);
    wake(s, a);
}

/* are the distinct vertices a and b on one survival path? */
static int connected(cut_state *s, int64_t a, int64_t b)
{
    for (int64_t i = 0; i < s->pd[a]; i++) {
        int64_t prev = a, cur = s->path_nb[2 * a + i];
        int64_t steps = 0;
        while (cur != -1) {
            if (cur == b)
                return 1;
            steps += 1;
            /* a walk longer than any path means (P) broke */
            if (steps > SURVIVAL(s) + 2)
                fail(&s->fail, ENGINE_BROKEN);
            int64_t nxt = -1;
            for (int64_t j = 0; j < s->pd[cur]; j++) {
                int64_t w = s->path_nb[2 * cur + j];
                if (w != prev) {
                    nxt = w;
                    break;
                }
            }
            prev = cur;
            cur = nxt;
        }
    }
    return 0;
}

static int reveal(cut_state *s, int64_t v, int64_t h, int64_t *xo)
{
    int64_t k = s->pair[h];
    s->revealed[h] = 1;
    s->revealed[k] = 1;
    int64_t u = h / 3;
    int64_t x = k / 3;
    *xo = x;
    if (u == x) {
        /* an absorbed vertex passes on at most one of its own half-edges,
         * so a self-loop is never inherited */
        if (u != v)
            fail(&s->fail, ENGINE_BROKEN);
        BAD(s) += 1;  /* a self-loop is monochromatic whatever happens */
        *xo = -1;
        return LOOP;
    }
    if (s->status[x] == 1)  /* a committed vertex kept an open slot */
        fail(&s->fail, ENGINE_BROKEN);
    if (u != v) {
        /* inherited slot: the real edge belongs to an absorbed vertex */
        defer(s, u, x, 0);
        oppose(s, u, x);
        s->n_d[v] += 1;
        if (s->status[x] == 0) {
            s->n_d[x] += 1;
            wake(s, x);
        } else {
            oppose(s, x, u);
            wake_holder(s, x);
        }
        return INHERITED;
    }
    if (s->status[x] == 2) {
        defer(s, v, x, 0);
        oppose(s, x, v);
        wake_holder(s, x);
        return DEAD;
    }
    return LIVE;
}

/* -- decisions --------------------------------------------------------- */

static void commit(cut_state *s, int64_t v, int color)
{
    if (s->status[v] != 0)
        fail(&s->fail, ENGINE_BROKEN);
    leave(s, v, 1);
    s->f[v] = (int8_t)color;
    if (color == GREEN) {
        GOOD(s) += s->n_r[v];
        BAD(s) += s->n_g[v];
    } else {
        GOOD(s) += s->n_g[v];
        BAD(s) += s->n_r[v];
    }
    while (s->pd[v]) {
        int64_t x = s->path_nb[2 * v];
        int parity = remove_path_slot(s, v, x);
        remove_path_slot(s, x, v);
        give_label(s, x, color ^ parity);
    }
    for (int64_t h = 3 * v; h >= 0; h = s->next[h]) {
        if (s->revealed[h])
            continue;
        int64_t x;
        if (reveal(s, v, h, &x) == LIVE)
            give_label(s, x, color);
    }
}

static void whiten(cut_state *s, int64_t v)
{
    if (s->status[v] != 0)
        fail(&s->fail, ENGINE_BROKEN);
    if (s->n_r[v] == 1 && s->n_g[v] == 1) {
        GOOD(s) += 1;
        BAD(s) += 1;
    }
    leave(s, v, 2);
    if (s->pd[v] == 1) {
        pend_on_path_end(s, v);
    } else {
        int64_t h = first_unrevealed(s, v);
        int64_t x;
        if (h < 0) {
            /* every other edge was already consumed */
            set_pending(s, v, -1, RED, 1);
        } else {
            int kind = reveal(s, v, h, &x);
            if (kind == LIVE) {
                pend_against(s, v, x, 1);
                wake(s, x);
            } else if (kind == DEAD) {
                set_pending(s, v, x, 1, 0);
            } else {
                set_pending(s, v, -1, RED, 1);
            }
        }
    }
}

static void eliminate_white(cut_state *s, int64_t v)
{
    if (s->status[v] != 0 || s->n_w[v] != 1
            || s->n_r[v] + s->n_g[v] + s->n_d[v] != 0)
        fail(&s->fail, ENGINE_BROKEN);
    leave(s, v, 2);
    if (s->pd[v] == 2) {
        /* by (P), joining v's two path neighbours keeps a path */
        int64_t a = s->path_nb[2 * v], b = s->path_nb[2 * v + 1];
        int pa = s->path_par[2 * v], pb = s->path_par[2 * v + 1];
        GOOD(s) += 1;
        set_pending(s, v, a, 1 ^ pa, 0);
        int joined = 1 ^ pa ^ pb;
        replace_path_slot(s, a, v, b, joined);
        replace_path_slot(s, b, v, a, joined);
        wake(s, a);
        wake(s, b);
    } else if (s->pd[v] == 1) {
        pend_on_path_end(s, v);
    } else {
        /* chain off the white that marked v, under that mark's parity;
         * n_w[v] == 1, so mark_white has set the mark */
        set_pending(s, v, s->wsrc[v], s->wbit[v], 1);
    }
    s->pd[v] = 0;
}

static void reduce_rrr(cut_state *s, int64_t s1, int64_t s2, int64_t s3)
{
    int p12 = remove_path_slot(s, s2, s1);
    remove_path_slot(s, s1, s2);
    int p23 = remove_path_slot(s, s2, s3);
    remove_path_slot(s, s3, s2);
    GOOD(s) += 3;
    BAD(s) += 1;
    set_pending(s, s2, s1, 1 ^ p12, 0);
    set_pending(s, s3, s1, p12 ^ p23, 0);
    leave(s, s2, 2);
    leave(s, s3, 2);
    if (s->pd[s3]) {
        int64_t t = s->path_nb[2 * s3];
        int p3t = remove_path_slot(s, s3, t);
        int carried = p12 ^ p23 ^ p3t;
        replace_path_slot(s, t, s3, s1, carried);
        add_path_slot(s, s1, t, carried);
        dirty_area(s, t);
    } else if (first_unrevealed(s, s3) >= 0) {
        /* s3's unrevealed slots now belong (logically) to s1, after the
         * end of s1's chain */
        s->alias[s3] = (int32_t)s1;
        int64_t end = 3 * s1;
        while (s->next[end] >= 0)
            end = s->next[end];
        int64_t h = 3 * s3;
        while (h >= 0) {
            int64_t nx = s->next[h];
            if (!s->revealed[h]) {
                s->next[h] = -1;
                s->next[end] = (int32_t)h;
                end = h;
            }
            h = nx;
        }
    }
    wake(s, s1);
}

static void query(cut_state *s, int64_t v)
{
    int64_t h = first_unrevealed(s, v);
    if (s->status[v] != 0 || h < 0)
        fail(&s->fail, ENGINE_BROKEN);
    int64_t x;
    int kind = reveal(s, v, h, &x);
    if (kind == DEAD) {
        /* the deferred pair carries the edge count */
        mark_white(s, v, x, 1);
        wake(s, v);
        return;
    }
    if (kind != LIVE) {
        wake(s, v);
        return;
    }
    if (s->pd[x] == 2 || connected(s, v, x)) {
        /* joining would exceed path degree or close a cycle */
        defer(s, v, x, 0);
        s->n_d[v] += 1;
        s->n_d[x] += 1;
        wake(s, v);
        wake(s, x);
    } else {
        add_path_slot(s, v, x, 0);
        add_path_slot(s, x, v, 0);
        dirty_area(s, v);
        dirty_area(s, x);
    }
}

/* -- the action table -------------------------------------------------- */

static int labels_decide(cut_state *s, int64_t v)
{
    int64_t c = cd(s, v);
    if (c >= 2) {
        /* a tie at cd == 3 has no reference edge left to whiten against */
        int color = majority(s, v, c == 3 ? RED : -1);
        if (color < 0)
            whiten(s, v);
        else
            commit(s, v, color);
        return 1;
    }
    if (c == 1 && s->n_w[v] == 1) {
        eliminate_white(s, v);
        return 1;
    }
    return 0;
}

/* R/G label of a pure single-label vertex, else -1 */
static int label_of(const cut_state *s, int64_t v)
{
    if (s->n_w[v] || s->n_d[v])
        return -1;
    if (s->n_r[v] + s->n_g[v] != 1)
        return -1;
    return s->n_r[v] ? RED : GREEN;
}

static void try_patterns(cut_state *s, int64_t v)
{
    int lv = label_of(s, v);
    if (lv < 0)
        return;
    /* adjacent opposite-aligned labels: both commit anti their labels */
    for (int64_t i = 0; i < s->pd[v]; i++) {
        int64_t x = s->path_nb[2 * v + i];
        int lx = label_of(s, x);
        if (lx >= 0 && (lv ^ lx ^ s->path_par[2 * v + i]) == 1) {
            int64_t lead = v < x ? v : x;
            commit(s, lead, 1 ^ label_of(s, lead));
            return;
        }
    }
    /* from here on every labelled path neighbour of v is same-aligned */
    if (s->pd[v] == 2) {
        int64_t a = s->path_nb[2 * v], b = s->path_nb[2 * v + 1];
        int la = label_of(s, a), lb = label_of(s, b);
        if (cd(s, a) == 0 && cd(s, b) == 0) {
            /* []-[X]-[]: colour the middle anti its label */
            commit(s, v, 1 ^ lv);
            return;
        }
        for (int side = 0; side < 2; side++) {
            int64_t m2 = side ? b : a, far = side ? a : b;
            int lm = side ? lb : la;
            if (lm < 0 || cd(s, far) != 0 || s->pd[m2] != 2)
                continue;
            int64_t o0 = s->path_nb[2 * m2];
            int64_t other = o0 != v ? o0 : s->path_nb[2 * m2 + 1];
            if (cd(s, other) == 0) {
                /* []-[X]-[X]-[]: lower-id middle commits anti its label */
                int64_t lead = v < m2 ? v : m2;
                commit(s, lead, 1 ^ label_of(s, lead));
                return;
            }
        }
        if (la >= 0 && lb >= 0) {
            reduce_rrr(s, a < b ? a : b, v, a < b ? b : a);
            return;
        }
    }
    if (s->pd[v] == 1 && first_unrevealed(s, v) >= 0)
        query(s, v);  /* terminal labeled endpoint extends its path */
}

static void closure(cut_state *s)
{
    for (;;) {
        if (s->qhead < s->queue.len) {
            int64_t v = fifo_pop(&s->queue, &s->qhead);
            if (s->status[v] == 0)
                labels_decide(s, v);
            continue;
        }
        int64_t v = cand_pop(s);
        if (v < 0)
            break;
        if (s->status[v] == 0 && !labels_decide(s, v))
            try_patterns(s, v);
    }
}

/* fix the pending colours in one walk, oldest first (see
 * CutProcess._resolve_pending) */
static void resolve_pending(cut_state *s)
{
    int8_t *f = s->f;
    for (int64_t i = 0; i < s->order.len; i++) {
        int64_t v = s->order.data[i];
        if (f[v] >= 0)
            continue;
        vec *path = &s->walk;
        path->len = 0;
        push(&s->fail, path, v);
        s->seen[v] = 0;
        int64_t cycle = -1;  /* index of the pinned cycle member */
        for (;;) {
            int64_t u = path->data[path->len - 1];
            int64_t t = s->target[u];
            if (t == -1) {
                f[u] = (int8_t)s->bit[u];
                s->seen[u] = -1;
                path->len -= 1;
                break;
            }
            if (f[t] >= 0)
                break;
            /* an uncoloured target always has a constraint of its own;
             * its target field was never written */
            if (s->age[t] < 0)
                fail(&s->fail, ENGINE_BROKEN);
            if (s->seen[t] >= 0) {
                int64_t m = s->seen[t];
                for (int64_t j = m + 1; j < path->len; j++)
                    if (s->age[path->data[j]] < s->age[path->data[m]])
                        m = j;
                f[path->data[m]] = RED;
                cycle = m;
                break;
            }
            s->seen[t] = (int32_t)path->len;
            push(&s->fail, path, t);
        }
        for (int64_t j = 0; j < path->len; j++)
            s->seen[path->data[j]] = -1;
        /* last to first, skipping a pinned cycle member: the order of
         * reversed(path[m + 1:] + path[:m]) in Python, path[cycle - 1 .. 0]
         * and then path[len - 1 .. cycle + 1] */
        int64_t split = cycle >= 0 ? cycle : path->len;
        for (int64_t j = split - 1; j >= 0; j--) {
            int64_t u = path->data[j];
            f[u] = (int8_t)(f[s->target[u]] ^ s->bit[u]);
        }
        for (int64_t j = path->len - 1; j > split; j--) {
            int64_t u = path->data[j];
            f[u] = (int8_t)(f[s->target[u]] ^ s->bit[u]);
        }
    }
}

/* -- the engine's private state ---------------------------------------- */

/* the private state of a fresh engine over s->n vertices, every vertex
 * touched and none pending; vertex v's half-edges are 3v, 3v+1, 3v+2, in
 * the order of the Python slot lists */
static void cut_alloc(cut_state *s)
{
    failure *f = &s->fail;
    int64_t n = s->n;
    take(f, &s->path_nb, 2 * n, sizeof *s->path_nb);
    take(f, &s->path_par, 2 * n, sizeof *s->path_par);
    take(f, &s->next, 3 * n, sizeof *s->next);
    take(f, &s->target, n, sizeof *s->target);
    take(f, &s->age, n, sizeof *s->age);
    take(f, &s->bit, n, sizeof *s->bit);
    take(f, &s->free_, n, sizeof *s->free_);
    take(f, &s->wsrc, n, sizeof *s->wsrc);
    take(f, &s->wbit, n, sizeof *s->wbit);
    take(f, &s->seen, n, sizeof *s->seen);
    take(f, &s->cand, words(n), sizeof *s->cand);
    take(f, &s->cand_sum, words(words(n)), sizeof *s->cand_sum);
    take(f, &s->lones, words(n), sizeof *s->lones);
    take(f, &s->touched, words(n), sizeof *s->touched);
    take(f, &s->marked, n, sizeof *s->marked);
    for (int64_t v = 0; v < n; v++) {
        s->next[3 * v] = (int32_t)(3 * v + 1);
        s->next[3 * v + 1] = (int32_t)(3 * v + 2);
        s->next[3 * v + 2] = -1;
        s->seen[v] = s->age[v] = -1;
        touch(s, v);
    }
}

/* -- the round schedule: cut_drive and its helpers --------------------- */

/* survival, no path edge, no white or deferred label, one R/G label.
 * Tested after closure only, which leaves no survival vertex with two or
 * more labels and none whose single label is white: so n_r + n_g == 1
 * already rules out a white or deferred label, and n_w and n_d are not
 * read. */
static int lone(const cut_state *s, int64_t v)
{
    return s->status[v] == 0 && s->pd[v] == 0
        && s->n_r[v] + s->n_g[v] == 1;
}

/* word i of the lone set, brought up to date: each touched vertex in it
 * is re-tested and leaves the touched set */
static uint64_t lone_word(cut_state *s, int64_t i)
{
    for (uint64_t w = s->touched[i]; w; w &= w - 1) {
        int64_t v = 64 * i + lowest(w);
        if (lone(s, v))
            s->lones[i] |= bit_of(v);
        else
            s->lones[i] &= ~bit_of(v);
    }
    s->touched[i] = 0;
    return s->lones[i];
}

/* round t of the schedule (CutProcess.query_round): each lone vertex, as
 * CutProcess.lones finds them, is marked when its draw falls below q, and
 * each marked vertex that is still a survival vertex with an open
 * half-edge is queried, in ascending order; then closure */
static void query_round(cut_state *s, int64_t t, double q)
{
    uint64_t rk = round_key(s->key, t, MARK);
    int64_t count = 0;
    for (int64_t i = 0; i < words(s->n); i++)
        for (uint64_t w = lone_word(s, i); w; w &= w - 1)
            if (marked_by(rk, 64 * i + lowest(w), q))
                s->marked[count++] = (int32_t)(64 * i + lowest(w));
    for (int64_t i = 0; i < count; i++) {
        int64_t v = s->marked[i];
        if (s->status[v] == 0 && first_unrevealed(s, v) >= 0)
            query(s, v);
    }
    closure(s);
}

/* survivors take their majority, unrevealed pairs are deferred, the
 * pending colours resolve and the deferred edges are counted */
static void endgame(cut_state *s)
{
    for (int64_t v = 0; v < s->n; v++)
        if (s->status[v] == 0)
            commit(s, v, majority(s, v, RED));
    for (int64_t h = 0; h < 3 * s->n; h++) {
        int64_t k = s->pair[h];
        if (s->revealed[h] || h >= k)
            continue;
        s->revealed[h] = 1;
        s->revealed[k] = 1;
        int64_t u = h / 3, x = k / 3;
        if (u == x) {
            BAD(s) += 1;
        } else {
            defer(s, u, x, 0);
            oppose(s, u, x);
            oppose(s, x, u);
        }
    }
    resolve_pending(s);
    const int32_t *d = s->deferred.data;
    for (int64_t i = 0; i + 2 < s->deferred.len; i += 3) {
        if ((s->f[d[i]] ^ s->f[d[i + 1]]) == (1 ^ d[i + 2]))
            GOOD(s) += 1;
        else
            BAD(s) += 1;
    }
}

/* the survivor of rank r (0 for the first).  Eight status bytes at a
 * time: x's zero bytes are the 0x80 bits of ~(((x & low) + low) | x | low),
 * exactly, as no byte's sum carries into the next, and their count skips
 * the word. */
static int64_t survivor_of_rank(cut_state *s, int64_t r)
{
    const uint64_t low = 0x7f7f7f7f7f7f7f7fULL;
    int64_t v = 0;
    for (; v + 8 <= s->n; v += 8) {
        uint64_t x;
        memcpy(&x, s->status + v, sizeof x);
        int64_t zeros = ones(~(((x & low) + low) | x | low));
        if (zeros > r)
            break;
        r -= zeros;
    }
    for (; v < s->n; v++)
        if (s->status[v] == 0 && r-- == 0)
            return v;
    fail(&s->fail, ENGINE_BROKEN);  /* fewer survivors than counted */
}

/* CutProcess._bootstrap at round t: among the m ascending survivors, the
 * ones of ranks red = draw_index(m) and green = draw_index(m - 1), bumped
 * by one when at or past red, commit red and green.  None for none */
static void bootstrap(cut_state *s, int64_t t)
{
    int64_t m = SURVIVAL(s);
    if (m == 0)
        return;
    if (m < 2)
        fail(&s->fail, ENGINE_BROKEN);  /* no pair to draw */
    int64_t a = draw_index(s->key, t, RED_PICK, m);
    int64_t b = draw_index(s->key, t, GREEN_PICK, m - 1);
    int64_t red = survivor_of_rank(s, a);
    int64_t green = survivor_of_rank(s, b + (b >= a));
    commit(s, red, RED);
    commit(s, green, GREEN);
}

/* a whole run (CutProcess._drive): a bootstrap pair and closure, then
 * rounds while more than floor vertices survive, their count into *rounds,
 * with a bootstrap pair and closure after each round that removes no
 * survival vertex, so the survival count falls every round; then the
 * endgame */
static void cut_drive(cut_state *s, double q, int64_t floor,
                      int64_t *rounds)
{
    *rounds = 0;
    bootstrap(s, 0);
    closure(s);
    while (SURVIVAL(s) > floor) {
        int64_t before = SURVIVAL(s);
        query_round(s, *rounds, q);
        *rounds += 1;
        if (SURVIVAL(s) == before) {
            bootstrap(s, *rounds);
            closure(s);
        }
    }
    endgame(s);
}

/* -- the entry --------------------------------------------------------- */

/* A whole run over a 3-regular graph: the pairing of its 3n half-edges
 * (the graph's own int32 array), the shared buffers, the run's key, the
 * query probability and the endgame floor; the rounds run go into
 * *rounds.  Returns 0 or the failure that stopped the run. */
int64_t cut_run(int64_t n, const int32_t *pair, uint8_t *status, int8_t *f,
                uint8_t *n_r, uint8_t *n_g, uint8_t *n_w, uint8_t *n_d,
                uint8_t *pd, int32_t *alias, uint8_t *revealed,
                int64_t *counts, uint64_t key, double q, int64_t floor,
                int64_t *rounds)
{
    cut_state *s = calloc(1, sizeof *s);
    if (!s)
        return ENGINE_NOMEM;
    *s = (cut_state){.n = n, .pair = pair, .key = key, .status = status,
                     .f = f, .n_r = n_r, .n_g = n_g, .n_w = n_w, .n_d = n_d,
                     .pd = pd, .alias = alias, .revealed = revealed,
                     .counts = counts};
    if (!setjmp(s->fail.at)) {
        cut_alloc(s);
        cut_drive(s, q, floor, rounds);
    }
    int64_t err = s->fail.err;
    release(&s->fail);
    free(s);
    return err;
}

/* ---- The finite independent-set process's event engine -----------------
 *
 * is_local_algorithm.SurvivalGraph restated over flat arrays: _drop_vertex,
 * delete, _select, the four branches of contract, the settle FIFO, the
 * per-vertex loops of deletes and delete_above, the two kinds of round
 * (thin and probe_round) and unfold_merges' backward read of merges, run
 * by is_run as the round ladder is_local_algorithm._drive runs them, with
 * the persistence fraction passed in from Python.  Every rule and its
 * order of effects is the same as in the Python methods, the reference
 * semantics.  The class members are the ascending ids (so labels) that
 * SurvivalGraph.scan finds, read off the summarised class bit sets below:
 * a scan reads n / 4096 summary words per non-empty class in its range,
 * and then only the words they flag (nothing for an empty range).
 *
 * The neighbour lists keep the Python list order exactly.  Each half-edge
 * h is one arc: nbr[h], the vertex it leads to, and next[h], the next arc
 * of its list; v's list is the chain of arcs from head[v].  A removal
 * unlinks the first arc to x (list.remove), a rename rewrites its nbr
 * (nbrs[nbrs.index(z)] = x), a merge renames z's loops and links z's
 * chain after the end of x's (list.extend), and every queue append
 * happens where Python makes it, duplicates included.
 *
 * Shared with Python (the SurvivalGraph's own buffers, and no pairing):
 * nbr (which SurvivalGraph builds in one pass from the caller's pairing,
 * each vertex already renamed by its label), deg (frozen at death, as in
 * Python), alive, the degree histogram counts, the decision bytes status
 * (UNDECIDED, IN, OUT; deciding a vertex twice is ENGINE_BROKEN), which
 * give the run's set, and state = {survival count, contractions}.  Private
 * here, each array taken by is_alloc and each vector's buffer recorded by
 * reserve, all freed by is_run's release:
 *   - each arc's next and each vertex's head: a live vertex's chain holds
 *     deg[v] arcs, and a merge relinks arcs without moving or adding any;
 *   - one summarised bit set per degree class, class_set(s, k) holding
 *     the live vertices of degree k and class_sum(s, k) its summary;
 *     every change of a degree or a death goes through reclass, which
 *     keeps counts[k] equal to the size of class k and flags each word a
 *     vertex joins in the summary; a word left empty stays flagged until
 *     a scan finds it so and clears its bit;
 *   - the merge log, (x, y, z) for each true merge;
 *   - the settle FIFO;
 *   - a round's vertices above its class and its marked members, and the
 *     non-empty class sets a scan reads.
 */
#define UNDECIDED 0
#define IN 1
#define OUT 2

typedef struct {
    failure fail;
    int64_t n, ncounts;
    uint64_t key;
    int64_t *deg, *counts, *state;
    uint8_t *alive, *status;
    int32_t *nbr, *next, *head;
    vec merges, queue;
    int64_t qhead;
    uint64_t *classes, *sums;
    int64_t *picked;
    vec above, marked;
} is_state;

#define SURVIVAL_COUNT(s) ((s)->state[0])
#define CONTRACTIONS(s) ((s)->state[1])

/* the bit set of degree class k, and its summary; the summaries of all
 * classes are one small array of their own, which stays in cache */
static uint64_t *class_set(is_state *s, int64_t k)
{
    return s->classes + k * words(s->n);
}

static uint64_t *class_sum(is_state *s, int64_t k)
{
    return s->sums + k * words(words(s->n));
}

/* v joins class k */
static void class_add(is_state *s, int64_t k, int64_t v)
{
    sset_add(class_set(s, k), class_sum(s, k), v);
    s->counts[k] += 1;
}

/* the link (head[v] or an arc's next) holding the first arc of v's list
 * that leads to x, or the -1 that ends the list when none does */
static int32_t *arc_to(is_state *s, int64_t v, int64_t x)
{
    int32_t *link = &s->head[v];
    while (*link >= 0 && s->nbr[*link] != x)
        link = &s->next[*link];
    return link;
}

/* v's list drops its first arc to x (list.remove) */
static void adj_remove(is_state *s, int64_t v, int64_t x)
{
    int32_t *link = arc_to(s, v, x);
    if (*link < 0)
        fail(&s->fail, ENGINE_BROKEN);  /* adjacency out of sync */
    *link = s->next[*link];
}

/* v's list has its first arc to old lead to new_ instead */
static void adj_rename(is_state *s, int64_t v, int64_t old, int64_t new_)
{
    int32_t *link = arc_to(s, v, old);
    if (*link < 0)
        fail(&s->fail, ENGINE_BROKEN);
    s->nbr[*link] = (int32_t)new_;
}

/* v leaves the class of its degree and, unless it dies (to < 0), takes
 * degree to and joins that class */
static void reclass(is_state *s, int64_t v, int64_t to)
{
    int64_t from = s->deg[v];
    uint64_t *word = class_set(s, from) + v / 64;
    if (!(*word & bit_of(v)))
        fail(&s->fail, ENGINE_BROKEN);  /* class sets out of sync */
    /* the word's summary bit stays: members clears it once it finds the
     * word empty, which costs less than a test at every removal */
    *word &= ~bit_of(v);
    s->counts[from] -= 1;
    if (to < 0)
        return;
    s->deg[v] = to;
    class_add(s, to, v);
}

static void is_queue(is_state *s, int64_t v)
{
    fifo_push(&s->fail, &s->queue, &s->qhead, v);
}

static void decide(is_state *s, int64_t v, uint8_t decision)
{
    if (s->status[v] != UNDECIDED)
        fail(&s->fail, ENGINE_BROKEN);  /* decided twice */
    s->status[v] = decision;
}

/* remove v and its live edges, decrementing live neighbours */
static void drop_vertex(is_state *s, int64_t v)
{
    for (int64_t h = s->head[v]; h >= 0; h = s->next[h]) {
        int64_t u = s->nbr[h];
        if (u == v)
            continue;
        int64_t du = s->deg[u];
        adj_remove(s, u, v);
        reclass(s, u, du - 1);
        if (du <= 3)
            is_queue(s, u);
    }
    reclass(s, v, -1);
    s->alive[v] = 0;
    SURVIVAL_COUNT(s) -= 1;
}

/* rule v out of the set: marks it out, removes v */
static void is_delete(is_state *s, int64_t v)
{
    if (!s->alive[v])
        fail(&s->fail, ENGINE_BROKEN);  /* a vertex that is gone */
    decide(s, v, OUT);
    drop_vertex(s, v);
}

/* put v in the set: marks it in, removes v */
static void is_select(is_state *s, int64_t v)
{
    decide(s, v, IN);
    drop_vertex(s, v);
}

/* contract at the live 2-vertex y; returns the merged vertex, or -1 when
 * a degenerate neighbourhood resolved y instead */
static int64_t contract(is_state *s, int64_t y)
{
    CONTRACTIONS(s) += 1;
    int64_t first = s->head[y];
    int64_t x = s->nbr[first], z = s->nbr[s->next[first]];
    if (x == y) {
        /* y's remaining edge is a self-loop */
        is_select(s, y);
        return -1;
    }
    if (x == z) {
        /* both edges lead to x: y is effectively pendant */
        is_select(s, y);
        is_delete(s, x);
        return -1;
    }
    if (*arc_to(s, x, z) >= 0) {
        /* neighbours adjacent: y is simplicial */
        is_select(s, y);
        is_delete(s, x);
        is_delete(s, z);
        return -1;
    }
    /* true merge: x absorbs z and y, which unfold_merges decides, and the
     * merged vertex keeps x's id; x and z keep their degrees until
     * reclass, their lists shrink at once */
    adj_remove(s, x, y);
    adj_remove(s, z, y);
    for (int64_t h = s->head[z]; h >= 0; h = s->next[h]) {
        int64_t w = s->nbr[h];
        if (w == z)
            s->nbr[h] = (int32_t)x;
        else
            adj_rename(s, w, z, x);
    }
    /* no arc leads to -1, so this is the link that ends x's list */
    *arc_to(s, x, -1) = s->head[z];
    int64_t dx = s->deg[x] + s->deg[z] - 2;
    /* the histogram has room for every degree settle lets arise */
    if (dx >= s->ncounts)
        fail(&s->fail, ENGINE_BROKEN);
    reclass(s, x, dx);
    reclass(s, y, -1);
    reclass(s, z, -1);
    push(&s->fail, &s->merges, x);
    push(&s->fail, &s->merges, y);
    push(&s->fail, &s->merges, z);
    s->alive[y] = s->alive[z] = 0;
    SURVIVAL_COUNT(s) -= 2;
    if (dx <= 2)
        is_queue(s, x);
    return x;
}

/* resolve all 0/1/2-degree vertices until none remain */
static void settle(is_state *s)
{
    while (s->qhead < s->queue.len) {
        int64_t v = fifo_pop(&s->queue, &s->qhead);
        if (!s->alive[v] || s->deg[v] > 2)
            continue;
        if (s->deg[v] == 0) {
            is_select(s, v);
        } else if (s->deg[v] == 1) {
            int64_t u = s->nbr[s->head[v]];
            is_select(s, v);
            is_delete(s, u);
        } else {
            int64_t merged = contract(s, v);
            if (merged >= 0 && s->deg[merged] > DEGREE_CAP)
                is_delete(s, merged);
        }
    }
}

/* -- the engine's private state ---------------------------------------- */

/* the private state of a fresh engine over a fresh SurvivalGraph: the
 * chains (v's is its block of deg[v] half-edges in order), the class sets
 * and the settle queue; counts is rebuilt from deg and alive */
static void is_alloc(is_state *s)
{
    int64_t n = s->n, ncounts = s->ncounts;
    int64_t *deg = s->deg, *counts = s->counts;
    int64_t half_edges = 0;
    for (int64_t v = 0; v < n; v++)
        half_edges += deg[v];
    take(&s->fail, &s->next, half_edges, sizeof *s->next);
    take(&s->fail, &s->head, n, sizeof *s->head);
    take(&s->fail, &s->classes, ncounts * words(n), sizeof *s->classes);
    take(&s->fail, &s->sums, ncounts * words(words(n)), sizeof *s->sums);
    take(&s->fail, &s->picked, ncounts, sizeof *s->picked);
    for (int64_t v = 0, h = 0; v < n; v++) {
        s->head[v] = deg[v] ? (int32_t)h : -1;
        for (int64_t end = h + deg[v]; h < end; h++)
            s->next[h] = h + 1 < end ? (int32_t)(h + 1) : -1;
        if (deg[v] <= 2)
            is_queue(s, v);
    }
    for (int64_t k = 0; k < ncounts; k++)
        counts[k] = 0;
    for (int64_t v = 0; v < n; v++)
        if (s->alive[v])
            class_add(s, deg[v], v);
}

/* -- the round ladder: is_drive and its helpers ------------------------ */

/* the live vertices of degree lo..hi (0 <= lo, hi < ncounts), ascending,
 * into out, a vector of the engine's: the union of the non-empty classes'
 * summaries, lowest bit first, and for each of its bits the union of
 * those classes' words, lowest bit first; a class's summary bit of a word
 * found empty is cleared.  Finding another number of ids than
 * counts[lo] + ... + counts[hi] is ENGINE_BROKEN. */
static void members(is_state *s, int64_t lo, int64_t hi, vec *out)
{
    int64_t need = 0, npicked = 0, m = 0;
    for (int64_t k = lo; k <= hi; k++) {
        need += s->counts[k];
        if (s->counts[k])
            s->picked[npicked++] = k;
    }
    out->len = 0;
    reserve(&s->fail, out, need);
    for (int64_t a = 0; npicked && a < words(words(s->n)); a++) {
        uint64_t sum = 0;
        for (int64_t j = 0; j < npicked; j++)
            sum |= class_sum(s, s->picked[j])[a];
        for (; sum; sum &= sum - 1) {
            int64_t i = 64 * a + lowest(sum);
            uint64_t w = 0;
            for (int64_t j = 0; j < npicked; j++) {
                uint64_t word = class_set(s, s->picked[j])[i];
                if (!word)
                    class_sum(s, s->picked[j])[a] &= ~bit_of(i);
                w |= word;
            }
            for (; w; w &= w - 1) {
                if (m == need)
                    fail(&s->fail, ENGINE_BROKEN);  /* more ids than counted */
                out->data[m++] = (int32_t)(64 * i + lowest(w));
            }
        }
    }
    if (m != need)
        fail(&s->fail, ENGINE_BROKEN);  /* fewer ids than counted */
    out->len = m;
}

/* delete each vertex, in order (SurvivalGraph.deletes) */
static void deletes(is_state *s, const int32_t *ids, int64_t count)
{
    for (int64_t i = 0; i < count; i++)
        is_delete(s, ids[i]);
}

/* SurvivalGraph.delete_above: every live vertex above class k goes */
static void delete_above(is_state *s, int64_t k)
{
    members(s, k + 1, s->ncounts - 1, &s->above);
    deletes(s, s->above.data, s->above.len);
}

/* the members of class k marked in round t, ascending, into s->marked */
static void marked_members(is_state *s, int64_t t, int64_t k, double p)
{
    vec *ids = &s->marked;
    uint64_t rk = round_key(s->key, t, MARK);
    int64_t kept = 0;
    members(s, k, k, ids);
    for (int64_t i = 0; i < ids->len; i++)
        if (marked_by(rk, ids->data[i], p))
            ids->data[kept++] = ids->data[i];
    ids->len = kept;
}

/* thinning round t (SurvivalGraph.thin): every live vertex above class top
 * goes, then each marked member of class top; both lists are read, and
 * the marks drawn, before any deletion */
static void is_thin(is_state *s, int64_t t, int64_t top, double p)
{
    marked_members(s, t, top, p);
    delete_above(s, top);
    deletes(s, s->marked.data, s->marked.len);
}

/* the 4-regular probe of v, which goes itself when its neighbours all
 * have degree 3, else the lowest-id neighbour of the highest degree goes;
 * a vertex no longer of degree 3 is skipped */
static void probe(is_state *s, int64_t v)
{
    if (s->deg[v] != 3)
        return;
    /* a dead vertex kept degree 3: see SurvivalGraph.probe_round */
    if (!s->alive[v])
        fail(&s->fail, ENGINE_BROKEN);
    int64_t best = -1, target = -1;
    for (int64_t h = s->head[v]; h >= 0; h = s->next[h]) {
        int64_t u = s->nbr[h], du = s->deg[u];
        if (du > best || (du == best && u < target)) {
            best = du;
            target = u;
        }
    }
    is_delete(s, best == 3 ? v : target);
}

/* probe round t (SurvivalGraph.probe_round): every live vertex above
 * class 5 goes; then each marked member of class 3 is probed, in order */
static void is_probe_round(is_state *s, int64_t t, double p)
{
    delete_above(s, 5);
    marked_members(s, t, 3, p);
    for (int64_t i = 0; i < s->marked.len; i++)
        probe(s, s->marked.data[i]);
}

/* the highest class above floor holding at least max(1, int(fraction *
 * survival + 0.5)) live vertices, the share rounded half up, or -1
 * (is_local_algorithm._top_persistent) */
static int64_t top_persistent(is_state *s, double fraction, int64_t floor)
{
    int64_t need = (int64_t)(fraction * (double)SURVIVAL_COUNT(s) + 0.5);
    if (need < 1)
        need = 1;
    for (int64_t k = s->ncounts - 1; k > floor; k--)
        if (s->counts[k] >= need)
            return k;
    return -1;
}

/* the forced deletion after round t, which removed nothing: the member of
 * rank draw_index(m) among the m ascending members of the top non-empty
 * class goes; then settle */
static void force_progress(is_state *s, int64_t t)
{
    int64_t top = s->ncounts - 1;
    while (top > 0 && !s->counts[top])
        top--;
    members(s, top, top, &s->marked);
    if (!s->marked.len)
        fail(&s->fail, ENGINE_BROKEN);  /* no live vertex */
    is_delete(s, s->marked.data[draw_index(s->key, t, FORCE,
                                           s->marked.len)]);
    settle(s);
}

/* once no vertex is left in the graph: reading the merge log backwards,
 * each merge's z takes x's decision and y the opposite one */
static void unfold_merges(is_state *s)
{
    if (SURVIVAL_COUNT(s))
        fail(&s->fail, ENGINE_BROKEN);  /* a vertex is still in the graph */
    const int32_t *m = s->merges.data;
    for (int64_t i = s->merges.len - 3; i >= 0; i -= 3) {
        decide(s, m[i + 2], s->status[m[i]]);
        decide(s, m[i + 1], IN + OUT - s->status[m[i]]);
    }
    for (int64_t v = 0; v < s->n; v++)
        if (s->status[v] == UNDECIDED)
            fail(&s->fail, ENGINE_BROKEN);  /* left undecided */
}

/* a whole run (is_local_algorithm._drive): rounds until no vertex is left,
 * their count into *rounds, then the merges unfolded.  Each round is the
 * thinning of the top persistent class above floor (3, or 5 when d = 4)
 * with probability p; else, for d = 4 with a live 3-vertex, a probe round
 * with p; else every vertex above class d goes.  Each round then settles;
 * one that removes no vertex is followed by the forced deletion, so the
 * survival count falls every round. */
static void is_drive(is_state *s, int64_t d, double p, double fraction,
                     int64_t *rounds)
{
    int64_t floor = d == 3 ? 3 : 5;
    *rounds = 0;
    while (SURVIVAL_COUNT(s)) {
        int64_t before = SURVIVAL_COUNT(s);
        int64_t top = top_persistent(s, fraction, floor);
        if (top >= 0)
            is_thin(s, *rounds, top, p);
        else if (d == 4 && s->counts[3])
            is_probe_round(s, *rounds, p);
        else
            delete_above(s, d);
        settle(s);
        if (SURVIVAL_COUNT(s) == before)
            force_progress(s, *rounds);
        *rounds += 1;
    }
    unfold_merges(s);
}

/* -- the entry --------------------------------------------------------- */

/* A whole run over a fresh SurvivalGraph: its shared buffers (nbr, whose
 * entries the run renames in place, and counts with ncounts entries, more
 * than any degree), the run's key, d, the thinning probability and the
 * persistence fraction; the rounds run go into *rounds.  Returns 0 or the
 * failure that stopped the run. */
int64_t is_run(int64_t n, int32_t *nbr, int64_t *deg, uint8_t *alive,
               int64_t *counts, uint8_t *status, int64_t *state, uint64_t key,
               int64_t ncounts, int64_t d, double p, double fraction,
               int64_t *rounds)
{
    is_state *s = calloc(1, sizeof *s);
    if (!s)
        return ENGINE_NOMEM;
    *s = (is_state){.n = n, .key = key, .nbr = nbr, .deg = deg,
                    .alive = alive, .counts = counts, .status = status,
                    .state = state, .ncounts = ncounts};
    if (!setjmp(s->fail.at)) {
        is_alloc(s);
        is_drive(s, d, p, fraction, rounds);
    }
    int64_t err = s->fail.err;
    release(&s->fail);
    free(s);
    return err;
}
