/* Chunk kernels of the evolution integrators and the event engines of the
 * two finite processes (further down), loaded by _kernels.py.
 *
 * is_chunk runs both independent-set processes (d = 3 and 4) and cut_chunk
 * the max-cut process.  Each is the composed round of is_evolution /
 * cut_evolution, unrolled: every expression, its left-to-right evaluation
 * order, every guard and every status code is the same, so that the two
 * produce bit-identical doubles (pinned by tests); an edit to a round rule
 * goes into both.  Built with -ffp-contract=off (no fused multiply-adds,
 * which would round differently), and refused at compile time where double
 * arithmetic is evaluated at a wider precision (x87), which would too.
 *
 * The state goes in and out through one double array; rounds and status
 * come back through out[0] and out[1].
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

/* Advance the d-regular independent-set recurrence by up to max_rounds
 * rounds; the run stops once the start class v_d falls to eps.  The two
 * processes differ only in the deletion that ends a round: d = 3 always
 * deletes from the highest occupied class (with the improvement correction
 * terms at top class 4), while d = 4 runs the probe step once classes 6
 * and 7 are empty.
 *
 * state: v2, v3, v4, v5, v6, v7, independent, erase */
void is_chunk(double *state, double eps, int64_t d, int64_t improvement,
              int64_t max_rounds, int64_t *out)
{
    double v2 = state[0], v3 = state[1], v4 = state[2], v5 = state[3];
    double v6 = state[4], v7 = state[5];
    double independent = state[6], erase = state[7];
    int64_t rounds = 0;
    int64_t status = STATUS_BUDGET;
    while (rounds < max_rounds) {
        if (!((d == 3 ? v3 : v4) > eps)) {
            status = STATUS_STOPPED;
            break;
        }
        rounds += 1;

        /* Redistribute the erasure backlog over the open-edge mass s, which
         * counts only classes above the dust threshold: every hit moves a
         * vertex one degree class down.  Ascending order so each class is
         * read before the class above it spills into it. */
        double s = 0.0;
        if (erase > eps) {
            if (v3 > eps)
                s += 3 * v3;
            if (v4 > eps)
                s += 4 * v4;
            if (v5 > eps)
                s += 5 * v5;
            if (v6 > eps)
                s += 6 * v6;
            if (v7 > eps)
                s += 7 * v7;
            double r = (erase + eps) / s;
            double dl;
            if (v3 > eps) {
                dl = r * 3 * v3;
                v3 -= dl;
                v2 += dl;
            }
            if (v4 > eps) {
                dl = r * 4 * v4;
                v4 -= dl;
                v3 += dl;
            }
            if (v5 > eps) {
                dl = r * 5 * v5;
                v5 -= dl;
                v4 += dl;
            }
            if (v6 > eps) {
                dl = r * 6 * v6;
                v6 -= dl;
                v5 += dl;
            }
            if (v7 > eps) {
                dl = r * 7 * v7;
                v7 -= dl;
                v6 += dl;
            }
            erase = -eps;
        }

        s = 0.0;
        if (v3 > eps)
            s += 3 * v3;
        if (v4 > eps)
            s += 4 * v4;
        if (v5 > eps)
            s += 5 * v5;
        if (v6 > eps)
            s += 6 * v6;
        if (v7 > eps)
            s += 7 * v7;

        /* Contract at 2-vertices: pick two open-edge endpoints with
         * probability proportional to degree, merge into one vertex of
         * degree i+j-2; merged degree beyond 7 turns into erasures. */
        if (v2 > eps) {
            if (!(s > 0.0)) {
                status = STATUS_EXHAUSTED;
                break;
            }
            double r = (v2 + eps) / s;
            double e3 = 3 * v3;
            double e4 = 4 * v4;
            double e5 = 5 * v5;
            double e6 = 6 * v6;
            double e7 = 7 * v7;
            double a4 = e3 * e3;
            double a5 = e3 * e4 + e4 * e3;
            double a6 = e3 * e5 + e4 * e4 + e5 * e3;
            double a7 = e3 * e6 + e4 * e5 + e5 * e4 + e6 * e3;
            double a8 = e3 * e7 + e4 * e6 + e5 * e5 + e6 * e4 + e7 * e3;
            double a9 = e4 * e7 + e5 * e6 + e6 * e5 + e7 * e4;
            double a10 = e5 * e7 + e6 * e6 + e7 * e5;
            double a11 = e6 * e7 + e7 * e6;
            double a12 = e7 * e7;
            independent += v2 + eps;
            v2 = -eps;
            v3 = v3 + r * (0.0 / s - 2 * 3 * v3);
            v4 = v4 + r * (a4 / s - 2 * 4 * v4);
            v5 = v5 + r * (a5 / s - 2 * 5 * v5);
            v6 = v6 + r * (a6 / s - 2 * 6 * v6);
            v7 = v7 + r * (a7 / s - 2 * 7 * v7);
            erase += 8 * r * a8 / s;
            erase += 9 * r * a9 / s;
            erase += 10 * r * a10 / s;
            erase += 11 * r * a11 / s;
            erase += 12 * r * a12 / s;
        }

        /* d = 3 deletes from classes 3-7 only; the composed step reports
         * an empty range as exhaustion (and the correction terms below
         * would divide by an empty pool). */
        if (d == 3 && !(v3 > eps || v4 > eps || v5 > eps || v6 > eps
                        || v7 > eps)) {
            status = STATUS_EXHAUSTED;
            break;
        }

        /* highest occupied degree class: down to 4 for d = 3, and down to 5
         * for d = 4, where 5 means the probe step */
        int64_t mx = 7;
        if (v7 < eps) {
            mx = 6;
            if (v6 < eps) {
                mx = 5;
                if (d == 3 && v5 < eps)
                    mx = 4;
            }
        }
        if (d == 4 && mx == 5) {
            /* Probe step: delete a 3-vertex if all of its three neighbours
             * have degree 3, otherwise delete its highest-degree neighbour
             * and contract at the now 2-valent probe vertex.  Negative-dust
             * classes can empty this pool in the terminal rounds. */
            double den = 3 * v3 + 4 * v4 + 5 * v5;
            if (!(den > 0.0)) {
                status = STATUS_EXHAUSTED;
                break;
            }
            double rat3 = 3 * v3 / den;
            double rat4 = 4 * v4 / den;
            double rat5 = 5 * v5 / den;
            v2 += eps * 3 * rat3 * rat3 * rat3;
            v3 += eps * (-1 - 3 * rat3);
            v4 += eps * 3 * (-rat4 + rat3 * rat3 * (1 - rat3));
            v5 += eps * 3 * (-rat5 + rat3 * rat4 * (rat4 + 2 * rat5));
            independent += eps * (1 - rat3 * rat3 * rat3);
            erase += eps * (6 - 12 * rat3 * rat3 + 6 * rat3 * rat3 * rat3
                            + (15 * rat3 * rat4 + 3) * (rat4 + 2 * rat5));
        } else {
            /* delete 2*eps mass from the highest occupied degree class */
            if (mx == 7)
                v7 -= 2 * eps;
            else if (mx == 6)
                v6 -= 2 * eps;
            else if (mx == 5)
                v5 -= 2 * eps;
            else
                v4 -= 2 * eps;
            erase += (double)(2 * mx) * eps;
        }

        /* Four-neighbour correction terms, applied only once the 4-class
         * is the top occupied class.  The draw probabilities use s as
         * measured before this round's contractions (the deleted vertex's
         * neighbours were sampled against that pool). */
        if (improvement && mx == 4) {
            double x = 4 * v4 / s;
            double p4444 = 2 * eps * x * x * x * x;
            v3 -= 4 * p4444;
            erase += 12 * p4444;
            independent += p4444;
            double p4443 = 8 * eps * x * x * x * 3 * v3 / s;
            v3 -= 3 * p4443;
            v2 -= p4443;
            erase += 11 * p4443;
            independent += p4443;
            x = 12 * v4 * v3 / s / s;
            double p4433 = 12 * eps * x * x;
            v4 += p4433;
            v3 -= 2 * p4433;
            v2 -= 2 * p4433;
            erase += 6 * p4433;
            independent += p4433;
        }

        double lo = -8.0 * eps;
        double hi = 1.0 + 8.0 * eps;
        if (!(v2 >= lo && v2 <= hi && v3 >= lo && v3 <= hi
              && v4 >= lo && v4 <= hi && v5 >= lo && v5 <= hi
              && v6 >= lo && v6 <= hi && v7 >= lo && v7 <= hi)) {
            status = STATUS_INVALID;
            break;
        }
        if (!(independent >= -1e-12 && independent <= 0.5 + 8 * eps)) {
            status = STATUS_INVALID;
            break;
        }
        if (!(erase >= lo && erase <= 1.0)) {
            status = STATUS_INVALID;
            break;
        }
    }
    state[0] = v2;
    state[1] = v3;
    state[2] = v4;
    state[3] = v5;
    state[4] = v6;
    state[5] = v7;
    state[6] = independent;
    state[7] = erase;
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
 * allocates its engine's state, runs the whole process and frees the state,
 * and returns 0, ENGINE_NOMEM after an allocation failure, or ENGINE_BROKEN
 * when a bookkeeping invariant failed (an assertion in the Python methods).
 * A failed check or allocation calls fail, which jumps straight back to the
 * run's entry: the run stops at once, as the Python method's exception ends
 * the reference run, and leaves the shared buffers where that stops.
 *
 * An engine reads and writes only its own state and the buffers it was
 * given: this file has no mutable file-scope state.  So engines over
 * distinct buffers may run at once on different threads; ctypes releases
 * the GIL for each call.
 *
 * Vertex and half-edge ids are stored as int32_t: the graph's owner and
 * pair arrays (config_model.Multigraph builds them so, for graphs of fewer
 * than 2^31 vertices and half-edges), and every id an engine keeps of its
 * own.  Multigraph groups the half-edges by owner in ascending vertex
 * order, so vertex v's half-edges are the contiguous block that starts
 * after those of the vertices below v.  Arithmetic on ids and counts runs
 * in int64_t locals, and each store into 32-bit storage is an explicit
 * (int32_t) cast of a value that fits.  Of the buffers shared with Python,
 * the cut's aliases are int32_t ids too, while the degrees and counters
 * stay int64_t, as do the independent-set engine's pool offsets.
 */
#include <setjmp.h>
#include <stdlib.h>
#include <string.h>

#define ENGINE_NOMEM 1
#define ENGINE_BROKEN 2

/* a run's exit: its entry's setjmp point, and the code that fail leaves */
typedef struct {
    jmp_buf at;
    int64_t err;
} failure;

static void fail(failure *f, int64_t code)
{
    f->err = code;
    longjmp(f->at, 1);
}

/* a growable vector of ids */
typedef struct {
    int32_t *data;
    int64_t len, cap;
} vec;

/* room for need items in v (and an allocated buffer even for none); a
 * failed realloc leaves the old buffer in v, for the engine's free */
static void reserve(failure *f, vec *v, int64_t need)
{
    if (v->data && need <= v->cap)
        return;
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

/* numpy's bitgen_t, as numpy/random/bitgen.h declares it: a bit
 * generator's state and its draw functions.  A numpy Generator's
 * bit_generator.ctypes.bit_generator points at one, and Generator.random
 * fills its output with one next_double call per entry, in order.  The
 * engines draw with next_double alone.  The caller holds the bit
 * generator's lock, as numpy's own methods do. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* int(u * m) for one draw u <= 1 - 2^-53: an index below m < 2^31 */
static int64_t draw_index(bitgen_t *bg, int64_t m)
{
    return (int64_t)(bg->next_double(bg->state) * (double)m);
}

/* the ids of ids[0 .. m) whose draw falls below p, in order, into out
 * (which may be ids itself); returns their count.  One draw per id, in
 * order, so the draws and the marks are those of ids[rng.random(m) < p]
 * and the generator is left where that expression leaves it. */
static int64_t mark(bitgen_t *bg, const int32_t *ids, int64_t m, double p,
                    int32_t *out)
{
    int64_t kept = 0;
    for (int64_t i = 0; i < m; i++)
        if (bg->next_double(bg->state) < p)
            out[kept++] = ids[i];
    return kept;
}

/* ---- The finite cut process's event engine ----------------------------
 *
 * cut_local_algorithm.CutProcess restated over flat arrays: _reveal, query,
 * commit, whiten, eliminate_white, reduce_rrr, _connected, closure, the
 * endgame commits and _resolve_pending.  Every rule, its order of effects
 * and every tie-break is the same as in the Python methods, which stay
 * the reference semantics; tests pin the two to equal colourings and
 * counters.  The engine exports one function, cut_run, and a whole run
 * is one call of it: the round schedule of CutProcess._drive (which stays
 * its reference), with the endgame floor passed in from Python.  Each
 * round is query_round (CutProcess.query_round: the lone vertices, the
 * query marks and the queries, then closure), which draws the marks from
 * the caller's numpy bit generator, one next_double per lone vertex in
 * ascending order as the Python round does.  The
 * bootstrap pair after a stalled round takes two next_double draws, as
 * CutProcess._bootstrap takes two rng.random() draws, and each picked
 * survivor is found by its rank, counting the zero status bytes eight at
 * a time, with no list of the survivors.  So both backends read one
 * random stream.
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
 * Shared with Python (the CutProcess's own buffers, read by its numpy
 * scans): status, f, the label counters nR/nG/nW/nD, pd, alias, revealed,
 * and counts = {good, bad, survival}.  Private here:
 *   - two (neighbour, parity) path slots per vertex, kept in list order
 *     (a pop shifts the second slot down, as list.pop does);
 *   - a chain of half-edges per vertex (head, next), the order of the
 *     Python slot list, whose unrevealed ones are the vertex's open
 *     half-edges; reduce_rrr moves s3's unrevealed ones to the end of
 *     s1's chain (s3 never reads its chain again);
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
    const int32_t *owner, *pair;
    uint8_t *status, *n_r, *n_g, *n_w, *n_d, *pd, *revealed;
    int8_t *f;
    int32_t *alias;
    int64_t *counts;
    int32_t *path_nb;
    uint8_t *path_par;
    int32_t *head, *next;
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

/* The pattern-scan candidates, each vertex at most once: one bit per
 * vertex in cand, one bit per non-zero word of cand in cand_sum (a summary
 * word covers 4096 vertices), and no non-zero summary word below cand_lo.
 * A pop takes the lowest id, as CutProcess.closure pops its heap. */
static void cand_add(cut_state *s, int64_t v)
{
    s->cand[v / 64] |= bit_of(v);
    s->cand_sum[v / 4096] |= bit_of(v / 64);
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
    for (int64_t h = s->head[v]; h >= 0; h = s->next[h])
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
    return -1;
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
    int64_t u = s->owner[h];
    int64_t x = s->owner[k];
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
    for (int64_t h = s->head[v]; h >= 0; h = s->next[h]) {
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
         * end of s1's chain, which is never empty: only an s3's head is
         * reset, and an s3 never survives again */
        s->alias[s3] = (int32_t)s1;
        int64_t end = s->head[s1];
        while (s->next[end] >= 0)
            end = s->next[end];
        int64_t h = s->head[s3];
        while (h >= 0) {
            int64_t nx = s->next[h];
            if (!s->revealed[h]) {
                s->next[h] = -1;
                s->next[end] = (int32_t)h;
                end = h;
            }
            h = nx;
        }
        s->head[s3] = -1;
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

static void cut_free(cut_state *s)
{
    free(s->path_nb);
    free(s->path_par);
    free(s->head);
    free(s->next);
    free(s->target);
    free(s->age);
    free(s->bit);
    free(s->free_);
    free(s->wsrc);
    free(s->wbit);
    free(s->seen);
    free(s->order.data);
    free(s->deferred.data);
    free(s->queue.data);
    free(s->walk.data);
    free(s->cand);
    free(s->cand_sum);
    free(s->lones);
    free(s->touched);
    free(s->marked);
    free(s);
}

/* the private state of a fresh engine over s->n vertices, every vertex
 * touched and none pending; vertex v's half-edges are 3v, 3v+1, 3v+2, in
 * the order of the Python slot lists */
static void cut_alloc(cut_state *s)
{
    int64_t n = s->n;
    size_t m = n > 0 ? (size_t)n : 1;
    s->path_nb = malloc(2 * m * sizeof *s->path_nb);
    s->path_par = malloc(2 * m);
    s->head = malloc(m * sizeof *s->head);
    s->next = malloc(3 * m * sizeof *s->next);
    s->target = malloc(m * sizeof *s->target);
    s->age = malloc(m * sizeof *s->age);
    s->bit = malloc(m);
    s->free_ = malloc(m);
    s->wsrc = malloc(m * sizeof *s->wsrc);
    s->wbit = malloc(m);
    s->seen = malloc(m * sizeof *s->seen);
    s->cand = calloc(words(m), sizeof *s->cand);
    s->cand_sum = calloc(words(words(m)), sizeof *s->cand_sum);
    s->lones = calloc(words(m), sizeof *s->lones);
    s->touched = calloc(words(m), sizeof *s->touched);
    s->marked = malloc(m * sizeof *s->marked);
    if (!s->path_nb || !s->path_par || !s->head || !s->next || !s->target
            || !s->age || !s->bit || !s->free_ || !s->wsrc || !s->wbit
            || !s->seen || !s->cand || !s->cand_sum || !s->lones
            || !s->touched || !s->marked)
        fail(&s->fail, ENGINE_NOMEM);
    for (int64_t v = 0; v < n; v++) {
        s->head[v] = (int32_t)(3 * v);
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

/* one round of the schedule (CutProcess.query_round): each lone vertex,
 * ascending, as CutProcess.lones finds them, is marked when its draw from
 * bg falls below q, and each marked vertex that is still a survival
 * vertex with an open half-edge is queried, in ascending order; then
 * closure */
static void query_round(cut_state *s, bitgen_t *bg, double q)
{
    int64_t count = 0;
    for (int64_t i = 0; i < words(s->n); i++)
        for (uint64_t w = lone_word(s, i); w; w &= w - 1)
            if (bg->next_double(bg->state) < q)
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
        int64_t u = s->owner[h], x = s->owner[k];
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

/* the survivor of rank r (0 for the first) among the ids at or after
 * from.  Eight status bytes at a time: x's zero bytes are the 0x80 bits of
 * ~(((x & low) + low) | x | low), exactly, as no byte's sum carries into
 * the next, and their count skips the word. */
static int64_t survivor_of_rank(cut_state *s, int64_t from, int64_t r)
{
    const uint64_t low = 0x7f7f7f7f7f7f7f7fULL;
    int64_t v = from;
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
    return -1;
}

/* CutProcess._bootstrap: two of the m survivors commit red and green,
 * the ones of ranks red = draw_index(m) and green = draw_index(m - 1),
 * bumped by one when at or past red, among the ascending survivors.  None
 * for no survivor */
static void bootstrap(cut_state *s, bitgen_t *bg)
{
    int64_t m = SURVIVAL(s);
    if (m == 0)
        return;
    if (m < 2)
        fail(&s->fail, ENGINE_BROKEN);  /* no pair to draw */
    int64_t a = draw_index(bg, m);
    int64_t b = draw_index(bg, m - 1);
    b += b >= a;
    int64_t lo = a < b ? a : b, hi = a < b ? b : a;
    int64_t v_lo = survivor_of_rank(s, 0, lo);
    int64_t v_hi = survivor_of_rank(s, v_lo + 1, hi - lo - 1);
    commit(s, a == lo ? v_lo : v_hi, RED);
    commit(s, a == lo ? v_hi : v_lo, GREEN);
}

/* a whole run (CutProcess._drive): a bootstrap pair and closure, then
 * rounds while more than floor vertices survive, their count into *rounds,
 * with a bootstrap pair and closure after each round that removes no
 * survival vertex, so the survival count falls every round; then the
 * endgame */
static void cut_drive(cut_state *s, bitgen_t *bg, double q, int64_t floor,
                      int64_t *rounds)
{
    *rounds = 0;
    bootstrap(s, bg);
    closure(s);
    while (SURVIVAL(s) > floor) {
        int64_t before = SURVIVAL(s);
        query_round(s, bg, q);
        *rounds += 1;
        if (SURVIVAL(s) == before) {
            bootstrap(s, bg);
            closure(s);
        }
    }
    endgame(s);
}

/* -- the entry --------------------------------------------------------- */

/* A whole run over a 3-regular graph: owner and pair of its 3n half-edges,
 * both the graph's own int32 arrays, the shared buffers, the caller's bit
 * generator, the query probability and the endgame floor; the rounds run
 * go into *rounds.  Returns 0 or the code of the failure that stopped the
 * run. */
int64_t cut_run(int64_t n, const int32_t *owner, const int32_t *pair,
                uint8_t *status, int8_t *f, uint8_t *n_r, uint8_t *n_g,
                uint8_t *n_w, uint8_t *n_d, uint8_t *pd, int32_t *alias,
                uint8_t *revealed, int64_t *counts, bitgen_t *bg, double q,
                int64_t floor, int64_t *rounds)
{
    cut_state *s = calloc(1, sizeof *s);
    if (!s)
        return ENGINE_NOMEM;
    *s = (cut_state){.n = n, .owner = owner, .pair = pair, .status = status,
                     .f = f, .n_r = n_r, .n_g = n_g, .n_w = n_w, .n_d = n_d,
                     .pd = pd, .alias = alias, .revealed = revealed,
                     .counts = counts};
    if (!setjmp(s->fail.at)) {
        cut_alloc(s);
        cut_drive(s, bg, q, floor, rounds);
    }
    int64_t err = s->fail.err;
    cut_free(s);
    return err;
}

/* ---- The finite independent-set process's event engine -----------------
 *
 * is_local_algorithm.SurvivalGraph restated over flat arrays: _drop_vertex,
 * delete, _select, the four branches of contract, the settle FIFO, the
 * per-vertex loops of deletes and delete_above, the two kinds of round
 * (thin and probe_round) and unfold_merges' backward read of merges.
 * Every rule and its order of effects is the same as in the Python
 * methods, which stay the reference semantics; tests pin the two to equal
 * sets, round counts and contraction counts.  The engine exports one
 * function, is_run, and a whole run is one call of it: the round ladder of
 * is_local_algorithm._drive (which stays its reference), with the
 * persistence fraction passed in from Python, then the unfolding of the
 * merges; no event is exported on its own.  The rounds (is_thin,
 * is_probe_round) draw their marks from the caller's numpy bit generator,
 * one next_double per class member in ascending order as the Python round
 * does, and the forced deletion its member by one next_double
 * (draw_index), as the ladder by one rng.random(), so both backends read
 * one random stream.  The class members are the ascending ids
 * SurvivalGraph.scan finds, read off the class bit sets below in
 * ascending order, at a cost of n / 64 words per non-empty class scanned
 * (none for an empty range).
 *
 * The neighbour lists keep the Python list order exactly: a removal takes
 * the first occurrence and shifts the rest down (list.remove), a rename
 * replaces the first occurrence (nbrs[nbrs.index(z)] = x), a merge appends
 * z's list to x's with z's loops renamed (list.extend), and every queue
 * append happens where Python makes it, duplicates included.
 *
 * Shared with Python (the SurvivalGraph's own buffers): deg (frozen at
 * death, as in Python), alive, the degree histogram counts, the decision
 * bytes status (UNDECIDED, IN, OUT; deciding a vertex twice is
 * ENGINE_BROKEN), which give the run's set, and state = {survival count,
 * contractions}.  Private here:
 *   - each live vertex's neighbours, pool[off[v] .. off[v] + deg[v]),
 *     with room for cap[v]; a list that outgrows its room moves to the
 *     pool's end.  The pool holds int32 ids and off int64 offsets, so the pool
 *     may outgrow 2^31 entries;
 *   - one bit set per degree class, class_set(s, k) holding the live
 *     vertices of degree k; every change of a degree or a death goes
 *     through reclass, which keeps counts[k] equal to the size of class k;
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
    int64_t n, ncounts, cap_degree;
    int64_t *deg, *counts, *state;
    uint8_t *alive, *status;
    int64_t *off;
    int32_t *cap;
    vec pool, merges, queue;
    int64_t qhead;
    uint64_t *classes;
    const uint64_t **picked;
    vec above, marked;
} is_state;

#define SURVIVAL_COUNT(s) ((s)->state[0])
#define CONTRACTIONS(s) ((s)->state[1])

/* the bit set of degree class k */
static uint64_t *class_set(is_state *s, int64_t k)
{
    return s->classes + k * words(s->n);
}

static int32_t *nbrs(is_state *s, int64_t v)
{
    return s->pool.data + s->off[v];
}

/* v's list of m entries drops its first occurrence of x (list.remove) */
static void adj_remove(is_state *s, int64_t v, int64_t x, int64_t m)
{
    int32_t *a = nbrs(s, v);
    for (int64_t i = 0; i < m; i++) {
        if (a[i] == x) {
            memmove(a + i, a + i + 1, (m - i - 1) * sizeof *a);
            return;
        }
    }
    fail(&s->fail, ENGINE_BROKEN);  /* adjacency out of sync */
}

/* v's list has its first occurrence of old replaced by new_ */
static void adj_rename(is_state *s, int64_t v, int64_t old, int64_t new_)
{
    int32_t *a = nbrs(s, v);
    for (int64_t i = 0; i < s->deg[v]; i++) {
        if (a[i] == old) {
            a[i] = (int32_t)new_;
            return;
        }
    }
    fail(&s->fail, ENGINE_BROKEN);
}

static int adj_has(is_state *s, int64_t v, int64_t x)
{
    const int32_t *a = nbrs(s, v);
    for (int64_t i = 0; i < s->deg[v]; i++)
        if (a[i] == x)
            return 1;
    return 0;
}

/* room for need entries in v's list of m entries; may move the pool */
static void adj_reserve(is_state *s, int64_t v, int64_t need, int64_t m)
{
    if (need <= s->cap[v])
        return;
    vec *pool = &s->pool;
    int64_t cap = 2 * need;
    if (pool->len + cap > pool->cap) {
        int64_t grown = 2 * (pool->len + cap);
        int32_t *data = realloc(pool->data, grown * sizeof *data);
        if (!data)
            fail(&s->fail, ENGINE_NOMEM);
        pool->data = data;
        pool->cap = grown;
    }
    memcpy(pool->data + pool->len, nbrs(s, v), m * sizeof *pool->data);
    s->off[v] = pool->len;
    s->cap[v] = (int32_t)cap;
    pool->len += cap;
}

/* v leaves the class of its degree and, unless it dies (to < 0), takes
 * degree to and joins that class */
static void reclass(is_state *s, int64_t v, int64_t to)
{
    int64_t from = s->deg[v];
    uint64_t *word = class_set(s, from) + v / 64;
    if (!(*word & bit_of(v)))
        fail(&s->fail, ENGINE_BROKEN);  /* class sets out of sync */
    *word &= ~bit_of(v);
    s->counts[from] -= 1;
    if (to < 0)
        return;
    s->deg[v] = to;
    class_set(s, to)[v / 64] |= bit_of(v);
    s->counts[to] += 1;
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
    for (int64_t i = 0; i < s->deg[v]; i++) {
        int64_t u = nbrs(s, v)[i];
        if (u == v)
            continue;
        int64_t du = s->deg[u];
        adj_remove(s, u, v, du);
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
    int64_t x = nbrs(s, y)[0], z = nbrs(s, y)[1];
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
    if (adj_has(s, x, z)) {
        /* neighbours adjacent: y is simplicial */
        is_select(s, y);
        is_delete(s, x);
        is_delete(s, z);
        return -1;
    }
    /* true merge: x absorbs z and y, which unfold_merges decides; x and z
     * keep their degrees until reclass, their lists shrink at once */
    int64_t lx = s->deg[x] - 1, lz = s->deg[z] - 1;
    adj_remove(s, x, y, lx + 1);
    adj_remove(s, z, y, lz + 1);
    for (int64_t i = 0; i < lz; i++) {
        int64_t w = nbrs(s, z)[i];
        if (w != z)
            adj_rename(s, w, z, x);
    }
    adj_reserve(s, x, lx + lz, lx);
    int32_t *ax = nbrs(s, x), *az = nbrs(s, z);
    for (int64_t i = 0; i < lz; i++)
        ax[lx + i] = az[i] == z ? (int32_t)x : az[i];
    int64_t dx = lx + lz;
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
            int64_t u = nbrs(s, v)[0];
            is_select(s, v);
            is_delete(s, u);
        } else {
            int64_t merged = contract(s, v);
            if (merged >= 0 && s->deg[merged] > s->cap_degree)
                is_delete(s, merged);
        }
    }
}

/* -- the engine's private state ---------------------------------------- */

static void is_free(is_state *s)
{
    free(s->off);
    free(s->cap);
    free(s->pool.data);
    free(s->merges.data);
    free(s->queue.data);
    free(s->above.data);
    free(s->marked.data);
    free(s->classes);
    free(s->picked);
    free(s);
}

/* the private state of a fresh engine over a fresh SurvivalGraph: owner
 * and pair of the graph's half-edges (grouped by owner, so v's neighbour
 * list is owner[pair[h]] over v's block of deg[v] half-edges), the class
 * sets and the settle queue; the histogram counts is rebuilt from deg and
 * alive */
static void is_alloc(is_state *s, const int32_t *owner, const int32_t *pair)
{
    int64_t n = s->n, ncounts = s->ncounts;
    int64_t *deg = s->deg, *counts = s->counts;
    size_t m = n > 0 ? (size_t)n : 1;
    s->off = malloc(m * sizeof *s->off);
    s->cap = malloc(m * sizeof *s->cap);
    s->classes = calloc(ncounts * words(m), sizeof *s->classes);
    s->picked = malloc(ncounts * sizeof *s->picked);
    int64_t half_edges = 0;
    for (int64_t v = 0; v < n; v++)
        half_edges += deg[v];
    /* room for the merges' relocated lists before the first regrowth */
    s->pool.cap = 2 * half_edges + 64;
    s->pool.data = malloc(s->pool.cap * sizeof *s->pool.data);
    if (!s->off || !s->cap || !s->classes || !s->picked || !s->pool.data)
        fail(&s->fail, ENGINE_NOMEM);
    for (int64_t h = 0; h < half_edges; h++)
        s->pool.data[h] = owner[pair[h]];
    s->pool.len = half_edges;
    int64_t start = 0;
    for (int64_t v = 0; v < n; v++) {
        s->off[v] = start;
        s->cap[v] = (int32_t)deg[v];
        start += deg[v];
        if (deg[v] <= 2)
            is_queue(s, v);
    }
    for (int64_t k = 0; k < ncounts; k++)
        counts[k] = 0;
    for (int64_t v = 0; v < n; v++) {
        if (s->alive[v]) {
            class_set(s, deg[v])[v / 64] |= bit_of(v);
            counts[deg[v]] += 1;
        }
    }
}

/* -- the round ladder: is_drive and its helpers ------------------------ */

/* the live vertices of degree lo..hi (0 <= lo, hi < ncounts), ascending,
 * into out, a vector of the engine's: each word of the union of the
 * non-empty classes, lowest bit first.  Finding another number of ids than
 * counts[lo] + ... + counts[hi] is ENGINE_BROKEN. */
static void members(is_state *s, int64_t lo, int64_t hi, vec *out)
{
    int64_t need = 0, npicked = 0, m = 0, nw = words(s->n);
    for (int64_t k = lo; k <= hi; k++) {
        need += s->counts[k];
        if (s->counts[k])
            s->picked[npicked++] = class_set(s, k);
    }
    out->len = 0;
    reserve(&s->fail, out, need);
    for (int64_t i = 0; npicked && i < nw; i++) {
        uint64_t w = 0;
        for (int64_t j = 0; j < npicked; j++)
            w |= s->picked[j][i];
        for (; w; w &= w - 1) {
            if (m == need)
                fail(&s->fail, ENGINE_BROKEN);  /* more ids than counted */
            out->data[m++] = (int32_t)(64 * i + lowest(w));
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

/* one thinning round (SurvivalGraph.thin): every live vertex above class
 * top goes, then each member of class top whose draw from bg falls below
 * p; both lists are read, and the marks drawn, before any deletion */
static void is_thin(is_state *s, bitgen_t *bg, int64_t top, double p)
{
    members(s, top, top, &s->marked);
    vec *marked = &s->marked;
    marked->len = mark(bg, marked->data, marked->len, p, marked->data);
    delete_above(s, top);
    deletes(s, marked->data, marked->len);
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
    const int32_t *a = nbrs(s, v);
    int64_t best = -1, target = -1;
    for (int64_t j = 0; j < 3; j++) {
        int64_t du = s->deg[a[j]];
        if (du > best || (du == best && a[j] < target)) {
            best = du;
            target = a[j];
        }
    }
    is_delete(s, best == 3 ? v : target);
}

/* one probe round (SurvivalGraph.probe_round): every live vertex above
 * class 5 goes; then each member of class 3 whose draw from bg falls below
 * p is probed, in order */
static void is_probe_round(is_state *s, bitgen_t *bg, double p)
{
    delete_above(s, 5);
    members(s, 3, 3, &s->marked);
    vec *marked = &s->marked;
    marked->len = mark(bg, marked->data, marked->len, p, marked->data);
    for (int64_t i = 0; i < marked->len; i++)
        probe(s, marked->data[i]);
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

/* the forced deletion after a round that removed nothing: the member of
 * rank draw_index(m) among the m ascending members of the top non-empty
 * class goes; then settle */
static void force_progress(is_state *s, bitgen_t *bg)
{
    int64_t top = s->ncounts - 1;
    while (top > 0 && !s->counts[top])
        top--;
    members(s, top, top, &s->marked);
    if (!s->marked.len)
        fail(&s->fail, ENGINE_BROKEN);  /* no live vertex */
    is_delete(s, s->marked.data[draw_index(bg, s->marked.len)]);
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
static void is_drive(is_state *s, bitgen_t *bg, int64_t d, double p,
                     double fraction, int64_t *rounds)
{
    int64_t floor = d == 3 ? 3 : 5;
    *rounds = 0;
    while (SURVIVAL_COUNT(s)) {
        int64_t before = SURVIVAL_COUNT(s);
        int64_t top = top_persistent(s, fraction, floor);
        if (top >= 0)
            is_thin(s, bg, top, p);
        else if (d == 4 && s->counts[3])
            is_probe_round(s, bg, p);
        else
            delete_above(s, d);
        settle(s);
        if (SURVIVAL_COUNT(s) == before)
            force_progress(s, bg);
        *rounds += 1;
    }
    unfold_merges(s);
}

/* -- the entry --------------------------------------------------------- */

/* A whole run over a fresh SurvivalGraph: owner and pair of the graph's
 * half-edges, both the graph's own int32 arrays, the shared buffers
 * (counts with ncounts entries, more than any degree), the caller's bit
 * generator, the degree above which settle deletes a merged vertex, d, the
 * thinning probability and the persistence fraction; the rounds run go
 * into *rounds.  Returns 0 or the code of the failure that stopped the
 * run. */
int64_t is_run(int64_t n, const int32_t *owner, const int32_t *pair,
               int64_t *deg, uint8_t *alive, int64_t *counts,
               uint8_t *status, int64_t *state, bitgen_t *bg,
               int64_t ncounts, int64_t cap_degree, int64_t d, double p,
               double fraction, int64_t *rounds)
{
    is_state *s = calloc(1, sizeof *s);
    if (!s)
        return ENGINE_NOMEM;
    *s = (is_state){.n = n, .deg = deg, .alive = alive, .counts = counts,
                    .status = status, .state = state, .ncounts = ncounts,
                    .cap_degree = cap_degree};
    if (!setjmp(s->fail.at)) {
        is_alloc(s, owner, pair);
        is_drive(s, bg, d, p, fraction, rounds);
    }
    int64_t err = s->fail.err;
    is_free(s);
    return err;
}
