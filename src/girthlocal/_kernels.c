/* Chunk kernels of the evolution integrators, loaded by _kernels.py.
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

        /* open-edge mass, counting only classes above the dust threshold */
        double s = 0.0;
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

        /* Redistribute the erasure backlog: every hit moves a vertex one
         * degree class down.  Ascending order so each class is read before
         * the class above it spills into it. */
        if (erase > eps) {
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
            erase += 2 * mx * eps;
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
            x = 4 * v4 / s;
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
