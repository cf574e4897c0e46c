"""Hot inner loops for the evolution integrators.

Everything in here is written against plain float/int scalars so that the
optional numba JIT can compile it; the pure-Python definitions double as the
fallback.  There is one chunk kernel per process family: ``is_chunk`` runs
both independent-set processes (3- and 4-regular) and ``cut_chunk`` the
max-cut process.  The composed operations in ``is_evolution`` /
``cut_evolution`` are the reference semantics: the kernels must stay
arithmetically identical to them (same expressions, same evaluation order)
-- the equivalence is pinned by tests.

Each chunk runner advances the recurrence by at most ``max_rounds`` rounds and
reports why it stopped via a status code.
"""

STATUS_STOPPED = 0  # stop condition reached
STATUS_BUDGET = 1  # round budget spent, more work remains
STATUS_INVALID = 2  # a state left its sane range (NaN, inf, bad sign, law)
STATUS_EXHAUSTED = 3  # open-edge pool emptied while deletions were pending


def _is_chunk(v2, v3, v4, v5, v6, v7, independent, erase,
              eps, d, improvement, max_rounds):
    """Advance the d-regular independent-set recurrence (d = 3 or 4) by up
    to max_rounds rounds.

    The run stops once the start class v_d falls to ``eps``.  The two
    processes differ only in the deletion that ends a round: d = 3 always
    deletes from the highest occupied class (with the ``improvement``
    correction terms at top class 4), while d = 4 runs the probe step once
    classes 6 and 7 are empty.
    """
    rounds = 0
    status = STATUS_BUDGET
    while rounds < max_rounds:
        if not (v3 if d == 3 else v4) > eps:
            status = STATUS_STOPPED
            break
        rounds += 1

        # Open-edge mass, counting only classes above the dust threshold.
        s = 0.0
        if v3 > eps:
            s += 3 * v3
        if v4 > eps:
            s += 4 * v4
        if v5 > eps:
            s += 5 * v5
        if v6 > eps:
            s += 6 * v6
        if v7 > eps:
            s += 7 * v7

        # Redistribute the erasure backlog: every hit moves a vertex one
        # degree class down.  Ascending order so each class is read before
        # the class above it spills into it.
        if erase > eps:
            r = (erase + eps) / s
            if v3 > eps:
                dl = r * 3 * v3
                v3 -= dl
                v2 += dl
            if v4 > eps:
                dl = r * 4 * v4
                v4 -= dl
                v3 += dl
            if v5 > eps:
                dl = r * 5 * v5
                v5 -= dl
                v4 += dl
            if v6 > eps:
                dl = r * 6 * v6
                v6 -= dl
                v5 += dl
            if v7 > eps:
                dl = r * 7 * v7
                v7 -= dl
                v6 += dl
            erase = -eps

        s = 0.0
        if v3 > eps:
            s += 3 * v3
        if v4 > eps:
            s += 4 * v4
        if v5 > eps:
            s += 5 * v5
        if v6 > eps:
            s += 6 * v6
        if v7 > eps:
            s += 7 * v7

        # Contract at 2-vertices: pick two open-edge endpoints with
        # probability proportional to degree, merge into one vertex of
        # degree i+j-2; merged degree beyond 7 turns into erasures.
        if v2 > eps:
            if not s > 0.0:
                status = STATUS_EXHAUSTED
                break
            r = (v2 + eps) / s
            e3 = 3 * v3
            e4 = 4 * v4
            e5 = 5 * v5
            e6 = 6 * v6
            e7 = 7 * v7
            a4 = e3 * e3
            a5 = e3 * e4 + e4 * e3
            a6 = e3 * e5 + e4 * e4 + e5 * e3
            a7 = e3 * e6 + e4 * e5 + e5 * e4 + e6 * e3
            a8 = e3 * e7 + e4 * e6 + e5 * e5 + e6 * e4 + e7 * e3
            a9 = e4 * e7 + e5 * e6 + e6 * e5 + e7 * e4
            a10 = e5 * e7 + e6 * e6 + e7 * e5
            a11 = e6 * e7 + e7 * e6
            a12 = e7 * e7
            independent += v2 + eps
            v2 = -eps
            v3 = v3 + r * (0.0 / s - 2 * 3 * v3)
            v4 = v4 + r * (a4 / s - 2 * 4 * v4)
            v5 = v5 + r * (a5 / s - 2 * 5 * v5)
            v6 = v6 + r * (a6 / s - 2 * 6 * v6)
            v7 = v7 + r * (a7 / s - 2 * 7 * v7)
            erase += 8 * r * a8 / s
            erase += 9 * r * a9 / s
            erase += 10 * r * a10 / s
            erase += 11 * r * a11 / s
            erase += 12 * r * a12 / s

        # Find the highest occupied degree class: down to 4 for d = 3, and
        # down to 5 for d = 4, where 5 means the probe step.
        mx = 7
        if v7 < eps:
            mx = 6
            if v6 < eps:
                mx = 5
                if d == 3 and v5 < eps:
                    mx = 4
        if d == 4 and mx == 5:
            # Probe step: delete a 3-vertex if all of its three neighbours
            # have degree 3, otherwise delete its highest-degree neighbour
            # and contract at the now 2-valent probe vertex.  Negative-dust
            # classes can empty this pool in the terminal rounds.
            den = 3 * v3 + 4 * v4 + 5 * v5
            if not den > 0.0:
                status = STATUS_EXHAUSTED
                break
            rat3 = 3 * v3 / den
            rat4 = 4 * v4 / den
            rat5 = 5 * v5 / den
            v2 += eps * 3 * rat3 * rat3 * rat3
            v3 += eps * (-1 - 3 * rat3)
            v4 += eps * 3 * (-rat4 + rat3 * rat3 * (1 - rat3))
            v5 += eps * 3 * (-rat5 + rat3 * rat4 * (rat4 + 2 * rat5))
            independent += eps * (1 - rat3 * rat3 * rat3)
            erase += eps * (6 - 12 * rat3 * rat3 + 6 * rat3 * rat3 * rat3
                            + (15 * rat3 * rat4 + 3) * (rat4 + 2 * rat5))
        else:
            # Delete 2*eps mass from the highest occupied degree class.
            if mx == 7:
                v7 -= 2 * eps
            elif mx == 6:
                v6 -= 2 * eps
            elif mx == 5:
                v5 -= 2 * eps
            else:
                v4 -= 2 * eps
            erase += 2 * mx * eps

        # Four-neighbour correction terms, applied only once the 4-class is
        # the top occupied class.  The draw probabilities use s as measured
        # before this round's contractions (the deleted vertex's neighbours
        # were sampled against that pool).
        if improvement and mx == 4:
            x = 4 * v4 / s
            p4444 = 2 * eps * x * x * x * x
            v3 -= 4 * p4444
            erase += 12 * p4444
            independent += p4444
            x = 4 * v4 / s
            p4443 = 8 * eps * x * x * x * 3 * v3 / s
            v3 -= 3 * p4443
            v2 -= p4443
            erase += 11 * p4443
            independent += p4443
            x = 12 * v4 * v3 / s / s
            p4433 = 12 * eps * x * x
            v4 += p4433
            v3 -= 2 * p4433
            v2 -= 2 * p4433
            erase += 6 * p4433
            independent += p4433

        lo = -8.0 * eps
        hi = 1.0 + 8.0 * eps
        if not (v2 >= lo and v2 <= hi and v3 >= lo and v3 <= hi
                and v4 >= lo and v4 <= hi and v5 >= lo and v5 <= hi
                and v6 >= lo and v6 <= hi and v7 >= lo and v7 <= hi):
            status = STATUS_INVALID
            break
        if not (independent >= -1e-12 and independent <= 0.5 + 8 * eps):
            status = STATUS_INVALID
            break
        if not (erase >= lo and erase <= 1.0):
            status = STATUS_INVALID
            break
    return v2, v3, v4, v5, v6, v7, independent, erase, rounds, status


def _cut_chunk(rat2, rat3, good, bad, eps, linear, max_rounds):
    """Advance the max-cut recurrence by up to max_rounds rounds; the run
    stops once rat2 + rat3 falls to ``eps``.

    ``linear`` selects the action-rate route: the per-round rates come from
    eliminating the six-equation action system and are rescaled by the pool
    polynomial, instead of using the pre-expanded polynomials directly.  The
    two routes must agree to rounding; keeping both guards the polynomial
    transcription.
    """
    rounds = 0
    status = STATUS_BUDGET
    while rounds < max_rounds:
        if not rat2 + rat3 > eps:
            status = STATUS_STOPPED
            break
        rounds += 1

        den = 2 * rat2 + 3 * rat3
        if not den > 0.0:
            status = STATUS_EXHAUSTED
            break
        q = rat2 / den
        q2 = q * q
        q3 = q2 * q
        q4 = q2 * q2
        q5 = q4 * q
        # open-edge pool polynomial D: both routes lower rat3 by eps * D,
        # and the linear route rescales its per-plain-vertex rates by it
        d_pool = 2 - 4 * q - 4 * q2 + 8 * q3 + 2 * q4 - 4 * q5

        if linear:
            # Direct elimination on the six action-count equations with
            # c_R temporarily pinned to 1, then rescaled so the plain-vertex
            # consumption rate is exactly one vertex per unit time.
            t = 1.0
            c_rr = q * t
            c_3rr = 2 * q * (1 - 2 * q) * t / (1 - q * q)
            c_3r = (1 - 2 * q) * t + q * c_3rr
            r_act = q * (2 * t + c_3r + c_3rr + c_rr + 2 * q * c_rr) \
                / (1 - q - 2 * q * q)
            w_act = q * (r_act + c_rr)
            scale = 1.0 / ((1 - 2 * q)
                           * (t + r_act + c_3r + c_3rr + c_rr + w_act))
            c_r = t * scale
            r_act = r_act * scale
            c_3r = c_3r * scale
            c_3rr = c_3rr * scale
            c_rr = c_rr * scale
            w_act = w_act * scale
            total = c_r + r_act + c_3r + c_3rr + c_rr + w_act
            v_r = -c_r - 2 * q * total + (1 - 2 * q) * (r_act + c_3rr) \
                + (2 - 3 * q) * c_3r + q * c_rr
            g_rate = 3 * q * c_r + 4 * q * r_act + (1 + q) * c_3r \
                + (4 + q) * c_3rr + 8 * q * c_rr + w_act
            b_rate = q * r_act + c_3rr + 2 * q * c_rr
            rat2 += eps * (d_pool * v_r)
            good += eps * (d_pool * g_rate)
            bad += eps * (d_pool * b_rate)
        else:
            rat2 += eps * (1 - 8 * q + 4 * q2 + 8 * q3 + 3 * q4 - 10 * q5)
            good += eps * (1 + 8 * q - 11 * q2 - 6 * q3 + 12 * q5)
            bad += eps * q * (1 - q) * (1 - q) * (2 + q + 2 * q2)
        rat3 -= eps * d_pool

        lo = -8.0 * eps
        hi = 1.0 + 8.0 * eps
        if not (rat2 >= lo and rat2 <= hi and rat3 >= lo and rat3 <= hi):
            status = STATUS_INVALID
            break
        # conservation law of the closed-form rates: g + b = 1.5 D - 2 v_R
        if not (good >= -1e-12 and bad >= -1e-12
                and -1e-9 <= good + bad + 2 * rat2 + 1.5 * rat3 - 1.5 <= 1e-9):
            status = STATUS_INVALID
            break
    return rat2, rat3, good, bad, rounds, status


def _maybe_jit(fn):
    try:
        from numba import njit
    except ImportError:
        return fn
    return njit(cache=True, fastmath=False)(fn)


is_chunk = _maybe_jit(_is_chunk)
cut_chunk = _maybe_jit(_cut_chunk)
