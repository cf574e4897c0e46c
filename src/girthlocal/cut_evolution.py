"""Rate rules for the 3-regular max-cut evolution process.

The state is one-dimensional in essence: rat2 is the combined mass of
colored-neighbor 2-vertices ([R] and [G] together), rat3 the mass of plain
3-vertices, and good/bad count classified edges per original vertex.  Each
round consumes mass at rates that depend only on q, the probability that a
uniformly random open edge leads to a colored 2-vertex of one fixed color.

Two interchangeable rate routes are kept deliberately:

* ``closed_form`` evaluates pre-expanded polynomials in q;
* ``linear_solve`` eliminates the six-equation action-count system from
  scratch each round and rescales by the pool polynomial D(q).

They must agree to rounding; divergence means one of the transcriptions is
wrong.  As in ``is_evolution``, the expressions here mirror the C chunk
kernel in ``_kernels`` exactly, and the integrator steps them without it.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .evolution_core import EvolutionParams, ProcessExhausted

__all__ = [
    "CutEvolutionState",
    "CutRates",
    "CutRules",
    "CUT_MODES",
    "edge_probability",
    "solve_cut_rates",
    "closed_form_rates",
    "cut_step",
]

CUT_MODES = ("closed_form", "linear_solve")


@dataclass
class CutEvolutionState:
    """State of the max-cut evolution run (starts as all plain 3-vertices)."""

    rat2: float = 0.0
    rat3: float = 1.0
    good: float = 0.0
    bad: float = 0.0


@dataclass(frozen=True)
class CutRates:
    """Instantaneous per-plain-vertex rates at edge probability p.

    The action counts c_R, r, c_3R, c_3RR, c_RR, w are the expected numbers
    of each processing action per consumed plain vertex; v_R is the rate of
    change of the colored-2-vertex mass, g and b the good/bad edge creation
    rates.  plain_rate is -1 by construction (the normalization consumes
    exactly one plain vertex per unit time).
    """

    p: float
    c_R: float
    r: float
    c_3R: float
    c_3RR: float
    c_RR: float
    w: float
    v_R: float
    g: float
    b: float
    plain_rate: float = -1.0

    def action_counts(self):
        return (self.c_R, self.r, self.c_3R, self.c_3RR, self.c_RR, self.w)


def edge_probability(rat2: float, rat3: float) -> float:
    """q: chance a random open edge leads to a colored 2-vertex of one color.

    2-vertices hold one open edge each (half of them per fixed color),
    3-vertices three; raises :class:`ProcessExhausted` when no open edges
    remain.
    """
    den = 2 * rat2 + 3 * rat3
    if not den > 0.0:
        raise ProcessExhausted("no open edges remain")
    return rat2 / den


def solve_cut_rates(p: float) -> CutRates:
    """Solve the six action-count equations at edge probability p.

    Direct elimination: the equations triangularize once c_R is pinned, so
    each unknown follows from the previous ones; the normalization then
    rescales everything so plain-vertex consumption is exactly one per unit
    time.  Exists as an independent derivation of the closed-form
    polynomials (divided by the pool polynomial D).
    """
    if not 0.0 <= p < 0.5:
        raise ValueError("edge probability must lie in [0, 0.5)")
    q = p
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
    return CutRates(p=p, c_R=c_r, r=r_act, c_3R=c_3r, c_3RR=c_3rr,
                    c_RR=c_rr, w=w_act, v_R=v_r, g=g_rate, b=b_rate)


def closed_form_rates(p: float):
    """Evaluate the pre-expanded rate polynomials: (v_R, g, b, D).

    D is the open-edge pool polynomial; the un-normalized evolution uses
    rates v_R, -D, g, b for rat2, rat3, good, bad.  Dividing the first
    three by D recovers the per-plain-vertex rates of solve_cut_rates.
    """
    q = p
    q2 = q * q
    q3 = q2 * q
    q4 = q2 * q2
    q5 = q4 * q
    v_R = 1 - 8 * q + 4 * q2 + 8 * q3 + 3 * q4 - 10 * q5
    g = 1 + 8 * q - 11 * q2 - 6 * q3 + 12 * q5
    b = q * (1 - q) * (1 - q) * (2 + q + 2 * q2)
    D = 2 - 4 * q - 4 * q2 + 8 * q3 + 2 * q4 - 4 * q5
    return v_R, g, b, D


def cut_step(state: CutEvolutionState, step_size: float,
             mode: str = "closed_form") -> CutEvolutionState:
    """One round of the cut evolution, in either rate mode.

    Both modes advance by the un-normalized rates (rat3 changes by
    -eps*D(q)), so their trajectories are directly comparable round by
    round, not just at the end.
    """
    if mode not in CUT_MODES:
        raise ValueError(f"mode must be one of {CUT_MODES}")
    eps = step_size
    q = edge_probability(state.rat2, state.rat3)
    v_R, g, _, D = closed_form_rates(q)
    if mode == "linear_solve":
        rates = solve_cut_rates(q)
        state.rat2 += eps * (D * rates.v_R)
        state.good += eps * (D * rates.g)
        state.bad += eps * (D * rates.b)
    else:
        state.rat2 += eps * v_R
        state.good += eps * g
        # eps * b would round differently: keep the kernel's product order
        state.bad += eps * q * (1 - q) * (1 - q) * (2 + q + 2 * (q * q))
    state.rat3 -= eps * D
    return state


@dataclass
class CutRules:
    """One-round update rules of the max-cut evolution process."""

    mode: str = "closed_form"

    def __post_init__(self):
        if self.mode not in CUT_MODES:
            raise ValueError(f"mode must be one of {CUT_MODES}")

    monotone_columns = ("good", "bad")

    def columns(self, params: EvolutionParams):
        return ("good", "bad", "rat3", "rat2")

    def initial_state(self, params: EvolutionParams) -> CutEvolutionState:
        return CutEvolutionState()

    def done(self, state: CutEvolutionState, params: EvolutionParams) -> bool:
        return not state.rat2 + state.rat3 > params.step_size

    def step(self, state: CutEvolutionState, params: EvolutionParams) -> None:
        cut_step(state, params.step_size, self.mode)

    def snapshot(self, state: CutEvolutionState):
        return (float(state.good), float(state.bad),
                float(state.rat3), float(state.rat2))

    def state_in_range(self, state, params: EvolutionParams) -> bool:
        eps = params.step_size
        lo = -8.0 * eps
        hi = 1.0 + 8.0 * eps
        if not (state.rat2 >= lo and state.rat2 <= hi
                and state.rat3 >= lo and state.rat3 <= hi):
            return False
        # conservation law of the closed-form rates: g + b = 1.5 D - 2 v_R
        law = state.good + state.bad + 2 * state.rat2 + 1.5 * state.rat3 - 1.5
        return (state.good >= -1e-12 and state.bad >= -1e-12
                and -1e-9 <= law <= 1e-9)

    def run_chunk(self, state, params, max_rounds):
        out = _kernels.cut_chunk(
            float(state.rat2), float(state.rat3),
            float(state.good), float(state.bad),
            params.step_size, self.mode == "linear_solve", int(max_rounds))
        state.rat2, state.rat3, state.good, state.bad = out[:4]
        return out[4], out[5]
