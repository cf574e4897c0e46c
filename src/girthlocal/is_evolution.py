"""Rate rules for the 3- and 4-regular independent-set evolution processes.

The state tracks, per unit of original vertex count, the mass of surviving
vertices in each degree class from 2 to ``DEGREE_CAP`` = 7, the accumulated
independent-set mass, and a backlog of open-edge erasures awaiting
redistribution (merged degrees beyond 7 are not tracked: they turn into
erasures).  One round of the process is: redistribute the erasure backlog,
contract away the 2-vertex mass, then delete a 2*eps slice from the highest
occupied degree class (with optional four-neighbour correction terms for the
3-regular process, and a probe step instead for the 4-regular one).

The composed operations below are the reference semantics of one round; the
C chunk kernel ``_kernels.is_chunk`` runs both processes and is arithmetically
identical to them (pinned by tests).  Without a compiled kernel the integrator
steps the composed operations itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .evolution_core import EvolutionParams, ProcessExhausted

__all__ = [
    "DegreeState",
    "Phase1Rates",
    "Is3Rules",
    "Is4Rules",
    "initial_degree_state",
    "open_edge_mass",
    "redistribute_erasures",
    "apply_contractions",
    "is3_delete_step",
    "is4_special_step",
    "mu_of_lambda",
    "phase1_rates",
]

# highest tracked degree class (DEGREE_CAP of the chunk kernel too, pinned by
# a test); merged degrees past it become erasures here and are deleted
# outright in is_local_algorithm
DEGREE_CAP = 7


@dataclass
class DegreeState:
    """Survival-mass-by-degree state of an independent-set evolution run.

    ``v[d]`` is the proportion of the original vertex count that currently
    survives with degree d; slots 0 and 1 exist but stay zero.  ``independent``
    accumulates selected mass and ``erase`` is the pending open-edge deletion
    backlog (held at -step_size between rounds, as the update rules expect).
    """

    v: np.ndarray
    independent: float = 0.0
    erase: float = 0.0


def initial_degree_state(start_degree: int) -> DegreeState:
    """All mass in one degree class, accumulators zero."""
    if not 2 <= start_degree <= DEGREE_CAP:
        raise ValueError("start_degree outside tracked range")
    v = np.zeros(DEGREE_CAP + 1)
    v[start_degree] = 1.0
    return DegreeState(v=v)


def open_edge_mass(state: DegreeState, threshold: float) -> float:
    """Total open-edge mass over degree classes above the dust threshold."""
    v = state.v
    s = 0.0
    for d in range(3, len(v)):
        if v[d] > threshold:
            s += d * v[d]
    return s


def redistribute_erasures(state: DegreeState, step_size: float) -> DegreeState:
    """Spend the erasure backlog, moving hit vertices one degree class down.

    Hits land on degree classes proportionally to their open-edge mass
    d*v[d].  No-op when the backlog is at or below the dust threshold;
    afterwards the backlog is reset to the resting value -step_size.
    """
    eps = step_size
    if not state.erase > eps:
        return state
    v = state.v
    s = open_edge_mass(state, eps)
    if not s > 0.0:
        raise ProcessExhausted(
            "erasure backlog pending but no open edges remain")
    r = (state.erase + eps) / s
    for d in range(3, len(v)):
        if v[d] > eps:
            dl = r * d * v[d]
            v[d] -= dl
            v[d - 1] += dl
    state.erase = -eps
    return state


def apply_contractions(state: DegreeState, step_size: float) -> DegreeState:
    """Consume the 2-vertex mass by contraction.

    Each unit of 2-vertex mass picks two open-edge endpoints (probability
    proportional to d*v[d]) and merges them into a single vertex of degree
    i+j-2, adding the contracted mass to ``independent``.  Merged degrees
    beyond the cap are not tracked: their full degree converts to erasures.
    The open-edge mass is measured on entry.
    """
    eps = step_size
    v = state.v
    if not v[2] > eps:
        return state
    s = open_edge_mass(state, eps)
    if not s > 0.0:
        raise ProcessExhausted(
            "contraction pending but no open edges remain")
    cap = len(v) - 1
    r = (v[2] + eps) / s
    edge = [0.0] * (cap + 1)
    for d in range(3, cap + 1):
        edge[d] = d * v[d]
    add = [0.0] * (2 * cap - 1)
    for i in range(3, cap + 1):
        for j in range(3, cap + 1):
            add[i + j - 2] += edge[i] * edge[j]
    state.independent += v[2] + eps
    v[2] = -eps
    for d in range(3, cap + 1):
        v[d] = v[d] + r * (add[d] / s - 2 * d * v[d])
    for m in range(cap + 1, 2 * cap - 1):
        state.erase += m * r * add[m] / s
    return state


def _delete_top_class(state: DegreeState, eps: float, floor: int) -> int:
    """Delete 2*eps mass from the highest class above ``floor`` holding at
    least eps (from ``floor`` itself when none does); returns that class."""
    v = state.v
    mx = len(v) - 1
    while mx > floor and v[mx] < eps:
        mx -= 1
    v[mx] -= 2 * eps
    state.erase += 2 * mx * eps
    return mx


def is3_delete_step(state: DegreeState, step_size: float,
                    improvement: bool = True,
                    edge_pool: float | None = None) -> DegreeState:
    """Delete 2*eps mass from the highest occupied degree class (3-regular).

    When the top occupied class is 4 and ``improvement`` is set, also apply
    the three correction terms for the deleted vertex's neighbourhood: all
    four neighbours of degree 4; three of degree 4 and one of degree 3; and
    two of each.  The draw probabilities use ``edge_pool``, the open-edge
    mass the neighbours were sampled against (measured on entry by default;
    the full round supplies its pre-contraction pool).
    """
    eps = step_size
    v = state.v
    if not any(x > eps for x in v[3:]):
        raise ProcessExhausted("no occupied degree class at or above 3")
    if improvement and edge_pool is None:
        edge_pool = open_edge_mass(state, eps)
    mx = _delete_top_class(state, eps, 4)
    if improvement and mx == 4:
        s = edge_pool
        if not s > 0.0:
            raise ProcessExhausted(
                "correction terms need a non-empty open-edge pool")
        x = 4 * v[4] / s
        p4444 = 2 * eps * x * x * x * x
        v[3] -= 4 * p4444
        state.erase += 12 * p4444
        state.independent += p4444
        p4443 = 8 * eps * x * x * x * 3 * v[3] / s
        v[3] -= 3 * p4443
        v[2] -= p4443
        state.erase += 11 * p4443
        state.independent += p4443
        x = 12 * v[4] * v[3] / s / s
        p4433 = 12 * eps * x * x
        v[4] += p4433
        v[3] -= 2 * p4433
        v[2] -= 2 * p4433
        state.erase += 6 * p4433
        state.independent += p4433
    return state


def is4_special_step(state: DegreeState, step_size: float) -> DegreeState:
    """Probe step of the 4-regular process.

    A 3-vertex is examined; if all three neighbours are 3-vertices it is
    deleted outright, otherwise its highest-degree neighbour is deleted and
    the probe vertex is contracted away.  rat_i is the probability that a
    uniformly random open edge at degrees 3-5 ends at a degree-i vertex.
    """
    eps = step_size
    v = state.v
    den = 3 * v[3] + 4 * v[4] + 5 * v[5]
    if not den > 0.0:
        raise ProcessExhausted("no open edges at degrees 3-5")
    rat3 = 3 * v[3] / den
    rat4 = 4 * v[4] / den
    rat5 = 5 * v[5] / den
    v[2] += eps * 3 * rat3 * rat3 * rat3
    v[3] += eps * (-1 - 3 * rat3)
    v[4] += eps * 3 * (-rat4 + rat3 * rat3 * (1 - rat3))
    v[5] += eps * 3 * (-rat5 + rat3 * rat4 * (rat4 + 2 * rat5))
    state.independent += eps * (1 - rat3 * rat3 * rat3)
    state.erase += eps * (6 - 12 * rat3 * rat3 + 6 * rat3 * rat3 * rat3
                          + (15 * rat3 * rat4 + 3) * (rat4 + 2 * rat5))
    return state


def mu_of_lambda(lam: float) -> float:
    """Edge-endpoint probability of the 4-class when its vertex share is lam."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return 4 * lam / (3 + lam)


@dataclass(frozen=True)
class Phase1Rates:
    """Expected per-unit-deletion changes while only degrees 3-4 are occupied.

    ``mu`` is the probability a random open edge ends at a 4-vertex.  The
    rates are expected counts per unit of deleted 4-vertex mass; they are a
    diagnostic overlay for cross-checking the integrator, never used to
    advance it.
    """

    mu: float
    edge_deletions: float
    contractions: float
    delta_v3: float
    delta_v4: float


def phase1_rates(mu: float) -> Phase1Rates:
    """Closed-form early-phase rates; defined only while (10-4*mu)*mu < 1."""
    den = 1 - (10 - 4 * mu) * mu
    if not den > 0.0:
        raise ValueError(
            "out of the early-phase range: (10-4*mu)*mu must stay below 1")
    return Phase1Rates(
        mu=mu,
        edge_deletions=4 / den,
        contractions=4 * (1 - mu) / den,
        delta_v3=(4 * mu - 4 * (1 - mu) * (3 - 2 * mu)) / den,
        delta_v4=(4 * (1 - mu) ** 3 - 4 * mu - 1) / den,
    )


class _IsRulesBase:
    monotone_columns = ("independent",)
    start_degree: int  # the regular degree; the run stops when v[d] is spent

    def columns(self, params: EvolutionParams):
        return ("independent", "erase") + tuple(
            f"v{d}" for d in range(2, DEGREE_CAP + 1))

    def initial_state(self, params: EvolutionParams) -> DegreeState:
        return initial_degree_state(self.start_degree)

    def done(self, state: DegreeState, params: EvolutionParams) -> bool:
        return not state.v[self.start_degree] > params.step_size

    def snapshot(self, state: DegreeState):
        return (float(state.independent), float(state.erase)) + tuple(
            float(x) for x in state.v[2:])

    def state_in_range(self, state: DegreeState, params: EvolutionParams):
        eps = params.step_size
        lo = -8.0 * eps
        hi = 1.0 + 8.0 * eps
        for x in state.v[2:]:
            if not (x >= lo and x <= hi):
                return False
        if not (state.independent >= -1e-12
                and state.independent <= 0.5 + 8 * eps):
            return False
        return state.erase >= lo and state.erase <= 1.0

    def _run_kernel(self, state: DegreeState, params: EvolutionParams,
                    max_rounds, improvement: bool):
        buf = np.empty(DEGREE_CAP + 1)
        buf[:-2] = state.v[2:]
        buf[-2:] = state.independent, state.erase
        out = _kernels.is_chunk(buf, params.step_size, self.start_degree,
                                improvement, int(max_rounds))
        state.v[2:] = buf[:-2]
        state.independent, state.erase = buf[-2:].tolist()
        return out


@dataclass
class Is3Rules(_IsRulesBase):
    """One-round update rules of the 3-regular independent-set process."""

    improvement: bool = True
    start_degree = 3

    def step(self, state: DegreeState, params: EvolutionParams) -> None:
        eps = params.step_size
        redistribute_erasures(state, eps)
        pool = open_edge_mass(state, eps)
        apply_contractions(state, eps)
        is3_delete_step(state, eps, self.improvement, edge_pool=pool)

    def run_chunk(self, state, params, max_rounds):
        return self._run_kernel(state, params, max_rounds, self.improvement)


@dataclass
class Is4Rules(_IsRulesBase):
    """One-round update rules of the 4-regular independent-set process."""

    start_degree = 4

    def step(self, state: DegreeState, params: EvolutionParams) -> None:
        eps = params.step_size
        redistribute_erasures(state, eps)
        apply_contractions(state, eps)
        if all(x < eps for x in state.v[6:]):  # only classes 3-5 are left
            is4_special_step(state, eps)
        else:
            _delete_top_class(state, eps, 6)

    def run_chunk(self, state, params, max_rounds):
        return self._run_kernel(state, params, max_rounds, False)
