"""Composed operations and rate rules of the independent-set processes."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from girthlocal import _kernels
from girthlocal.evolution_core import (
    STATUS_EXHAUSTED,
    EvolutionParams,
    ProcessExhausted,
    _python_chunk,
)
from girthlocal.is_evolution import (
    DegreeState,
    Is3Rules,
    Is4Rules,
    apply_contractions,
    initial_degree_state,
    is3_delete_step,
    is4_special_step,
    mu_of_lambda,
    open_edge_mass,
    phase1_rates,
    redistribute_erasures,
)

TINY = 1e-9


def state_of(**classes) -> DegreeState:
    v = np.zeros(8)
    for name, mass in classes.items():
        v[int(name[1:])] = mass
    return DegreeState(v=v)


# --- erasure redistribution ------------------------------------------------

def test_redistribute_moves_hits_one_class_down():
    st = state_of(v3=1.0)
    st.erase = 0.3
    redistribute_erasures(st, TINY)
    assert st.v[3] == pytest.approx(0.7, abs=1e-8)
    assert st.v[2] == pytest.approx(0.3, abs=1e-8)
    assert st.erase == -TINY


def test_redistribute_with_empty_backlog_is_noop():
    st = state_of(v3=1.0)
    before = st.v.copy()
    redistribute_erasures(st, TINY)
    assert (st.v == before).all() and st.erase == 0.0


def test_redistribute_splits_proportionally_to_open_edges():
    st = state_of(v3=0.5, v4=0.5)
    st.erase = 0.07
    redistribute_erasures(st, TINY)
    # open-edge mass 3.5; class 4 takes 2.0/3.5 of the hits, class 3 takes 1.5/3.5
    assert st.v[4] == pytest.approx(0.5 - 0.04, abs=1e-8)
    assert st.v[3] == pytest.approx(0.5 - 0.03 + 0.04, abs=1e-8)
    assert st.v[2] == pytest.approx(0.03, abs=1e-8)


def test_redistribute_with_no_open_edges_raises():
    st = state_of()
    st.erase = 0.1
    with pytest.raises(ProcessExhausted):
        redistribute_erasures(st, TINY)


@given(st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5),
       st.floats(0.001, 0.5))
def test_redistribute_conserves_vertex_mass(masses, backlog):
    v = np.zeros(8)
    v[3:8] = masses
    state = DegreeState(v=v, erase=backlog)
    total = state.v.sum()
    redistribute_erasures(state, TINY)
    assert state.v.sum() == pytest.approx(total, rel=1e-12)


# --- contractions ----------------------------------------------------------

def test_contraction_merges_two_3_neighbours_into_a_4():
    c = 0.1
    st = state_of(v3=1.0, v2=c)
    apply_contractions(st, TINY)
    assert st.independent == pytest.approx(c, abs=1e-8)
    assert st.v[2] == -TINY
    assert st.v[4] == pytest.approx(c, abs=1e-8)
    assert st.v[3] == pytest.approx(1.0 - 2 * c, abs=1e-8)
    assert st.erase == 0.0


def test_contraction_with_no_2_mass_is_noop():
    st = state_of(v3=1.0)
    apply_contractions(st, TINY)
    assert st.v[3] == 1.0 and st.independent == 0.0


def test_contraction_beyond_cap_becomes_erasures():
    c = 0.02
    st = state_of(v7=1.0, v2=c)
    apply_contractions(st, TINY)
    # merged degree 12 is untracked: all twelve edges turn into erasures
    assert st.erase == pytest.approx(12 * c, abs=1e-7)
    assert st.v[7] == pytest.approx(1.0 - 2 * c, abs=1e-7)
    assert (st.v[3:7] == 0.0).all()


def test_contraction_with_no_open_edges_raises():
    st = state_of(v2=0.5)
    with pytest.raises(ProcessExhausted):
        apply_contractions(st, TINY)


@given(st.floats(0.01, 0.3), st.floats(0.1, 1.0), st.floats(0.0, 1.0))
def test_contraction_banks_exactly_the_2_mass(c, m3, m4):
    state = state_of(v3=m3, v4=m4, v2=c)
    apply_contractions(state, TINY)
    assert state.independent == pytest.approx(c + TINY, rel=1e-12)
    assert state.v[2] == -TINY


def test_contraction_generalizes_past_cap_7():
    # same update at a higher cap: degree 8+8-2 = 14 overflows cap 9
    v = np.zeros(10)
    v[8] = 1.0
    v[2] = 0.05
    state = DegreeState(v=v)
    apply_contractions(state, TINY)
    assert state.erase == pytest.approx(14 * 0.05, abs=1e-6)


# --- the 3-regular delete step ----------------------------------------------

def test_delete_takes_from_highest_occupied_class():
    eps = 1e-3
    st = state_of(v3=0.5, v4=0.2, v6=0.1)
    is3_delete_step(st, eps, improvement=False)
    assert st.v[6] == pytest.approx(0.1 - 2 * eps)
    assert st.erase == pytest.approx(12 * eps)
    assert st.v[3] == 0.5 and st.v[4] == 0.2


def test_delete_without_improvement_skips_corrections():
    eps = 1e-3
    st = state_of(v4=0.5)
    is3_delete_step(st, eps, improvement=False)
    assert st.v[4] == pytest.approx(0.5 - 2 * eps)
    assert st.erase == pytest.approx(8 * eps)
    assert st.independent == 0.0 and st.v[3] == 0.0


def test_delete_on_empty_state_raises():
    st = state_of()
    with pytest.raises(ProcessExhausted):
        is3_delete_step(st, TINY)


def test_delete_improvement_corrections_frozen_values():
    # top class 4 with neighbours drawn from pool 3*0.25 + 4*0.5 = 2.75;
    # the three correction terms were frozen from a hand-checked run
    eps = 1e-3
    st = state_of(v3=0.25, v4=0.5)
    is3_delete_step(st, eps, improvement=True)
    assert float(st.v[2]) == pytest.approx(-0.0017239546526169663, rel=1e-13)
    assert float(st.v[3]) == pytest.approx(0.24442964220907254, rel=1e-13)
    assert float(st.v[4]) == pytest.approx(0.49845100234167244, rel=1e-13)
    assert float(st.independent) == pytest.approx(0.0018235781108861134, rel=1e-13)
    assert float(st.erase) == pytest.approx(0.02635497331132653, rel=1e-13)


def test_delete_improvement_skipped_when_top_class_above_4():
    eps = 1e-3
    st = state_of(v3=0.3, v4=0.3, v5=0.3)
    is3_delete_step(st, eps, improvement=True)
    assert st.v[5] == pytest.approx(0.3 - 2 * eps)
    assert st.independent == 0.0  # corrections only apply at top class 4


# --- the 4-regular probe step -----------------------------------------------

def test_probe_all_3_neighbours_deletes_the_probe():
    eps = 1e-3
    st = state_of(v3=0.5)
    is4_special_step(st, eps)
    assert st.v[3] == pytest.approx(0.5 - 4 * eps)
    assert st.v[2] == pytest.approx(3 * eps)
    assert st.independent == 0.0
    assert st.erase == pytest.approx(0.0, abs=1e-15)


def test_probe_mixed_neighbourhood_banks_independent_mass():
    eps = 1e-3
    # 3*(2/3) = 4*(1/2): rat3 = rat4 = 1/2
    st = state_of(v3=2 / 3, v4=1 / 2)
    is4_special_step(st, eps)
    assert st.independent == pytest.approx(0.875 * eps, rel=1e-12)


def test_probe_presumes_a_3_class_to_probe():
    # with only 5-vertices the step has no probe vertex to act on; it
    # documents its precondition by pushing v3 negative
    eps = 1e-3
    st = state_of(v5=0.5)
    is4_special_step(st, eps)
    assert st.v[3] == pytest.approx(-eps)


def test_probe_with_empty_pool_raises():
    st = state_of()
    with pytest.raises(ProcessExhausted):
        is4_special_step(st, TINY)


# --- phase-1 closed forms ----------------------------------------------------

def test_mu_of_lambda_anchors():
    assert mu_of_lambda(0.0) == 0.0
    assert mu_of_lambda(1.0) == 1.0
    assert mu_of_lambda(1 / 3) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        mu_of_lambda(-0.1)
    with pytest.raises(ValueError):
        mu_of_lambda(1.1)


def test_phase1_rates_at_zero():
    r = phase1_rates(0.0)
    assert (r.edge_deletions, r.contractions) == (4.0, 4.0)
    assert (r.delta_v3, r.delta_v4) == (-12.0, 3.0)


def test_phase1_rates_at_half_decade():
    r = phase1_rates(0.05)
    assert r.edge_deletions == pytest.approx(4 / 0.51, rel=1e-12)


def test_phase1_rates_boundary():
    boundary = (10 - math.sqrt(84)) / 8
    phase1_rates(boundary - 1e-9)
    with pytest.raises(ValueError):
        phase1_rates(boundary + 1e-9)


@given(st.floats(0.0, 0.104))
def test_phase1_contractions_follow_edge_deletions(mu):
    r = phase1_rates(mu)
    assert r.contractions == pytest.approx((1 - mu) * r.edge_deletions,
                                           rel=1e-12)


# --- kernel / composed-op equivalence ----------------------------------------

compiled = pytest.mark.skipif(_kernels.BACKEND != "c",
                              reason="no C compiler: run_chunk needs it")


@compiled
@pytest.mark.parametrize("improvement", [True, False])
def test_kernel_matches_composed_ops_when_classes_3_to_7_are_empty(
        improvement):
    # in range, but redistribution empties the 3-class and no class 3-7 is
    # left above eps: the composed delete step reports exhaustion
    eps = 1e-5
    rules = Is3Rules(improvement=improvement)
    params = EvolutionParams(step_size=eps)
    results = []
    for run in (_python_chunk, type(rules).run_chunk):
        state = state_of(v2=-5 * eps, v3=1.5 * eps)
        state.independent, state.erase = 0.1, 1.1 * eps
        assert rules.state_in_range(state, params)
        rounds, status = run(rules, state, params, 100)
        results.append((rules.snapshot(state), rounds, status))
    assert results[0] == results[1]
    assert results[0][1:] == (1, STATUS_EXHAUSTED)


# --- misc -------------------------------------------------------------------

def test_initial_state_validation():
    with pytest.raises(ValueError):
        initial_degree_state(1)
    with pytest.raises(ValueError):
        initial_degree_state(8)
    st = initial_degree_state(4)
    assert st.v[4] == 1.0 and st.v.sum() == 1.0 and len(st.v) == 8


def test_open_edge_mass_skips_dust():
    st = state_of(v3=0.5, v4=1e-12)
    assert open_edge_mass(st, 1e-9) == pytest.approx(1.5)


def test_rules_snapshot_and_columns_align():
    params = EvolutionParams(step_size=1e-5)
    for rules in (Is3Rules(), Is4Rules()):
        cols = rules.columns(params)
        snap = rules.snapshot(rules.initial_state(params))
        assert len(cols) == len(snap)
        assert cols[0] == "independent"
        assert cols[2:] == tuple(f"v{d}" for d in range(2, 8))
