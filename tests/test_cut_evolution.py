"""Max-cut evolution: rate routes, their identity, and the stepping rules."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from girthlocal import _kernels
from girthlocal.evolution_core import (
    STATUS_BUDGET,
    STATUS_INVALID,
    EvolutionParams,
    ProcessExhausted,
    integrate,
)
from girthlocal.cut_evolution import (
    CUT_MODES,
    CutEvolutionState,
    CutRules,
    closed_form_rates,
    cut_step,
    edge_probability,
    solve_cut_rates,
)


def test_edge_probability_anchors():
    assert edge_probability(0.0, 1.0) == 0.0
    assert edge_probability(1.0, 0.0) == 0.5
    assert edge_probability(0.5, 0.5) == pytest.approx(0.2)
    with pytest.raises(ProcessExhausted):
        edge_probability(0.0, 0.0)


def test_solve_at_zero_is_half_half():
    r = solve_cut_rates(0.0)
    assert (r.c_R, r.c_3R) == (0.5, 0.5)
    assert (r.r, r.c_3RR, r.c_RR, r.w) == (0.0, 0.0, 0.0, 0.0)
    assert (r.v_R, r.g, r.b) == (0.5, 0.5, 0.0)
    assert r.plain_rate == -1.0


def test_solve_near_upper_end_stays_finite_and_nonnegative():
    r = solve_cut_rates(0.49)
    for count in r.action_counts():
        assert np.isfinite(count) and count >= 0.0
    assert r.g >= 0.0 and r.b > 0.0


def test_solve_rejects_out_of_range():
    with pytest.raises(ValueError):
        solve_cut_rates(-0.01)
    with pytest.raises(ValueError):
        solve_cut_rates(0.5)


def test_closed_form_constant_terms():
    assert closed_form_rates(0.0) == (1.0, 1.0, 0.0, 2.0)


def test_closed_form_b_vanishes_at_one():
    _, _, b, _ = closed_form_rates(1.0)
    assert b == 0.0


def test_identity_at_single_point():
    v, g, b, D = closed_form_rates(0.1)
    r = solve_cut_rates(0.1)
    assert v / D == pytest.approx(r.v_R, rel=1e-12)
    assert g / D == pytest.approx(r.g, rel=1e-12)
    assert b / D == pytest.approx(r.b, rel=1e-12)


def test_identity_on_random_sample():
    rng = np.random.default_rng(20240817)
    for p in rng.uniform(0.0, 0.45, 100):
        v, g, b, D = closed_form_rates(float(p))
        r = solve_cut_rates(float(p))
        assert r.v_R * D == pytest.approx(v, rel=1e-10)
        assert r.g * D == pytest.approx(g, rel=1e-10)
        assert r.b * D == pytest.approx(b, rel=1e-10)


def test_elimination_matches_dense_linear_solve():
    # assemble the six action-count equations as an explicit matrix and let
    # numpy solve it: a third, independently derived route
    rng = np.random.default_rng(7)
    for q in rng.uniform(0.0, 0.45, 50):
        A = np.array([
            [-q, 0, 0, 0, 1, 0],
            [-2 * q * (1 - 2 * q), 0, 0, 1 - q * q, 0, 0],
            [-(1 - 2 * q), 0, 1, -q, 0, 0],
            [-2 * q, 1 - q - 2 * q * q, -q, -q, -q * (1 + 2 * q), 0],
            [0, -q, 0, 0, -q, 1],
            [1 - 2 * q] * 6,
        ])
        rhs = np.array([0.0, 0, 0, 0, 0, 1])
        counts = np.linalg.solve(A, rhs)
        r = solve_cut_rates(float(q))
        assert counts == pytest.approx(r.action_counts(), rel=1e-10)


@given(st.floats(0.0, 1.0))
def test_b_poly_factorization(p):
    _, _, b, _ = closed_form_rates(p)
    expanded = 2 * p - 3 * p ** 2 + 2 * p ** 3 - 3 * p ** 4 + 2 * p ** 5
    assert b == pytest.approx(expanded, abs=1e-12)
    assert b >= -1e-15


@given(st.floats(0.0, 0.45))
def test_action_counts_nonnegative_and_b_zero_iff_p_zero(p):
    r = solve_cut_rates(p)
    for count in r.action_counts():
        assert count >= 0.0
    assert r.g >= 0.0
    if p == 0.0:
        assert r.b == 0.0
    elif p > 1e-9:  # below that, b ~ 2p^2 can underflow
        assert r.b > 0.0


def test_pool_polynomial_positive_in_working_range():
    # rat3 strictly decreases while D(q) > 0; D stays positive well past the
    # largest q the evolution visits
    for q in np.linspace(0.0, 0.45, 200):
        assert closed_form_rates(float(q))[3] > 0.0


def test_first_step_from_all_plain():
    eps = 1e-6
    for mode in CUT_MODES:
        state = CutEvolutionState()
        cut_step(state, eps, mode)
        assert state.rat2 == pytest.approx(eps, rel=1e-12)
        assert state.rat3 == pytest.approx(1.0 - 2 * eps, rel=1e-12)
        assert state.good == pytest.approx(eps, rel=1e-12)
        assert state.bad == 0.0


def test_cut_step_rejects_unknown_mode():
    with pytest.raises(ValueError):
        cut_step(CutEvolutionState(), 1e-6, "fast")
    with pytest.raises(ValueError):
        CutRules(mode="fast")


def test_modes_agree_closely_over_full_run():
    finals = {}
    for mode in CUT_MODES:
        rules = CutRules(mode=mode)
        params = EvolutionParams(step_size=1e-5)
        state, _ = integrate(rules.initial_state(params), rules, params)
        finals[mode] = (state.good, state.bad, state.rat2, state.rat3)
    a, b = finals.values()
    assert a == pytest.approx(b, abs=1e-12)


compiled = pytest.mark.skipif(_kernels.BACKEND != "c",
                              reason="no C compiler: run_chunk needs it")


@compiled
@pytest.mark.parametrize("mode", CUT_MODES)
@pytest.mark.parametrize("off", [0.0, 1e-6])
def test_range_check_enforces_the_conservation_law(mode, off):
    # good + bad + 2 rat2 + 1.5 rat3 = 1.5 holds exactly for the rates;
    # a state off it by 1e-6 is invalid even with good + bad well below 1.5
    rules = CutRules(mode=mode)
    params = EvolutionParams(step_size=1e-5)
    state = CutEvolutionState(rat2=0.1, rat3=0.5, good=0.5 + off, bad=0.05)
    assert rules.state_in_range(state, params) == (off == 0.0)
    assert rules.run_chunk(state, params, 1) == \
        (1, STATUS_BUDGET if off == 0.0 else STATUS_INVALID)


def test_good_plus_bad_approaches_three_halves():
    rules = CutRules()
    params = EvolutionParams(step_size=1e-5)
    state, _ = integrate(rules.initial_state(params), rules, params)
    assert state.good + state.bad == pytest.approx(1.5, abs=1e-3)
    assert state.good == pytest.approx(1.34105, abs=1e-4)


def test_trajectory_columns_order():
    rules = CutRules()
    params = EvolutionParams(step_size=1e-4, record_interval=2000)
    _, traj = integrate(rules.initial_state(params), rules, params)
    assert traj.columns == ("round", "good", "bad", "rat3", "rat2")
    rat3 = traj.column("rat3")
    assert all(b < a for a, b in zip(rat3, rat3[1:]))
