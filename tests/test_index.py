"""Closed forms of the one-user subsidized problem.

The grid used throughout matches the one the acceptance suite sweeps:
p in {0.1, 0.3, 0.5, 0.7, 0.9, 1.0} and l in {3, 10, 50}.
"""
import numpy as np
import pytest

from aoisched.errors import RangeError
from aoisched.index import (
    TIE_TOL,
    age_cost,
    cost_pair,
    index_gap,
    optimal_thresholds,
    sched_cost,
    stationary_distribution,
    threshold_costs,
    tie_groups,
    whittle_index,
    whittle_index_table,
)
from aoisched.oracle import stationary_by_balance

P_GRID = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
L_GRID = (3, 10, 50)


def test_whittle_index_examples():
    # W_i = i(i-1)p/2 + i - i(1-p)^(l-i)
    assert whittle_index(1, 1.0, 5) == pytest.approx(1.0)
    assert whittle_index(3, 0.5, 5) == pytest.approx(3 * 0.5 + 3 - 3 * 0.25)
    assert whittle_index(5, 0.5, 5) == pytest.approx(10 * 0.5)
    # age l: the (1-p)^0 term cancels the bare i
    for p in P_GRID:
        for l in L_GRID:
            assert whittle_index(l, p, l) == pytest.approx(l * (l - 1) * p / 2)


def test_index_nonnegative_and_gap_nonnegative():
    for p in P_GRID:
        for l in L_GRID:
            table = whittle_index_table(np.array([p]), l)[0]
            assert table[0] >= 0.0
            for i in range(1, l):
                assert index_gap(i, p, l) >= -1e-12
                assert table[i] - table[i - 1] >= -1e-12


def test_gap_closed_form_matches_difference():
    for p in P_GRID:
        for l in L_GRID:
            for i in range(1, l):
                direct = whittle_index(i + 1, p, l) - whittle_index(i, p, l)
                assert index_gap(i, p, l) == pytest.approx(direct, abs=1e-9)


def test_truncation_tie_is_the_only_zero_gap():
    # gap(i) = (ip+1)(1 - (1-p)^(l-i-1)) vanishes iff i = l-1 when p > 0
    for p in P_GRID:
        for l in L_GRID:
            assert index_gap(l - 1, p, l) == pytest.approx(0.0, abs=1e-15)
            for i in range(1, l - 1):
                assert index_gap(i, p, l) > 1e-9


def test_small_p_uses_stable_power_branch():
    # tiny p must not collapse the (1-p)^x factor to 1
    w = whittle_index(1, 1e-8, 50)
    assert 0.0 < w < 1e-5
    assert np.isfinite(w)


def test_stationary_distribution_matches_balance_oracle():
    for p in P_GRID:
        for l in L_GRID:
            for n in range(1, l + 2):
                closed = stationary_distribution(n, p, l)
                solved = stationary_by_balance(n, p, l)
                assert np.all(closed >= -1e-15)
                assert closed.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.allclose(closed, solved, atol=1e-10)


def test_stationary_never_schedule_is_absorbing_at_l():
    u = stationary_distribution(6, 0.7, 5)
    assert u.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_age_cost_is_stationary_mean_age():
    for p in P_GRID:
        for l in L_GRID:
            for n in range(1, l + 2):
                u = stationary_distribution(n, p, l)
                mean_age = float(np.arange(1, l + 1) @ u)
                assert age_cost(n, p, l) == pytest.approx(mean_age, abs=1e-10)


def test_never_schedule_costs():
    assert age_cost(6, 0.7, 5) == pytest.approx(5.0)
    assert sched_cost(6, 3.0, 0.7, 5) == 0.0
    pair = cost_pair(6, 3.0, 0.7, 5)
    assert pair.total == pytest.approx(5.0)


def test_sched_cost_is_subsidy_times_scheduling_rate():
    for p in (0.3, 0.8):
        l = 10
        for n in range(1, l + 1):
            u = stationary_distribution(n, p, l)
            rate = float(u[n - 1:].sum())
            assert sched_cost(n, 2.5, p, l) == pytest.approx(2.5 * rate, abs=1e-12)


def test_intersection_identity():
    # the index at i makes thresholds i and i+1 cost-equal
    for p in P_GRID:
        for l in L_GRID:
            for i in range(1, l):
                w = whittle_index(i, p, l)
                a = cost_pair(i, w, p, l).total
                b = cost_pair(i + 1, w, p, l).total
                assert abs(a - b) < 1e-9


def test_optimal_thresholds_examples():
    # p=1, l=3: W = (0, 1, 3)... W_1 = 1-1*0 = 1? no: i=1: 0 + 1 - 1*0^2 = 1
    l1, l2 = optimal_thresholds(0.0, 1.0, 3)
    assert (l1, l2) == (1, 1)
    l1, l2 = optimal_thresholds(1.0, 1.0, 3)
    assert (l1, l2) == (2, 1)  # ties W_1 exactly
    l1, l2 = optimal_thresholds(0.5, 1.0, 3)
    assert (l1, l2) == (1, 1)
    big = whittle_index(3, 1.0, 3) + 1.0
    l1, l2 = optimal_thresholds(big, 1.0, 3)
    assert (l1, l2) == (4, 4)  # never schedule


def test_optimal_thresholds_bracket_cost_minimum():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = float(rng.uniform(0.05, 1.0))
        l = int(rng.integers(3, 20))
        w = float(rng.uniform(0.0, whittle_index(l, p, l) * 1.1))
        l1, l2 = optimal_thresholds(w, p, l)
        assert 1 <= l2 <= l1 <= l + 1
        totals = [cost_pair(n, w, p, l).total for n in range(1, l + 2)]
        best = min(totals)
        assert totals[l1 - 1] == pytest.approx(best, abs=1e-9)
        assert totals[l2 - 1] == pytest.approx(best, abs=1e-9)


def test_truncation_tie_thresholds():
    # subsidy equal to the shared index value of ages l-1 and l
    p, l = 0.6, 8
    w = whittle_index(l, p, l)
    assert whittle_index(l - 1, p, l) == pytest.approx(w, abs=1e-12)
    l1, l2 = optimal_thresholds(w, p, l)
    assert (l1, l2) == (l + 1, l - 1)


def test_domain_errors():
    with pytest.raises(RangeError):
        whittle_index(0, 0.5, 5)
    with pytest.raises(RangeError):
        whittle_index(6, 0.5, 5)
    with pytest.raises(RangeError):
        whittle_index(1, 0.0, 5)
    with pytest.raises(RangeError):
        stationary_distribution(7, 0.5, 5)
    with pytest.raises(RangeError):
        optimal_thresholds(-0.5, 0.5, 5)


@pytest.mark.parametrize("call", [
    lambda n: stationary_distribution(n, 0.5, 5),
    lambda n: age_cost(n, 0.5, 5),
    lambda n: sched_cost(n, 1.0, 0.5, 5),
    lambda n: stationary_by_balance(n, 0.5, 5),
    lambda n: stationary_by_balance(2, 0.5, 5, upper=n, coin=0.5),
])
def test_threshold_domain_messages(call):
    # every threshold entry point rejects with the same messages
    with pytest.raises(RangeError, match=r"^threshold 7 outside 1\.\.6$"):
        call(7)
    with pytest.raises(RangeError, match=r"^threshold 0 outside 1\.\.6$"):
        call(0)
    for bad in (2.0, True):
        with pytest.raises(RangeError,
                           match=rf"^threshold must be an integer, got {bad!r}$"):
            call(bad)


@pytest.mark.parametrize("p", P_GRID + (1e-4, 0.2, 0.9995))
@pytest.mark.parametrize("l", L_GRID + (25,))
def test_threshold_costs_equal_cost_pair_totals(p, l):
    # oracle-check's grid at every threshold, bit for bit
    table = whittle_index_table(np.array([p]), l)[0]
    ws = sorted({0.0, *table, *(w + 0.5 for w in table[:-1])})
    costs = threshold_costs(ws, p, l)
    assert costs.shape == (len(ws), l + 1)
    expected = [[cost_pair(n, float(w), p, l).total for n in range(1, l + 2)]
                for w in ws]
    assert costs.tobytes() == np.array(expected).tobytes()


def test_threshold_costs_domain_errors():
    with pytest.raises(RangeError, match="subsidy must be >= 0, got -1.0"):
        threshold_costs([0.0, -1.0], 0.5, 5)
    with pytest.raises(RangeError):
        threshold_costs([1.0], 0.0, 5)
    with pytest.raises(RangeError):
        threshold_costs([1.0], 0.5, 1)


def test_tie_groups_chain_adjacent_values():
    # 0.75*TIE_TOL steps chain into one group although its ends lie
    # 1.5*TIE_TOL apart; a 2*TIE_TOL step starts a new group. Ids ascend
    # with value and each group reports its smallest value
    step = 0.75 * TIE_TOL
    table = np.array([[1.0 + 2 * step, 3.0, 1.0],
                      [1.0 + step, 1.0 + 2 * step + 2 * TIE_TOL, 0.5]])
    group, values = tie_groups(table)
    assert group.tolist() == [[1, 3, 1], [1, 2, 0]]
    assert values.tolist() == [0.5, 1.0, 1.0 + 2 * step + 2 * TIE_TOL, 3.0]
