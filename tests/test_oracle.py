"""Cross-checks for the relative-value-iteration and joint-MDP oracles."""

import numpy as np
import pytest

import reference_impls as ref
from aoisched import ClassSpec, NetworkConfig, oracle
from aoisched.errors import ConvergenceError, RangeError, SingularSystemError, SizeError
from aoisched.index import (
    cost_pair,
    optimal_thresholds,
    whittle_index,
    whittle_index_table,
)
from aoisched.oracle import (
    joint_mdp_optimal,
    rvi_grid,
    rvi_one_dim,
    stationary_by_balance,
)
from aoisched.relaxed import solve_rp


def test_rvi_alternating_example():
    # p=0.5, L=3, W=1: optimal is threshold 2, long-run cost 8/3.
    res = rvi_one_dim(0.5, 3, 1.0)
    assert res.threshold == 2
    assert res.avg_cost == pytest.approx(8.0 / 3.0, abs=1e-6)
    assert res.avg_cost == pytest.approx(cost_pair(2, 1.0, 0.5, 3).total, abs=1e-6)


def test_rvi_free_scheduling():
    # W=0 with a sure channel: schedule every slot, age sticks at 1.
    res = rvi_one_dim(1.0, 3, 0.0)
    assert res.threshold == 1
    assert res.avg_cost == pytest.approx(1.0, abs=1e-6)


def test_rvi_tied_thresholds():
    # p=1, W=1: schedule-always and alternate both cost 2 per slot.
    res = rvi_one_dim(1.0, 3, 1.0)
    assert res.threshold in (1, 2)
    assert res.avg_cost == pytest.approx(2.0, abs=1e-6)


def test_rvi_policy_is_threshold_shaped():
    res = rvi_one_dim(0.7, 6, 2.0)
    pol = np.asarray(res.policy, dtype=bool)
    assert pol.shape == (6,)
    # once scheduling starts it never stops at higher ages
    first = int(np.argmax(pol))
    assert pol[first:].all()
    assert not pol[:first].any()
    assert res.threshold == first + 1


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("l", [3, 7, 12])
def test_rvi_matches_best_stationary_threshold(p, l):
    # The oracle must land on the cheapest threshold among all stationary
    # threshold policies, and that threshold must be one of the two
    # closed-form candidates. Its cost and relative values (scale and
    # reference age included) must match damped value iteration.
    for w in (0.0, 0.4, 1.7, whittle_index(l - 1, p, l)):
        res = rvi_one_dim(p, l, w)
        best = min(cost_pair(n, w, p, l).total for n in range(1, l + 2))
        assert res.avg_cost == pytest.approx(best, abs=1e-6)
        l1, l2 = optimal_thresholds(w, p, l)
        assert res.threshold in (l1, l2)
        avg_cost, value_fn, _ = ref.rvi_one_dim(p, l, w)
        assert abs(res.avg_cost - avg_cost) <= 1e-9
        np.testing.assert_allclose(res.value_fn, value_fn, rtol=0, atol=1e-8)


def test_stationary_balance_agrees_with_closed_form():
    from aoisched.index import stationary_distribution

    for p in (0.3, 0.9):
        for l in (4, 9):
            for n in range(1, l + 2):
                u = stationary_distribution(n, p, l)
                v = stationary_by_balance(n, p, l)
                np.testing.assert_allclose(u, v, atol=1e-10)


def test_joint_mdp_two_user_alternation():
    # Two users, one slot, sure channel: serve them in turn, ages average 1.5.
    cfg = NetworkConfig(
        n=2, alpha=0.5, l=3, classes=(ClassSpec(p=1.0, gamma=1.0),)
    )
    assert joint_mdp_optimal(cfg) == pytest.approx(1.5, abs=1e-6)


def test_joint_mdp_meets_relaxed_bound_on_toy():
    cfg = NetworkConfig(
        n=3, alpha=1.0 / 3.0, l=4, classes=(ClassSpec(p=0.7, gamma=1.0),)
    )
    joint = joint_mdp_optimal(cfg)
    sol = solve_rp(cfg)
    # relaxation can only lower the cost
    assert joint >= sol.c_rp - 1e-9
    assert joint == pytest.approx(sol.c_rp, abs=1e-6)


# (l, m, ((p, class size), ...)) with l**n within the cap; p = 1.0 makes
# the age chains periodic.
JOINT_GRID = [
    (3, 1, ((1.0, 2),)),
    (4, 1, ((0.7, 3),)),
    (5, 2, ((0.1, 3),)),
    (6, 1, ((0.1, 4),)),
    (5, 2, ((1.0, 4),)),
    (4, 2, ((0.5, 5),)),
    (3, 3, ((1.0, 5),)),
    (3, 3, ((0.1, 6),)),
    (6, 1, ((1.0, 1), (0.1, 1))),
    (5, 1, ((0.1, 1), (0.6, 2))),
    (4, 2, ((1.0, 2), (0.4, 1))),
    (5, 2, ((0.1, 1), (1.0, 3))),
    (3, 3, ((0.5, 3), (0.1, 1))),
    (4, 2, ((1.0, 2), (0.1, 3))),
    (4, 3, ((0.1, 2), (0.9, 4))),
    (3, 1, ((1.0, 4), (0.25, 2))),
]


def _joint_config(l, m, classes):
    n = sum(size for _, size in classes)
    return NetworkConfig(
        n=n, alpha=m / n, l=l,
        classes=tuple(ClassSpec(p=p, gamma=size / n) for p, size in classes),
    )


@pytest.mark.parametrize("l, m, classes", JOINT_GRID)
def test_joint_mdp_quotient_matches_full_state_solver(l, m, classes):
    cfg = _joint_config(l, m, classes)
    assert abs(joint_mdp_optimal(cfg) - ref.joint_mdp_optimal(cfg)) <= 1e-12


@pytest.mark.parametrize("n, l, p", [(3, 4, 0.7), (6, 6, 0.5)])
def test_joint_mdp_bench_instances_bit_identical(n, l, p):
    # perfbench's joint_n3 and joint_n6: the quotient returns exactly the
    # full-state solver's value.
    cfg = NetworkConfig(n=n, alpha=1.0 / 3.0, l=l, classes=(ClassSpec(p=p, gamma=1.0),))
    assert joint_mdp_optimal(cfg) == ref.joint_mdp_optimal(cfg)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_joint_mdp_state_blocks_do_not_change_result(monkeypatch, block):
    cfg = _joint_config(4, 3, ((0.1, 2), (0.9, 4)))
    whole = joint_mdp_optimal(cfg)
    monkeypatch.setattr(oracle, "STATE_BLOCK", block)
    assert joint_mdp_optimal(cfg) == whole


@pytest.mark.parametrize("l, m, classes", [
    (5, 2, ((0.1, 1), (1.0, 3))),
    (4, 3, ((0.1, 2), (0.9, 4))),
    (5, 1, ((0.3, 2), (0.8, 2))),
])
def test_joint_mdp_ignores_class_order(l, m, classes):
    forward = joint_mdp_optimal(_joint_config(l, m, classes))
    backward = joint_mdp_optimal(_joint_config(l, m, classes[::-1]))
    assert abs(forward - backward) <= 1e-12


def test_joint_mdp_rejects_huge_state_space():
    cfg = NetworkConfig(
        n=6, alpha=1.0 / 3.0, l=10, classes=(ClassSpec(p=0.7, gamma=1.0),)
    )
    with pytest.raises(SizeError):
        joint_mdp_optimal(cfg)


def test_rvi_domain_errors():
    with pytest.raises(RangeError):
        rvi_one_dim(0.0, 3, 1.0)
    with pytest.raises(RangeError):
        rvi_one_dim(0.5, 1, 1.0)
    with pytest.raises(RangeError):
        rvi_one_dim(0.5, 3, -0.5)


def oracle_check_grid(p, l):
    """The subsidies oracle-check solves for one class."""
    table = whittle_index_table(np.array([p]), l)[0]
    return [float(w) for w in sorted({0.0, *table, *(w + 0.5 for w in table[:-1])})]


def assert_same_results(got, expected):
    assert len(got) == len(expected)
    for res, want in zip(got, expected):
        assert res.avg_cost == want.avg_cost
        assert res.threshold == want.threshold
        assert res.value_fn.tobytes() == want.value_fn.tobytes()
        assert res.policy.dtype == want.policy.dtype
        assert res.policy.tobytes() == want.policy.tobytes()


GRID_CASES = [
    # the grids of test_rvi_matches_best_stationary_threshold
    *((p, l, [0.0, 0.4, 1.7, whittle_index(l - 1, p, l)])
      for p in (0.2, 0.5, 0.8, 1.0) for l in (3, 7, 12)),
    # oracle-check's grids on the analysis bench's two configs (L = 25)
    *((p, 25, oracle_check_grid(p, 25)) for p in (0.5, 0.8, 0.2)),
]


@pytest.mark.parametrize("p, l, ws", GRID_CASES)
def test_rvi_grid_matches_per_subsidy_loop(p, l, ws):
    # one stacked solve per sweep gives each subsidy's own solve, bit for
    # bit on every field
    expected = [ref.policy_iteration(p, l, w) for w in ws]
    assert_same_results(rvi_grid(p, l, ws), expected)
    assert_same_results([rvi_one_dim(p, l, w) for w in ws], expected)


@pytest.mark.parametrize("block", [1, 25 * 25 * 7, 10 ** 9])
def test_rvi_grid_blocks_do_not_change_result(monkeypatch, block):
    ws = oracle_check_grid(0.2, 25)
    expected = [ref.policy_iteration(0.2, 25, w) for w in ws]
    monkeypatch.setattr(oracle, "GRID_BLOCK", block)
    assert_same_results(rvi_grid(0.2, 25, ws), expected)


def test_rvi_grid_rejects_a_negative_subsidy_anywhere():
    with pytest.raises(RangeError, match="subsidy must be >= 0, got -0.25"):
        rvi_grid(0.5, 6, [0.0, 1.0, -0.25, 2.0])
    assert rvi_grid(0.5, 6, []) == []


def test_rvi_grid_singular_evaluation(monkeypatch):
    # no valid input makes a policy's system singular (its first column
    # is ones and the rest is I - P on ages 2..l), so the solver is made
    # to fail
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularSystemError, match="policy evaluation singular"):
        rvi_grid(0.5, 6, [0.0, 1.0])


def test_rvi_grid_iteration_cap(monkeypatch):
    # w = 0 starts from schedule-always and w = 40 from never-schedule,
    # each already optimal, while w = 2 needs more than one sweep
    monkeypatch.setattr(oracle, "MAX_ITERS", 1)
    assert [res.threshold for res in rvi_grid(0.5, 6, [0.0, 40.0])] == [1, 7]
    with pytest.raises(ConvergenceError, match="did not settle in 1 steps"):
        rvi_grid(0.5, 6, [0.0, 2.0, 40.0])
