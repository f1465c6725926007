"""Relaxed-problem solver: worked examples plus randomized invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_impls as ref
from aoisched import ClassSpec, NetworkConfig
from aoisched.index import age_cost, optimal_thresholds
from aoisched.oracle import stationary_by_balance
from aoisched.relaxed import (
    BUDGET_SLACK,
    rp_coin,
    scheduled_fraction,
    solve_rp,
)


def one_class(p, l, alpha, n=12):
    return NetworkConfig(n=n, alpha=alpha, l=l, classes=(ClassSpec(p=p, gamma=1.0),))


def mixed_budget(sol, cfg):
    """Scheduled fraction of the randomized threshold pair."""
    lo = list(sol.l_star)
    hi = list(sol.l_star)
    l1, l2 = sol.thresholds[sol.m]
    hi[sol.m] = max(l1, l2)
    lo[sol.m] = min(l1, l2)
    th = sol.theta_star
    return th * scheduled_fraction(lo, cfg) + (1.0 - th) * scheduled_fraction(hi, cfg)


def test_scheduled_fraction_examples():
    cfg = one_class(1.0, 3, 0.5, n=10)
    assert scheduled_fraction([1], cfg) == 1.0
    assert scheduled_fraction([2], cfg) == pytest.approx(0.5, abs=1e-15)
    # threshold l+1 means the class is never scheduled
    assert scheduled_fraction([4], cfg) == 0.0
    # attempt rate for a threshold chain is 1/(l p + 1 - p) per user
    cfg2 = one_class(0.4, 6, 0.5, n=10)
    assert scheduled_fraction([3], cfg2) == pytest.approx(1.0 / (3 * 0.4 + 0.6), abs=1e-15)


def test_solve_rp_sure_channel():
    # K=1, p=1, L=3, budget half: alternate between the two youngest ages.
    sol = solve_rp(one_class(1.0, 3, 0.5, n=10))
    assert sol.w_star == pytest.approx(1.0, abs=1e-12)
    assert sol.thresholds == ((2, 1),)
    assert sol.theta_star == 0.0
    assert sol.c_rp == pytest.approx(1.5, abs=1e-12)
    np.testing.assert_allclose(sol.z_star.z, [[0.5, 0.5, 0.0]], atol=1e-14)


def test_solve_rp_truncation_tie():
    # p=0.5, L=3: the index gap between ages L-1 and L vanishes, so the
    # subsidy pins a tied pair and the optimizer mixes thresholds 2 and 4.
    sol = solve_rp(one_class(0.5, 3, 0.5, n=10))
    assert sol.w_star == pytest.approx(1.5, abs=1e-12)
    assert sol.thresholds == ((4, 2),)
    assert sol.theta_star == pytest.approx(0.75, abs=1e-12)
    # 0.75 * u(threshold 2) + 0.25 * u(never) = 0.75*(1/3,1/3,1/3) + 0.25*(0,0,1)
    np.testing.assert_allclose(sol.z_star.z, [[0.25, 0.25, 0.5]], atol=1e-14)
    assert sol.c_rp == pytest.approx(2.25, abs=1e-12)


def test_solve_rp_singleton_crossing():
    sol = solve_rp(one_class(0.5, 3, 0.75, n=8))
    assert sol.w_star == pytest.approx(0.75, abs=1e-12)
    assert sol.thresholds == ((2, 1),)
    assert sol.theta_star == pytest.approx(0.25, abs=1e-12)
    assert sol.c_rp == pytest.approx(1.9375, abs=1e-12)


def test_solve_rp_two_class_reference():
    cfg = NetworkConfig(
        n=100, alpha=0.5, l=50,
        classes=(ClassSpec(p=0.5, gamma=0.5), ClassSpec(p=0.8, gamma=0.5)),
    )
    sol = solve_rp(cfg)
    assert sol.w_star == pytest.approx(2.8, abs=1e-12)
    assert sol.m == 1
    assert sol.theta_star == pytest.approx(0.675, abs=1e-12)
    assert sol.thresholds == ((3, 3), (3, 2))
    assert sol.l_star == (3, 2)
    assert sol.c_rp == pytest.approx(2.3, abs=1e-12)


def random_config(rng):
    partitions = [(12,), (6, 6), (4, 8), (4, 4, 4), (3, 9)]
    sizes = partitions[int(rng.integers(len(partitions)))]
    n = 12
    classes = tuple(
        ClassSpec(p=float(rng.uniform(0.1, 1.0)), gamma=s / n) for s in sizes
    )
    alpha = int(rng.integers(1, 12)) / n
    l = int(rng.integers(3, 13))
    return NetworkConfig(n=n, alpha=alpha, l=l, classes=classes)


def test_solve_rp_randomized_invariants():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        cfg = random_config(rng)
        sol = solve_rp(cfg)
        z = sol.z_star.z
        ages = np.arange(1, cfg.l + 1, dtype=float)

        # occupation measure: nonnegative, class rows carry the class masses
        assert (z >= -1e-14).all()
        np.testing.assert_allclose(z.sum(axis=1), cfg.gamma_vector(), atol=1e-12)

        # budget binds exactly under the randomized threshold pair
        assert mixed_budget(sol, cfg) == pytest.approx(cfg.alpha, abs=1e-10)

        # cost equals mean age of the occupation measure
        assert sol.c_rp == pytest.approx(float((z * ages).sum()), abs=1e-10)
        assert 1.0 <= sol.c_rp <= cfg.l

        # per-class thresholds are the closed-form pair at the pinned subsidy
        for k, spec in enumerate(cfg.classes):
            assert sol.thresholds[k] == optimal_thresholds(sol.w_star, spec.p, cfg.l)
            l1, l2 = sol.thresholds[k]
            assert 1 <= l2 <= l1 <= cfg.l + 1

        assert 0.0 <= sol.theta_star <= 1.0


def test_solve_rp_cost_decreases_with_budget():
    base = dict(n=12, l=8,
                classes=(ClassSpec(p=0.3, gamma=0.5), ClassSpec(p=0.9, gamma=0.5)))
    costs = [solve_rp(NetworkConfig(alpha=a, **base)).c_rp
             for a in (2 / 12, 4 / 12, 6 / 12, 8 / 12, 10 / 12)]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert costs[-1] < costs[0]


def criterion5_config(rng, p_pool=None, max_l=30):
    """A criterion-5-style instance: 1-4 classes, l in 3..max_l.

    With p_pool, success probabilities come from that small set, which
    makes cross-class index ties common.
    """
    while True:
        k = int(rng.integers(1, 5))
        sizes = rng.integers(1, 4, size=k) * int(rng.integers(1, 4))
        n = int(sizes.sum())
        if n >= 2:
            break
    l = int(rng.integers(3, max_l + 1))
    m = int(rng.integers(1, n))
    if p_pool is None:
        ps = rng.uniform(0.1, 1.0, size=k)
    else:
        ps = rng.choice(p_pool, size=k)
    classes = tuple(
        ClassSpec(p=float(p), gamma=int(s) / n) for p, s in zip(ps, sizes)
    )
    return NetworkConfig(n=n, alpha=m / n, l=l, classes=classes)


def test_solve_rp_matches_loop_reference():
    # thresholds counted from index.tie_groups against the loop that
    # calls optimal_thresholds for every candidate: identical fields
    # wherever no tie group spans more than TIE_TOL, as on all these draws
    rng = np.random.default_rng(20260819)
    draws = (
        [criterion5_config(rng) for _ in range(200)]
        + [criterion5_config(rng, p_pool=(0.25, 0.5, 1.0)) for _ in range(100)]
        + [criterion5_config(rng, max_l=400) for _ in range(20)]
    )
    for cfg in draws:
        fast, slow = solve_rp(cfg), ref.solve_rp(cfg)
        assert fast.w_star == slow.w_star
        assert fast.m == slow.m
        assert fast.theta_star == slow.theta_star
        assert fast.thresholds == slow.thresholds
        assert all(type(n) is int for pair in fast.thresholds for n in pair)
        assert fast.l_star == slow.l_star
        assert fast.c_rp == slow.c_rp
        assert np.array_equal(fast.z_star.z, slow.z_star.z)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_solve_rp_binds_budget(data):
    # class m mixes A at l2 and at l1 with weights theta, 1 - theta, and
    # every other class sits at its effective threshold
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = sum(sizes)
    if n < 2:
        sizes, n = sizes + [1], n + 1
    m_slots = data.draw(st.integers(1, n - 1))
    l = data.draw(st.integers(2, 40))
    p = st.sampled_from((0.25, 0.5, 1.0)) | st.floats(0.01, 1.0)
    ps = data.draw(st.lists(p, min_size=len(sizes), max_size=len(sizes)))
    cfg = NetworkConfig(
        n=n, alpha=m_slots / n, l=l,
        classes=tuple(ClassSpec(p=pk, gamma=s / n) for pk, s in zip(ps, sizes)),
    )
    sol = solve_rp(cfg)
    l1, l2 = sol.thresholds[sol.m]
    at = list(sol.l_star)
    at[sol.m] = l2
    budget = sol.theta_star * scheduled_fraction(at, cfg)
    at[sol.m] = l1
    budget += (1.0 - sol.theta_star) * scheduled_fraction(at, cfg)
    assert budget == pytest.approx(cfg.alpha, rel=0, abs=BUDGET_SLACK)


def test_rp_coin_realizes_the_relaxed_optimum():
    # the balance-equation law of the randomized chain has the theta
    # mixture's scheduled fraction and average age, so the population
    # average is c_rp; includes a critical class randomizing over the
    # (l-1, l) truncation tie (l1 = l+1)
    rng = np.random.default_rng(31)
    cases = [NetworkConfig(n=20, alpha=0.25, l=8, classes=(
        ClassSpec(p=0.2, gamma=0.5), ClassSpec(p=0.7, gamma=0.5)))]
    while len(cases) < 150:
        k = int(rng.integers(1, 4))
        n = 6 * k
        cases.append(NetworkConfig(
            n=n, alpha=int(rng.integers(1, n)) / n, l=int(rng.integers(3, 40)),
            classes=tuple(ClassSpec(p=float(rng.uniform(0.05, 1.0)), gamma=1.0 / k)
                          for _ in range(k))))
    randomized = tie_top = 0
    for cfg in cases:
        sol = solve_rp(cfg)
        l1, l2 = sol.thresholds[sol.m]
        p, l, th = cfg.classes[sol.m].p, cfg.l, sol.theta_star
        q = rp_coin(th, l1, l2, p, l)
        assert 0.0 <= q <= 1.0
        pi = stationary_by_balance(l2, p, l, upper=l1, coin=q)
        ages = np.arange(1, l + 1)
        sched = np.where(ages >= l1, 1.0, np.where(ages >= l2, q, 0.0))
        def fraction(t):  # a threshold-t user's scheduled fraction
            return 1.0 / (t * p + 1.0 - p) if t <= l else 0.0

        target = th * fraction(l2) + (1.0 - th) * fraction(l1)
        assert float(pi @ sched) == pytest.approx(target, rel=0, abs=1e-12)
        mean_age = float(pi @ ages)
        assert mean_age == pytest.approx(
            th * age_cost(l2, p, l) + (1.0 - th) * age_cost(l1, p, l),
            rel=0, abs=1e-10)
        population = sum(
            c.gamma * (mean_age if k == sol.m else age_cost(sol.l_star[k], c.p, l))
            for k, c in enumerate(cfg.classes))
        assert population == pytest.approx(sol.c_rp, rel=0, abs=1e-10)
        randomized += 0.0 < th < 1.0
        tie_top += l1 == l + 1
    assert randomized >= 100 and tie_top >= 1
