"""Relaxed-problem solver: time-average budget instead of per-slot budget.

With the scheduling constraint relaxed to hold only on time average, the
optimum decouples into per-class threshold policies tied together by a
common subsidy. The solver sweeps the finite set of index values, finds
the critical value w_star and class m where the scheduled fraction
crosses alpha, and randomizes class m between its two optimal thresholds
so the budget binds exactly. The resulting per-user average age c_rp is
a lower bound for every policy that respects the per-slot budget.
rp_coins plays that optimum out user by user: the per-cell scheduling
probabilities that the simulator's rp_threshold policy draws from.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, RangeError
from .index import (
    age_cost,
    stationary_distribution,
    tie_groups,
    whittle_index_table,
)
from .model import NetworkConfig, OccupancyVector, validate_config

BUDGET_SLACK = 1e-12
# Halvings of [0, 1] in rp_coin: past float resolution of the coin.
COIN_BISECTIONS = 60


@dataclass(frozen=True, eq=False)
class RelaxedSolution:
    """Optimum of the relaxed problem.

    Fields
    ------
    w_star : the critical subsidy; always one of the index values.
    m : zero-based id of the critical class, the one that randomizes.
    theta_star : probability of using the lower threshold l2 in class m.
    thresholds : per-class pairs (l1_k, l2_k) counted on the
        index.tie_groups groups: l2 is 1 plus the class's cells in
        groups below w_star's, and l1 adds its cells in w_star's group,
        which may chain values more than TIE_TOL above w_star, unlike
        index.optimal_thresholds. rp_coins reads only thresholds[m],
        and l_star for every class.
    z_star : occupancy fixed point induced by the optimal policy.
    c_rp : per-user average age at the optimum, in [1, l].
    l_star : per-class effective threshold used by the fluid linear
        region: l2 for class m and for lower-indexed classes tied at
        w_star, l1 otherwise (l1 = l2 for untied classes).
    """

    w_star: float
    m: int
    theta_star: float
    thresholds: tuple[tuple[int, int], ...]
    z_star: OccupancyVector
    c_rp: float
    l_star: tuple[int, ...]


def _fractions(thresholds: np.ndarray, cfg: NetworkConfig) -> np.ndarray:
    """scheduled_fraction of every column of a (k, count) threshold array."""
    total = np.zeros(thresholds.shape[1])
    for cls, n in zip(cfg.classes, thresholds):
        total += np.where(n <= cfg.l, cls.gamma / (n * cls.p + 1.0 - cls.p), 0.0)
    return total


def scheduled_fraction(thresholds, cfg: NetworkConfig) -> float:
    """Total stationary fraction of scheduled users under per-class thresholds.

    Each class contributes gamma_k/(l_k*p_k + 1 - p_k), the stationary
    mass at or above its threshold, and 0 when l_k = l+1.
    """
    if len(thresholds) != cfg.k:
        raise RangeError(
            f"expected {cfg.k} thresholds, got {len(thresholds)}"
        )
    for n in thresholds:
        if not 1 <= int(n) <= cfg.l + 1:
            raise RangeError(f"threshold {int(n)} outside 1..{cfg.l + 1}")
    column = np.array([[int(n)] for n in thresholds])
    return float(_fractions(column, cfg)[0])


def rp_coin(theta: float, l1: int, l2: int, p: float, l: int) -> float:
    """Per-age coin on ages [l2, l1) that realizes the theta-mixture.

    A user scheduled surely at ages >= l1, never below l2, and with
    probability q at the ages in between has stationary scheduled
    fraction 1 / (p T(q)), T(q) its mean time between resets. That rises
    from A(l1) at q = 0 to A(l2) at q = 1, and the returned q* matches
    theta A(l2) + (1 - theta) A(l1), by bisection. The ages [l2, l1) are
    the ones whose index ties w_star, so every such policy is optimal at
    subsidy w_star and its average age is linear in its scheduled
    fraction: under q* it is theta C(l2) + (1 - theta) C(l1), which makes
    the population's expected average age c_rp.
    """
    if theta <= 0.0:
        return 0.0
    if theta >= 1.0:
        return 1.0
    ages = np.arange(1, l + 1)

    def fraction(q: float) -> float:
        stay = 1.0 - p * np.where(ages >= l1, 1.0, np.where(ages >= l2, q, 0.0))
        if stay[-1] == 1.0:
            return 0.0
        # Ages below l are passed once per cycle; age l repeats until reset.
        reach = np.cumprod(np.concatenate(([1.0], stay[:-1])))
        return 1.0 / (p * (reach[:-1].sum() + reach[-1] / (1.0 - stay[-1])))

    target = theta * fraction(1.0) + (1.0 - theta) * fraction(0.0)
    lo, hi = 0.0, 1.0
    for _ in range(COIN_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if fraction(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rp_coins(sol: RelaxedSolution, cfg: NetworkConfig) -> np.ndarray:
    """Per-cell scheduling probability of the optimum, shape (k, l).

    Class k is scheduled surely from l_star[k] on, except that the
    critical class m (l_star[m] = l2) takes the rp_coin probability on
    its ages [l2, l1), which makes the expected average age c_rp.
    """
    ages = np.arange(1, cfg.l + 1)
    coins = (ages >= np.array(sol.l_star)[:, None]).astype(float)
    l1, l2 = sol.thresholds[sol.m]
    coins[sol.m, l2 - 1 : l1 - 1] = rp_coin(
        sol.theta_star, l1, l2, float(cfg.classes[sol.m].p), cfg.l)
    return coins


def _mixture_z(cfg, thresholds, m, theta, l_star) -> np.ndarray:
    z = np.zeros((cfg.k, cfg.l))
    for k, cls in enumerate(cfg.classes):
        if k == m:
            lo = stationary_distribution(thresholds[k][1], cls.p, cfg.l)
            hi = stationary_distribution(thresholds[k][0], cls.p, cfg.l)
            z[k] = cls.gamma * (theta * lo + (1.0 - theta) * hi)
        else:
            z[k] = cls.gamma * stationary_distribution(l_star[k], cls.p, cfg.l)
    return z


def solve_rp(cfg: NetworkConfig) -> RelaxedSolution:
    """Solve the relaxed problem by sweeping the index values.

    Candidates are the index.tie_groups groups at their smallest values,
    ascending. The scheduled fraction A(w) is a nonincreasing step
    function of the subsidy, equal to A1 (all classes at l1) just after
    a candidate and to A2 (all classes at l2) just before it, so the
    first candidate with A1 <= alpha <= A2 is the critical one. At group
    g, class k's l2 is 1 plus its cells in lower groups and l1 adds its
    cells in g, so solve_rp ties cells as the slot kernel does.
    Classes tied at the critical value are then flipped from l1 to l2 in
    class order; the flip that crosses alpha identifies the critical
    class m and its randomization theta_star. Classes flipped before m
    stay at l2, which the l_star field records.
    """
    validate_config(cfg)
    alpha, l = cfg.alpha, cfg.l
    group, candidates = tie_groups(whittle_index_table(cfg.p_vector(), l))
    # counts[k, g]: the cells of class k in tie group g
    counts = np.array([np.bincount(g, minlength=candidates.size) for g in group])
    l2 = 1 + np.cumsum(counts, axis=1) - counts
    l1 = l2 + counts
    a_hi = _fractions(l1, cfg)
    a_lo = _fractions(l2, cfg)
    bracketing = (a_hi <= alpha + BUDGET_SLACK) & (alpha <= a_lo + BUDGET_SLACK)

    for c in np.flatnonzero(bracketing):
        pairs = tuple((int(n1), int(n2)) for n1, n2 in zip(l1[:, c], l2[:, c]))
        # Flip tied classes from l1 to l2 in class order until the
        # scheduled fraction crosses alpha.
        l_star = [p1 for p1, _ in pairs]
        a_cur = float(a_hi[c])
        for k, (p1, p2) in enumerate(pairs):
            if p1 == p2:
                continue
            delta = scheduled_fraction(
                l_star[:k] + [p2] + l_star[k + 1 :], cfg
            ) - a_cur
            a_next = a_cur + delta
            if a_next + BUDGET_SLACK >= alpha:
                m = k
                theta = 0.0 if delta <= 0.0 else (alpha - a_cur) / delta
                theta = min(max(theta, 0.0), 1.0)
                l_star[k] = p2
                z = _mixture_z(cfg, pairs, m, theta, l_star)
                c_rp = 0.0
                for j, cls in enumerate(cfg.classes):
                    if j == m:
                        c_rp += cls.gamma * (
                            theta * age_cost(pairs[j][1], cls.p, l)
                            + (1.0 - theta) * age_cost(pairs[j][0], cls.p, l)
                        )
                    else:
                        c_rp += cls.gamma * age_cost(l_star[j], cls.p, l)
                return RelaxedSolution(
                    w_star=float(candidates[c]),
                    m=m,
                    theta_star=float(theta),
                    thresholds=pairs,
                    z_star=OccupancyVector(z=z),
                    c_rp=float(c_rp),
                    l_star=tuple(l_star),
                )
            l_star[k] = p2
            a_cur = a_next
    raise InfeasibleError(
        f"no index candidate brackets the budget alpha={alpha}"
    )
