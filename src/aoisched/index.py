"""Closed-form single-user analysis for the subsidized scheduling problem.

Everything here treats one user of a single class in isolation: the age
process under a threshold policy (schedule iff age >= n), its stationary
distribution, its long-run average costs, the Whittle index of each age
state, and the optimal threshold(s) for a given subsidy W.

All functions are pure and operate on plain scalars; vectorized helpers
are provided for the table lookups the simulator and the relaxed-problem
solver need.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError

# Tolerance for deciding that a subsidy equals an index value exactly.
TIE_TOL = 1e-12


def _check_p(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise RangeError(f"p must lie in (0, 1], got {p!r}")


def _check_l(l: int) -> None:
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 2:
        raise RangeError(f"l must be an integer >= 2, got {l!r}")


def _check_threshold(n: int, l: int) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise RangeError(f"threshold must be an integer, got {n!r}")
    if not 1 <= n <= l + 1:
        raise RangeError(f"threshold {n} outside 1..{l + 1}")


def whittle_index(i: int, p: float, l: int) -> float:
    """Whittle index of age state i.

    Parameters
    ----------
    i : age state in {1, ..., l}.
    p : success probability of the user's class.
    l : age truncation bound.

    Returns
    -------
    float
        i*(i-1)*p/2 + i - i*(1-p)**(l-i), the subsidy at which scheduling
        and idling in state i are equally attractive. Nonnegative and
        nondecreasing in i.
    """
    _check_p(p)
    _check_l(l)
    if not 1 <= i <= l:
        raise RangeError(f"age {i} outside 1..{l}")
    return i * (i - 1) * p / 2.0 + i - i * (1.0 - p) ** (l - i)


def index_gap(i: int, p: float, l: int) -> float:
    """Difference whittle_index(i+1) - whittle_index(i) in closed form.

    Equals (i*p + 1)*(1 - (1-p)**(l-i-1)) for i in {1, ..., l-1};
    nonnegative, and zero exactly at i = l-1 (the two top states always
    share an index value).
    """
    _check_p(p)
    _check_l(l)
    if not 1 <= i <= l - 1:
        raise RangeError(f"gap index {i} outside 1..{l - 1}")
    return (i * p + 1.0) * (1.0 - (1.0 - p) ** (l - i - 1))


def whittle_index_table(p: np.ndarray, l: int) -> np.ndarray:
    """Index values for every (class, age) cell, shape (k, l)."""
    _check_l(l)
    pv = np.asarray(p, dtype=float).reshape(-1, 1)
    ages = np.arange(1, l + 1, dtype=float)
    return ages * (ages - 1.0) * pv / 2.0 + ages - ages * (1.0 - pv) ** (l - ages)


def tie_groups(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one tie rule: each cell's group id and each group's smallest value.

    Sorted values start a new group where adjacent values differ by more
    than TIE_TOL, so a chain of near ties is one group. Ids ascend from 0.
    """
    flat = np.ravel(table)
    order = np.argsort(flat, kind="stable")
    first = np.diff(flat[order], prepend=-np.inf) > TIE_TOL
    group = (np.cumsum(first) - 1)[np.argsort(order)]
    return group.reshape(np.shape(table)), flat[order][first]


def stationary_distribution(n: int, p: float, l: int) -> np.ndarray:
    """Stationary law of the age chain under the threshold-n policy.

    Parameters
    ----------
    n : threshold in {1, ..., l+1}; l+1 means the user is never scheduled.
    p : success probability.
    l : age truncation bound.

    Returns
    -------
    numpy.ndarray
        Probabilities u(1..l). For n <= l, u(i) = p/(n*p+1-p) below the
        threshold, decays geometrically at rate (1-p) at and above it,
        and the truncation state takes the tail mass
        u(l) = (1-p)**(l-n)/(n*p+1-p). For n = l+1 the chain is absorbed
        at l.
    """
    _check_p(p)
    _check_l(l)
    _check_threshold(n, l)
    u = np.zeros(l, dtype=float)
    if n == l + 1:
        u[l - 1] = 1.0
        return u
    denom = n * p + 1.0 - p
    u[: n - 1] = p / denom
    if n <= l - 1:
        u[n - 1 : l - 1] = (1.0 - p) ** np.arange(0, l - n) * (p / denom)
    u[l - 1] = (1.0 - p) ** (l - n) / denom
    return u


def age_cost(n: int, p: float, l: int) -> float:
    """Average age per slot under the threshold-n policy (C1).

    Closed form of the expectation sum(i * u(i)); returns l for the
    never-schedule threshold n = l+1, which the closed form does not
    cover.
    """
    _check_p(p)
    _check_l(l)
    _check_threshold(n, l)
    if n == l + 1:
        return float(l)
    num = ((n - 1) ** 2 + (n - 1)) * p * p + 2.0 * p * (n - 1) + 2.0 * (
        1.0 - (1.0 - p) ** (l - n + 1)
    )
    den = 2.0 * p * ((n - 1) * p + 1.0)
    return num / den


def sched_cost(n: int, w: float, p: float, l: int) -> float:
    """Average subsidy cost per slot under the threshold-n policy (C2).

    Equals w times the stationary scheduled mass, w/(n*p+1-p) for
    n <= l and 0 for the never-schedule threshold.
    """
    _check_p(p)
    _check_l(l)
    if w < 0.0:
        raise RangeError(f"subsidy must be >= 0, got {w!r}")
    _check_threshold(n, l)
    if n == l + 1:
        return 0.0
    return w / (n * p + 1.0 - p)


def threshold_costs(w, p: float, l: int) -> np.ndarray:
    """cost_pair(n, w, p, l).total for every subsidy and threshold.

    Row i holds thresholds n = 1, ..., l+1 at subsidy w[i], shape
    (len(w), l+1). age_cost is computed once per threshold and the
    subsidy term with sched_cost's float operations, w/(n*p+1-p) and 0
    at n = l+1, so each entry equals the scalar total bit for bit.
    """
    _check_p(p)
    _check_l(l)
    w = np.array(w, dtype=float).reshape(-1, 1)
    negative = w[w < 0.0]
    if negative.size:
        raise RangeError(f"subsidy must be >= 0, got {float(negative[0])!r}")
    ns = np.arange(1, l + 2)
    ages = np.array([age_cost(n, p, l) for n in range(1, l + 2)])
    sched = w / (ns * p + 1.0 - p)
    sched[:, -1] = 0.0
    return ages + sched


@dataclass(frozen=True)
class CostPair:
    """Average age cost, subsidy cost, and their total for one threshold."""

    age_cost: float
    sched_cost: float
    total: float


def cost_pair(n: int, w: float, p: float, l: int) -> CostPair:
    """Both cost components of the threshold-n policy at subsidy w."""
    a = age_cost(n, p, l)
    s = sched_cost(n, w, p, l)
    return CostPair(age_cost=a, sched_cost=s, total=a + s)


def optimal_thresholds(w: float, p: float, l: int) -> tuple[int, int]:
    """Optimal thresholds (l1, l2) for subsidy w.

    l1 = 1 + max{i : W_i <= w} and l2 = 1 + max{i : W_i < w}, both with
    the empty-set convention max{} = 0. Since the index is nondecreasing
    in i these sets are prefixes, so the maxima are counts. l2 <= l1,
    with strict inequality exactly when w ties some index value (within
    TIE_TOL); every threshold in [l2, l1] is then optimal.
    """
    _check_p(p)
    _check_l(l)
    if w < 0.0:
        raise RangeError(f"subsidy must be >= 0, got {w!r}")
    values = whittle_index_table(np.array([p]), l)[0]
    l1 = 1 + int(np.count_nonzero(values <= w + TIE_TOL))
    l2 = 1 + int(np.count_nonzero(values < w - TIE_TOL))
    return l1, l2
