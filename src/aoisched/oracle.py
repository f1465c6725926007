"""Brute-force ground truth used to validate the closed forms.

Three independent solvers:

* stationary_by_balance: direct linear solve of the threshold chain's
  balance equations, oracle for the closed-form stationary distribution
  and for the randomized chain of relaxed.rp_coin.
* rvi_one_dim: policy iteration on the single-user subsidized MDP over
  all schedule/idle rules on the l ages, oracle for the threshold
  structure and the average-cost formulas.
* joint_mdp_optimal: exact relative value iteration on the joint n-user
  MDP with the true per-slot budget, tractable only at toy sizes.

The joint solver runs damped relative value iteration, that is value
iteration on the aperiodicity-transformed kernel (1 - tau)*I + tau*P with
the stage cost unchanged. The transform keeps the average cost and the
optimal policy of every stationary policy and makes the iteration
converge for periodic chains (p = 1 thresholds). Policy iteration solves
each policy's average-cost equations exactly and needs no transform;
rvi_one_dim still reports its relative values on the transformed scale.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RangeError, SingularSystemError, SizeError
from .index import _check_l, _check_p
from .model import NetworkConfig, validate_config

SPAN_TOL = 1e-9
MAX_ITERS = 10 ** 6
DAMPING = 0.5
# Greedy-policy tie tolerance: scheduling wins exact ties.
GREEDY_TIE_TOL = 1e-12
JOINT_STATE_CAP = 2 * 10 ** 5


@dataclass(frozen=True, eq=False)
class RviResult:
    """Average cost, relative values over ages 1..l, and the greedy policy.

    policy[i-1] is True when the greedy action in age i is to schedule;
    threshold is the smallest scheduled age (l+1 when the policy never
    schedules).
    """

    avg_cost: float
    value_fn: np.ndarray
    policy: np.ndarray
    threshold: int


def _threshold_chain_kernel(n: int, p: float, l: int) -> np.ndarray:
    """Transition matrix of the age chain under the threshold-n policy."""
    kernel = np.zeros((l, l), dtype=float)
    for i in range(1, l + 1):
        up = min(i + 1, l)
        if i >= n:
            kernel[i - 1, 0] += p
            kernel[i - 1, up - 1] += 1.0 - p
        else:
            kernel[i - 1, up - 1] += 1.0
    return kernel


def stationary_by_balance(n: int, p: float, l: int, upper: int | None = None,
                          coin: float = 1.0) -> np.ndarray:
    """Solve pi = pi P, sum(pi) = 1 for the threshold chain directly.

    With upper given, only ages >= upper are scheduled surely and the
    ages in [n, upper) are scheduled with probability coin: the kernel is
    coin times the threshold-n kernel plus 1 - coin times the
    threshold-upper one.
    """
    _check_p(p)
    _check_l(l)
    for t in (n,) if upper is None else (n, upper):
        if not isinstance(t, (int, np.integer)) or isinstance(t, bool):
            raise RangeError(f"threshold must be an integer, got {t!r}")
        if not 1 <= t <= l + 1:
            raise RangeError(f"threshold {t} outside 1..{l + 1}")
    kernel = _threshold_chain_kernel(n, p, l)
    if upper is not None:
        kernel = coin * kernel + (1.0 - coin) * _threshold_chain_kernel(upper, p, l)
    system = kernel.T - np.eye(l)
    system[-1, :] = 1.0
    rhs = np.zeros(l)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"balance equations singular: {exc}") from exc
    if not np.all(np.isfinite(pi)):
        raise SingularSystemError("balance equations produced non-finite mass")
    return pi


def rvi_one_dim(p: float, l: int, w: float) -> RviResult:
    """Policy iteration for the single-user subsidized MDP.

    State is the age in {1, ..., l}. Idling costs the age and lets it
    grow (truncated at l); scheduling additionally costs the subsidy w
    and resets the age to 1 with probability p. Each policy is evaluated
    by one linear solve of its average-cost equations g + h = c + P h
    with h(1) = 0; a state switches action only when the other action is
    cheaper by more than GREEDY_TIE_TOL, so the iteration stops at the
    first policy that no switch improves. value_fn is h / DAMPING, the
    relative value of the aperiodicity-transformed chain at reference
    age 1.
    """
    _check_p(p)
    _check_l(l)
    if w < 0.0:
        raise RangeError(f"subsidy must be >= 0, got {w!r}")
    ages = np.arange(1, l + 1, dtype=float)
    nxt = np.minimum(np.arange(2, l + 2), l) - 1  # index of min(age+1, l)
    states = np.arange(l)
    schedule = np.full(l, w <= GREEDY_TIE_TOL)
    for _ in range(MAX_ITERS):
        rate = p * schedule
        kernel = np.zeros((l, l))
        kernel[states, nxt] = 1.0 - rate
        kernel[:, 0] += rate
        # Unknowns (g, h(2), ..., h(l)); h(1) = 0 frees the first column.
        system = np.eye(l) - kernel
        system[:, 0] = 1.0
        try:
            solution = np.linalg.solve(system, ages + w * schedule)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"policy evaluation singular: {exc}"
            ) from exc
        avg_cost = solution[0]
        h = np.concatenate(([0.0], solution[1:]))
        q_idle = ages + h[nxt]
        q_tx = ages + w + p * h[0] + (1.0 - p) * h[nxt]
        improved = np.where(schedule, q_idle < q_tx - GREEDY_TIE_TOL,
                            q_tx < q_idle - GREEDY_TIE_TOL)
        if improved.any():
            schedule = schedule ^ improved
            continue
        policy = q_tx <= q_idle + GREEDY_TIE_TOL
        scheduled = np.flatnonzero(policy)
        threshold = int(scheduled[0]) + 1 if scheduled.size else l + 1
        if not np.all(policy[threshold - 1 :]):
            raise ConvergenceError("greedy policy is not a threshold policy")
        return RviResult(
            avg_cost=float(avg_cost),
            value_fn=h / DAMPING,
            policy=policy,
            threshold=threshold,
        )
    raise ConvergenceError(f"policy iteration did not settle in {MAX_ITERS} steps")


def joint_mdp_optimal(cfg: NetworkConfig) -> float:
    """Exact optimal per-user average age for a tiny joint instance.

    Runs damped relative value iteration over all l**n joint age vectors
    with the exact m-subset action space. Ties between actions are broken
    toward the lexicographically smallest scheduled subset. Only feasible
    for l**n <= JOINT_STATE_CAP.
    """
    validate_config(cfg)
    n, l, m = cfg.n, cfg.l, cfg.m
    n_states = l ** n
    if n_states > JOINT_STATE_CAP:
        raise SizeError(
            f"joint state space l**n = {n_states} exceeds cap {JOINT_STATE_CAP}"
        )
    p_user = np.repeat(cfg.p_vector(), cfg.class_sizes())

    # ages_grid[s, u] is the age of user u in state s; mixed-radix encoding.
    grids = np.indices((l,) * n).reshape(n, -1).T + 1
    ages_grid = grids.astype(np.int64)
    cost = ages_grid.sum(axis=1).astype(float)
    weights = l ** np.arange(n - 1, -1, -1, dtype=np.int64)

    aged = np.minimum(ages_grid + 1, l)
    transitions = []  # per action: list of (prob, next_state_index)
    for action in itertools.combinations(range(n), m):
        outcomes = []
        for success in itertools.product((True, False), repeat=m):
            prob = 1.0
            nxt_ages = aged.copy()
            for user, ok in zip(action, success):
                if ok:
                    prob *= p_user[user]
                    nxt_ages[:, user] = 1
                else:
                    prob *= 1.0 - p_user[user]
            if prob == 0.0:
                continue
            idx = (nxt_ages - 1) @ weights
            outcomes.append((prob, idx))
        transitions.append(outcomes)

    value = np.zeros(n_states)
    tau = DAMPING
    expected = np.empty((len(transitions), n_states))
    for _ in range(MAX_ITERS):
        for a, outcomes in enumerate(transitions):
            acc = np.zeros(n_states)
            for prob, idx in outcomes:
                acc += prob * value[idx]
            expected[a] = acc
        updated = (1.0 - tau) * value + cost + tau * expected.min(axis=0)
        diff = updated - value
        span = diff.max() - diff.min()
        value = updated - updated[0]
        if span < SPAN_TOL:
            avg_cost = 0.5 * (diff.max() + diff.min())
            return float(avg_cost) / n
    raise ConvergenceError(
        f"joint rvi did not reach span {SPAN_TOL} in {MAX_ITERS} steps"
    )
