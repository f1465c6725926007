"""Brute-force ground truth used to validate the closed forms.

Three independent solvers:

* stationary_by_balance: direct linear solve of the threshold chain's
  balance equations, oracle for the closed-form stationary distribution
  and for the randomized chain of relaxed.rp_coin.
* rvi_grid: policy iteration on the single-user subsidized MDP over
  all schedule/idle rules on the l ages, oracle for the threshold
  structure and the average-cost formulas. It solves a whole grid of
  subsidies as one stacked policy iteration, one np.linalg.solve call on
  the stack of still-switching subsidies per sweep; rvi_one_dim is its
  one-subsidy case.
* joint_mdp_optimal: exact relative value iteration on the joint n-user
  MDP with the true per-slot budget, solved on its exchangeable quotient.
  JOINT_STATE_CAP still bounds the l**n user-age vectors, so it runs only
  at toy sizes.

Users of one class are exchangeable: permuting them commutes with the
joint MDP's Bellman operator, so from v = 0 every iterate takes one value
on all user-age vectors with the same per-class age counts. The joint
solver therefore iterates on the count vectors (the occupancy view of
Weber & Weiss, 1990, which sim's count kernel uses as well), and its
span, stopping sweep and average cost are those of the iteration over
all l**n user-age vectors, up to floating-point summation order. The cap
stays on l**n for now so that every input behaves as before; a cap on
the quotient's own size would admit larger n.

The joint solver runs damped relative value iteration, that is value
iteration on the aperiodicity-transformed kernel (1 - tau)*I + tau*P with
the stage cost unchanged. The transform keeps the average cost and the
optimal policy of every stationary policy and makes the iteration
converge for periodic chains (p = 1 thresholds). Policy iteration solves
each policy's average-cost equations exactly and needs no transform;
rvi_grid still reports its relative values on the transformed scale.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RangeError, SingularSystemError, SizeError
from .index import _check_l, _check_p, _check_threshold
from .model import NetworkConfig, validate_config

SPAN_TOL = 1e-9
MAX_ITERS = 10 ** 6
DAMPING = 0.5
# Greedy-policy tie tolerance: scheduling wins exact ties.
GREEDY_TIE_TOL = 1e-12
JOINT_STATE_CAP = 2 * 10 ** 5
# joint_mdp_optimal builds its transitions this many quotient states at a
# time, which bounds its work arrays; the result does not depend on it.
STATE_BLOCK = 2 ** 12
# rvi_grid stacks at most this many system entries (subsidies times l*l)
# per solve, which bounds its work arrays; the results do not depend on it.
# oracle-check at L=200 (2 vCPUs): 5.9 s and 402 MB max RSS with the
# whole grid in one block, 5.2 s and 68 MB at 2**20, 5.8 s and 43 MB here,
# 6.0 s and 37 MB at 2**16; 6.1-8.9 s and 33 MB one subsidy at a time.
# Up to l = 50 one block holds a class's whole grid of at most 2l points,
# so no benchmark workload (oracle-check at L=25) takes the blocked path.
GRID_BLOCK = 2 ** 18


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
        _check_threshold(t, l)
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


def rvi_grid(p: float, l: int, ws) -> list[RviResult]:
    """Policy iteration for the single-user subsidized MDP at every w in ws.

    State is the age in {1, ..., l}. Idling costs the age and lets it
    grow (truncated at l); scheduling additionally costs the subsidy w
    and resets the age to 1 with probability p. Each policy is evaluated
    by one linear solve of its average-cost equations g + h = c + P h
    with h(1) = 0; a state switches action only when the other action is
    cheaper by more than GREEDY_TIE_TOL, so the iteration stops at the
    first policy that no switch improves. value_fn is h / DAMPING, the
    relative value of the aperiodicity-transformed chain at reference
    age 1.

    The subsidies are independent problems solved side by side, up to
    GRID_BLOCK of them at a time: each sweep stacks the l x l systems of
    the subsidies whose policy still switches and makes one
    np.linalg.solve call on the stack, which runs LAPACK's gesv on each
    matrix, so every result is bit-identical to solving its subsidy
    alone. A subsidy retires at its first sweep with no improving
    switch. The stack saves Python overhead per subsidy; at large l the
    dense solves dominate and it saves little.
    """
    _check_p(p)
    _check_l(l)
    w_all = np.array(ws, dtype=float).reshape(-1)
    negative = w_all[w_all < 0.0]
    if negative.size:
        raise RangeError(f"subsidy must be >= 0, got {float(negative[0])!r}")
    block = max(1, GRID_BLOCK // (l * l))
    return [res for lo in range(0, w_all.size, block)
            for res in _rvi_block(p, l, w_all[lo:lo + block])]


def _rvi_block(p: float, l: int, w: np.ndarray) -> list[RviResult]:
    """rvi_grid on one block of subsidies, one stacked solve per sweep."""
    ages = np.arange(1, l + 1, dtype=float)
    nxt = np.minimum(np.arange(2, l + 2), l) - 1  # index of min(age+1, l)
    states = np.arange(l)
    schedule = np.repeat(w[:, None] <= GREEDY_TIE_TOL, l, axis=1)
    results: list[RviResult | None] = [None] * w.size
    live = np.arange(w.size)
    for _ in range(MAX_ITERS):
        sched, w_live = schedule[live], w[live, None]
        rate = p * sched
        kernel = np.zeros((live.size, l, l))
        kernel[:, states, nxt] = 1.0 - rate
        kernel[:, :, 0] += rate
        # Unknowns (g, h(2), ..., h(l)); h(1) = 0 frees the first column.
        system = np.eye(l) - kernel
        system[:, :, 0] = 1.0
        try:
            rhs = (ages + w_live * sched)[:, :, None]
            solution = np.linalg.solve(system, rhs)[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"policy evaluation singular: {exc}"
            ) from exc
        h = solution.copy()
        h[:, 0] = 0.0
        q_idle = ages + h[:, nxt]
        q_tx = ages + w_live + p * h[:, :1] + (1.0 - p) * h[:, nxt]
        improved = np.where(sched, q_idle < q_tx - GREEDY_TIE_TOL,
                            q_tx < q_idle - GREEDY_TIE_TOL)
        switching = improved.any(axis=1)
        schedule[live] = sched ^ improved
        policies = q_tx <= q_idle + GREEDY_TIE_TOL
        for row in np.flatnonzero(~switching):
            policy = policies[row]
            scheduled = np.flatnonzero(policy)
            threshold = int(scheduled[0]) + 1 if scheduled.size else l + 1
            if not np.all(policy[threshold - 1 :]):
                raise ConvergenceError("greedy policy is not a threshold policy")
            results[live[row]] = RviResult(
                avg_cost=float(solution[row, 0]),
                value_fn=h[row] / DAMPING,
                policy=policy,
                threshold=threshold,
            )
        live = live[switching]
        if not live.size:
            return results
    raise ConvergenceError(f"policy iteration did not settle in {MAX_ITERS} steps")


def rvi_one_dim(p: float, l: int, w: float) -> RviResult:
    """rvi_grid at the one subsidy w."""
    return rvi_grid(p, l, [w])[0]


def _quotient_states(cfg: NetworkConfig) -> np.ndarray:
    """Every state of the quotient, one row of n sorted user cells each.

    The cell of a class-k user at age a is k*l + a - 1. A row lists each
    class's users by ascending age, classes in order, so it is the
    per-class count vector written out user by user: n entries instead of
    k*l. Rows are in lexicographic order, so row 0 has every user at age 1.
    """
    l = cfg.l
    rows = np.zeros((1, 0), dtype=np.int64)
    for k, size in enumerate(cfg.class_sizes()):
        block = np.array(list(itertools.combinations_with_replacement(
            range(k * l, (k + 1) * l), size)), dtype=np.int64)
        rows = np.hstack([np.repeat(rows, len(block), axis=0),
                          np.tile(block, (len(rows), 1))])
    return rows


def _splits(bounds: np.ndarray, total: np.ndarray | None = None):
    """Every integer vector 0 <= x <= bounds[i], row by row.

    Returns (owner, x): x[e] is a vector for row owner[e]. Rows come out
    in order, so each row's vectors are contiguous. With total given, only
    the vectors of row i that sum to total[i] are kept.
    """
    owner = np.arange(len(bounds))
    x = np.zeros(bounds.shape, dtype=np.int64)
    left = total
    for j in range(bounds.shape[1]):
        hi = bounds[owner, j] if total is None else np.minimum(bounds[owner, j], left)
        reps = hi + 1
        keep = np.repeat(np.arange(len(owner)), reps)
        owner, x = owner[keep], x[keep]
        x[:, j] = np.arange(len(keep)) - np.repeat(np.cumsum(reps) - reps, reps)
        if total is not None:
            left = left[keep] - x[:, j]
    if total is not None:
        owner, x = owner[left == 0], x[left == 0]
    return owner, x


def _lex_keys(table: np.ndarray):
    """Search keys of table, whose rows are distinct and sorted.

    Column j's key of a row is the rank of its first j entries among the
    table's distinct prefixes, times the column width, plus its entry j;
    each column's keys are sorted and none exceeds len(table) * width.
    """
    width = int(table.max()) + 1
    rank = np.zeros(len(table), dtype=np.int64)
    keys = []
    for col in table.T:
        key = rank * width + col
        rank = np.cumsum(np.diff(key, prepend=-1) > 0) - 1
        keys.append((key, rank))
    return width, keys


def _lex_find(lookup, rows: np.ndarray) -> np.ndarray:
    """Table index of each row; every row must occur in the table."""
    width, keys = lookup
    rank = np.zeros(len(rows), dtype=np.int64)
    for (key, table_rank), col in zip(keys, rows.T):
        rank = table_rank[np.searchsorted(key, rank * width + col)]
    return rank


def _transitions(cfg: NetworkConfig, users: np.ndarray):
    """Every action and every outcome of the quotient MDP.

    Returns (state_of, action_of, prob, nxt): action a is taken in state
    state_of[a], and entry e is an outcome of action action_of[e] that
    leads to state nxt[e] with probability prob[e] > 0. Each state's
    actions, and each action's outcomes, are contiguous. Entries are
    built STATE_BLOCK states at a time, which bounds the work arrays.
    """
    l, m, n = cfg.l, cfg.m, cfg.n
    # Occupied cells, left-aligned: user u sits in slot run[u] of its row,
    # as the offset[u]-th user of that cell.
    rows = np.arange(len(users))[:, None]
    new = np.ones(users.shape, dtype=bool)
    new[:, 1:] = users[:, 1:] != users[:, :-1]
    run = np.cumsum(new, axis=1) - 1
    offset = np.arange(n) - np.maximum.accumulate(np.where(new, np.arange(n), 0), axis=1)
    counts = np.zeros(users.shape, dtype=np.int64)
    np.add.at(counts, (rows, run), 1)
    p_run = np.ones(users.shape)
    p_run[rows, run] = cfg.p_vector()[users // l]
    binom = np.array([[math.comb(s, r) for r in range(m + 1)] for s in range(m + 1)],
                     dtype=float)
    lookup = _lex_keys(users)

    parts = []
    n_actions = 0
    for lo in range(0, len(users), STATE_BLOCK):
        block = counts[lo:lo + STATE_BLOCK]
        state_of, served = _splits(block, np.full(len(block), m))
        action_of, succ = _splits(served)
        origin = state_of[action_of] + lo
        prob = np.ones(len(succ))
        for j in range(n):
            s, r, p = served[action_of, j], succ[:, j], p_run[origin, j]
            prob *= binom[s, r] * p ** r * (1.0 - p) ** (s - r)
        live = prob > 0.0
        action_of, succ, origin, prob = action_of[live], succ[live], origin[live], prob[live]

        # The first succ users of each cell restart at age 1 and every
        # other user ages, capped at l: the shift of sim._advance, user by
        # user.
        start = users[origin]
        hit = offset[origin] < np.take_along_axis(succ, run[origin], axis=1)
        nxt_users = np.where(hit, start // l * l, start + (start % l < l - 1))
        nxt_users.sort(axis=1)
        parts.append((state_of + lo, action_of + n_actions, prob,
                      _lex_find(lookup, nxt_users)))
        n_actions += len(state_of)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def joint_mdp_optimal(cfg: NetworkConfig) -> float:
    """Exact optimal per-user average age for a tiny joint instance.

    Runs damped relative value iteration on the exchangeable quotient of
    the joint n-user MDP with the true per-slot budget. A state is the
    per-class count vector over ages 1..l, an action the served count of
    each occupied cell (at most its count, m in all), an outcome the
    successes r <= s of each served cell, with probability
    prod C(s, r) p^r (1 - p)^(s - r). Successes restart at age 1, every
    other user ages by one slot, capped at l. The stage cost is the sum
    of the ages and the reference state, row 0, has every user at age 1.

    The Bellman operator of the user-level MDP over all l**n age vectors
    commutes with permutations of same-class users, and the iteration
    starts from v = 0, so every user-level iterate is the quotient iterate
    read at the state's counts. The span, the stopping sweep and the
    returned value are therefore those of the user-level iteration, up to
    floating-point summation order. The user-level state count l**n is
    still what JOINT_STATE_CAP bounds.
    """
    validate_config(cfg)
    n, l = cfg.n, cfg.l
    n_states = l ** n
    if n_states > JOINT_STATE_CAP:
        raise SizeError(
            f"joint state space l**n = {n_states} exceeds cap {JOINT_STATE_CAP}"
        )
    users = _quotient_states(cfg)
    cost = (users % l + 1).sum(axis=1).astype(float)
    state_of, action_of, prob, nxt = _transitions(cfg, users)
    first_action = np.flatnonzero(np.diff(state_of, prepend=-1))

    value = np.zeros(len(users))
    tau = DAMPING
    for _ in range(MAX_ITERS):
        expected = np.bincount(action_of, weights=prob * value[nxt],
                               minlength=len(state_of))
        updated = (1.0 - tau) * value + cost + tau * np.minimum.reduceat(
            expected, first_action)
        diff = updated - value
        span = diff.max() - diff.min()
        value = updated - updated[0]
        if span < SPAN_TOL:
            avg_cost = 0.5 * (diff.max() + diff.min())
            return float(avg_cost) / n
    raise ConvergenceError(
        f"joint rvi did not reach span {SPAN_TOL} in {MAX_ITERS} steps"
    )
