"""Seeded Monte Carlo simulator of the n-user scheduling system.

Users are laid out class-major: users of class 0 first, then class 1,
and so on, matching the grouping of empirical_occupancy. Per slot a
policy picks the scheduled set, each scheduled user succeeds with its
class probability, and ages grow truncated at l.

Selection policies rank users by precomputed per-cell keys, so one slot
costs a table lookup plus a partial sort. Replication r of a run draws
its generator from SeedSequence([master_seed, r]), which keeps parallel
replications order-independent.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RangeError, ShapeError
from .index import service_order
from .model import NetworkConfig, OccupancyVector
from .relaxed import RelaxedSolution

HITTING_CAP = 10 ** 6
# Fraction of the horizon discarded by the warm-up-trimmed average.
WARMUP_FRACTION = 0.1

POLICY_NAMES = ("whittle", "greedy_max_age", "rp_threshold", "uniform_random")


@dataclass(frozen=True)
class PolicyKind:
    """Scheduling policy selector.

    kind is one of POLICY_NAMES. rp_threshold carries the relaxed
    solution's data: per-class (l1, l2) pairs (equal entries for
    non-critical classes, set to their effective threshold), the critical
    class, and theta_star. It schedules every user whose age passes its
    own randomized threshold test, so the number of scheduled users
    varies by design; the other policies schedule exactly m users.
    """

    kind: str
    w_star: float | None = None
    theta_star: float | None = None
    thresholds: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_NAMES:
            raise RangeError(f"unknown policy kind {self.kind!r}")
        if self.kind == "rp_threshold":
            if self.theta_star is None or self.thresholds is None:
                raise RangeError("rp_threshold needs theta_star and thresholds")


def whittle_policy() -> PolicyKind:
    return PolicyKind(kind="whittle")


def greedy_policy() -> PolicyKind:
    return PolicyKind(kind="greedy_max_age")


def uniform_policy() -> PolicyKind:
    return PolicyKind(kind="uniform_random")


def rp_policy(sol: RelaxedSolution) -> PolicyKind:
    """Randomized threshold policy realizing the relaxed optimum."""
    pairs = []
    for k, (l1, l2) in enumerate(sol.thresholds):
        if k == sol.m:
            pairs.append((l1, l2))
        else:
            pairs.append((sol.l_star[k], sol.l_star[k]))
    return PolicyKind(
        kind="rp_threshold",
        w_star=sol.w_star,
        theta_star=sol.theta_star,
        thresholds=tuple(pairs),
    )


@dataclass(frozen=True, eq=False)
class SimRecord:
    """One seeded simulation run."""

    seed: int
    horizon: int
    per_user_avg_age: float
    per_user_avg_age_trimmed: float
    final_occupancy: OccupancyVector
    trace: np.ndarray | None = None
    hitting_time: int | None = None


def class_ids(cfg: NetworkConfig) -> np.ndarray:
    return np.repeat(np.arange(cfg.k), cfg.class_sizes())


@lru_cache(maxsize=32)
def _whittle_rank(cfg: NetworkConfig) -> np.ndarray:
    """Rank of each (class, age) cell under (index desc, class asc).

    Cells tied in index value share a rank group, so the final user key
    (rank, user id) implements the documented (class, user) tie-break.
    """
    order, group_sorted = service_order(tuple(cfg.p_vector()), cfg.l)
    group = np.empty(order.size, dtype=np.int64)
    group[order] = group_sorted
    ranks = (group.reshape(cfg.k, cfg.l) * cfg.k
             + np.arange(cfg.k)[:, None])
    return np.ascontiguousarray(ranks)


@lru_cache(maxsize=32)
def _greedy_rank(cfg: NetworkConfig) -> np.ndarray:
    """Rank of each (class, age) cell under (age desc, class asc)."""
    ages = np.arange(1, cfg.l + 1)
    return ((cfg.l - ages)[None, :] * cfg.k
            + np.arange(cfg.k)[:, None]).astype(np.int64)


def _top_m(rank_table, ages, cls, m, n, rng=None):
    uid = np.arange(n) if rng is None else rng.permutation(n)
    keys = rank_table[cls, ages - 1] * n + uid
    return np.argpartition(keys, m - 1)[:m]


def whittle_schedule(ages, cfg: NetworkConfig, tie_break: str = "deterministic",
                     rng=None) -> np.ndarray:
    """The m users with the largest index values, ties by (class, user).

    tie_break="random" replaces the user-id tie-break with a seeded
    random permutation drawn from rng.
    """
    ages = np.asarray(ages)
    if ages.shape != (cfg.n,):
        raise ShapeError(f"expected {cfg.n} ages, got {ages.shape}")
    r = rng if tie_break == "random" else None
    sel = _top_m(_whittle_rank(cfg), ages, class_ids(cfg), cfg.m, cfg.n, r)
    return np.sort(sel)


def step(ages, scheduled, p_user, l, rng, channel=None):
    """One slot transition: scheduled successes reset, everyone else ages.

    channel optionally overrides the Bernoulli draws with a per-user
    boolean success array (used to force failures in tests).
    """
    ages = np.asarray(ages)
    nxt = np.minimum(ages + 1, l)
    if len(scheduled):
        if channel is None:
            ok = rng.random(len(scheduled)) < p_user[scheduled]
        else:
            ok = np.asarray(channel)[scheduled]
        nxt[scheduled[ok]] = 1
    return nxt


def make_initial_ages(initial, cfg: NetworkConfig) -> np.ndarray:
    """Per-user ages from either explicit ages or an occupancy vector.

    Occupancies are rounded to the 1/n grid by largest-remainder
    apportionment within each class; users of a class get its ages in
    increasing order.
    """
    if isinstance(initial, OccupancyVector):
        initial = initial.z
    arr = np.asarray(initial)
    if arr.ndim == 1:
        if arr.shape != (cfg.n,):
            raise ShapeError(f"expected {cfg.n} ages, got {arr.shape}")
        ages = arr.astype(np.int64)
        if ages.min() < 1 or ages.max() > cfg.l:
            raise RangeError(f"ages must lie in 1..{cfg.l}")
        return ages
    if arr.shape != (cfg.k, cfg.l):
        raise ShapeError(f"occupancy shape {arr.shape} != {(cfg.k, cfg.l)}")
    ages = np.empty(cfg.n, dtype=np.int64)
    start = 0
    for k, size in enumerate(cfg.class_sizes()):
        target = arr[k] * cfg.n
        counts = np.floor(target).astype(np.int64)
        short = size - counts.sum()
        if short < 0:
            raise ShapeError(f"class {k}: occupancy mass exceeds gamma*n")
        if short > 0:
            remainder = target - counts
            top = np.argsort(-remainder, kind="stable")[:short]
            counts[top] += 1
        ages[start : start + size] = np.repeat(
            np.arange(1, cfg.l + 1), counts
        )
        start += size
    return ages


def _occupancy_counts(ages, cls, cfg: NetworkConfig) -> np.ndarray:
    flat = cls * cfg.l + (ages - 1)
    return np.bincount(flat, minlength=cfg.k * cfg.l).reshape(cfg.k, cfg.l)


def simulate(cfg: NetworkConfig, policy: PolicyKind, horizon: int, seed: int,
             initial, record_trace: bool = False, stream=None,
             tie_break: str = "deterministic") -> SimRecord:
    """Run one seeded replication and return its averages.

    The per-user average age samples the state at slots 0..horizon-1
    (the initial state is the first sample). The trimmed variant discards
    the first WARMUP_FRACTION of the horizon. Identical arguments give a
    bit-identical record; stream may carry a pre-derived SeedSequence for
    replication fan-out, otherwise the integer seed is used alone.
    """
    if horizon < 1:
        raise RangeError(f"horizon must be >= 1, got {horizon}")
    rng = np.random.default_rng(
        stream if stream is not None else np.random.SeedSequence(seed)
    )
    cls = class_ids(cfg)
    p_user = cfg.p_vector()[cls]
    ages = make_initial_ages(initial, cfg).copy()
    n, m, l = cfg.n, cfg.m, cfg.l

    if policy.kind == "whittle":
        rank = _whittle_rank(cfg)
    elif policy.kind == "greedy_max_age":
        rank = _greedy_rank(cfg)
    elif policy.kind == "rp_threshold":
        hi = np.array([pair[0] for pair in policy.thresholds])[cls]
        lo = np.array([pair[1] for pair in policy.thresholds])[cls]
        theta = policy.theta_star

    random_ties = tie_break == "random"
    skip = int(horizon * WARMUP_FRACTION)
    total = 0
    total_tail = 0
    trace = np.empty((horizon, cfg.k, cfg.l)) if record_trace else None

    for t in range(horizon):
        total += int(ages.sum())
        if t >= skip:
            total_tail += int(ages.sum())
        if record_trace:
            trace[t] = _occupancy_counts(ages, cls, cfg) / n
        if policy.kind in ("whittle", "greedy_max_age"):
            sched = _top_m(rank, ages, cls, m, n, rng if random_ties else None)
        elif policy.kind == "uniform_random":
            sched = rng.choice(n, size=m, replace=False)
        else:
            coins = rng.random(n)
            mask = (ages >= hi) | ((ages >= lo) & (coins < theta))
            sched = np.flatnonzero(mask)
        ages = step(ages, sched, p_user, l, rng)

    denom_tail = max(horizon - skip, 1)
    final_counts = _occupancy_counts(ages, cls, cfg)
    return SimRecord(
        seed=seed,
        horizon=horizon,
        per_user_avg_age=total / (horizon * n),
        per_user_avg_age_trimmed=total_tail / (denom_tail * n)
        if horizon > skip
        else total / (horizon * n),
        final_occupancy=OccupancyVector(
            z=final_counts / n, counts=final_counts, n=n
        ),
        trace=trace,
    )


def hitting_time(cfg: NetworkConfig, initial, epsilon: float, seed: int,
                 cap: int = HITTING_CAP, sol: RelaxedSolution | None = None,
                 stream=None) -> int | None:
    """First slot at which the Whittle occupancy is within epsilon of z_star.

    Euclidean norm over all (class, age) cells; the initial state counts
    as slot 0. Returns None when cap slots pass without entering the
    ball.
    """
    if not epsilon > 0:
        raise RangeError(f"epsilon must be > 0, got {epsilon}")
    if cap < 0:
        raise RangeError(f"cap must be >= 0, got {cap}")
    if sol is None:
        from .relaxed import solve_rp

        sol = solve_rp(cfg)
    rng = np.random.default_rng(
        stream if stream is not None else np.random.SeedSequence(seed)
    )
    cls = class_ids(cfg)
    p_user = cfg.p_vector()[cls]
    rank = _whittle_rank(cfg)
    z_star = sol.z_star.z.ravel()
    ages = make_initial_ages(initial, cfg).copy()
    n, m, l = cfg.n, cfg.m, cfg.l
    for t in range(cap + 1):
        occ = np.bincount(cls * l + (ages - 1), minlength=cfg.k * l) / n
        if np.linalg.norm(occ - z_star) <= epsilon:
            return t
        sched = _top_m(rank, ages, cls, m, n)
        ages = step(ages, sched, p_user, l, rng)
    return None


def fluid_deviation(cfg: NetworkConfig, horizon: int, seed: int, initial,
                    sol: RelaxedSolution | None = None, stream=None) -> float:
    """sup_t ||empirical occupancy - fluid trajectory|| from a shared start.

    Runs the Whittle chain and the deterministic fluid iteration from the
    same initial occupancy (the empirical one after rounding) and returns
    the largest Euclidean gap over slots 0..horizon-1.
    """
    from .fluid import fluid_step

    if sol is None:
        from .relaxed import solve_rp

        sol = solve_rp(cfg)
    rng = np.random.default_rng(
        stream if stream is not None else np.random.SeedSequence(seed)
    )
    cls = class_ids(cfg)
    p_user = cfg.p_vector()[cls]
    rank = _whittle_rank(cfg)
    ages = make_initial_ages(initial, cfg).copy()
    n, m, l = cfg.n, cfg.m, cfg.l
    z_fluid = _occupancy_counts(ages, cls, cfg) / n
    worst = 0.0
    for t in range(horizon):
        occ = _occupancy_counts(ages, cls, cfg) / n
        worst = max(worst, float(np.linalg.norm(occ - z_fluid)))
        sched = _top_m(rank, ages, cls, m, n)
        ages = step(ages, sched, p_user, l, rng)
        z_fluid = fluid_step(z_fluid, cfg).z
    return worst
