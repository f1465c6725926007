"""Seeded Monte Carlo simulator of the n-user scheduling system.

Every policy here ranks users only by their (class, age) cell, and the
users of one cell are exchangeable. So the simulator does not follow
users: its state is the number of users in each cell, flattened
class-major to k*l counts (cell k*l + age - 1). That count vector is a
Markov chain with the law of the per-user system for every statistic
reported here. R replications are the rows of one (R, k*l) integer
array, and one slot kernel advances all of them.

A served user who fails and an unserved user both age by one, so a slot
needs only each cell's successes. Each policy draws them by its own
rule (see _drawer):

* whittle and greedy_max_age serve m users per row by _serve_in_order:
  cells in ascending _whittle_rank / _greedy_rank order (index or age
  descending, then class ascending), the budget left before each cell
  found by a cumsum against m. Cells that share a rank, a class's
  (l-1, l) truncation tie, are served in ascending age; every split of
  them has the same law, because an unsuccessful user of either cell
  moves to age l. _expected_slot is the same rule on real masses, with
  budget alpha, so it is the kernel's expected whittle slot; it is
  fluid.fluid_step on one row. When m <= k*l each served user draws
  one uniform against its class's p; otherwise the successes are
  Binomial(served, p_k).
* uniform_random serves a multivariate hypergeometric sample of m users
  by one of two exact draws: up to UNIFORM_PERMUTE_MAX_N users, a
  row-wise permutation of the batch's R*n cell ids, one per user, whose
  first m ids each draw one uniform against p; above it, one
  multivariate_hypergeometric call per row, then Binomial(served, p_k).
* rp_threshold schedules each user with its cell's coin and the channel
  succeeds with p, independently, so a cell's successes are one
  Binomial(count, coin * p_k), the coins being relaxed.rp_coins of the
  policy's relaxed solution.

Successful users reset to age 1 and every other user ages by one,
truncated at l. All rows of a batch draw from one Generator, so row r
depends on the number of rows as well as on the seed. Every entry point
takes that seed as an int or a numpy SeedSequence and hands it to
np.random.default_rng, which gives an int the stream of SeedSequence(int).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RangeError, ShapeError
from .index import tie_groups, whittle_index_table
from .model import NetworkConfig, OccupancyVector
from .relaxed import RelaxedSolution, rp_coins, solve_rp

HITTING_CAP = 10 ** 6
# Largest |mass - gamma_k| of an initial occupancy's class k: float
# rounding of masses that sum to gamma_k, far below one user's 1/n.
OCCUPANCY_TOL = 1e-9
# Fraction of the horizon discarded by the warm-up-trimmed average.
WARMUP_FRACTION = 0.1

POLICY_NAMES = ("whittle", "greedy_max_age", "rp_threshold", "uniform_random")
# Largest n at which uniform_random draws by permuting cell ids. One
# serve call with k*l = 100 cells (2 vCPUs, numpy 2.4): with 8 rows the
# permutation took 46-66 us at n = 320, 123-163 us at 1000 and 169-256
# us at 1500, against 166-239 us for the per-row loop at n = 320-2000;
# with 16 rows 272-329 us at 1000 and 461-525 us at 1500 against 310-480.
UNIFORM_PERMUTE_MAX_N = 1000


@dataclass(frozen=True)
class PolicyKind:
    """Scheduling policy selector.

    kind is one of POLICY_NAMES. rp_threshold carries the relaxed
    solution it plays out and schedules each user with its cell's
    relaxed.rp_coins probability, so the number of scheduled users
    varies by design; the other policies schedule exactly m users.
    """

    kind: str
    solution: RelaxedSolution | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_NAMES:
            raise RangeError(f"unknown policy kind {self.kind!r}")
        if self.kind == "rp_threshold" and self.solution is None:
            raise RangeError("rp_threshold needs a relaxed solution")


def whittle_policy() -> PolicyKind:
    return PolicyKind(kind="whittle")


def greedy_policy() -> PolicyKind:
    return PolicyKind(kind="greedy_max_age")


def uniform_policy() -> PolicyKind:
    return PolicyKind(kind="uniform_random")


def rp_policy(sol: RelaxedSolution) -> PolicyKind:
    """Randomized threshold policy realizing the relaxed optimum."""
    return PolicyKind(kind="rp_threshold", solution=sol)


@dataclass(frozen=True, eq=False)
class SimRecord:
    """One seeded simulation run."""

    per_user_avg_age: float
    per_user_avg_age_trimmed: float
    final_occupancy: OccupancyVector


def class_ids(cfg: NetworkConfig) -> np.ndarray:
    return np.repeat(np.arange(cfg.k), cfg.class_sizes())


@lru_cache(maxsize=32)
def _whittle_rank(cfg: NetworkConfig) -> np.ndarray:
    """Rank of each (class, age) cell under (index desc, class asc).

    The package's one cell service order, used by the slot kernel and
    fluid_step, on the index.tie_groups that solve_rp also reads: rank
    is (max group - group) * k + class, so the final user key (rank,
    user id) implements the documented (class, user) tie-break.
    """
    group, _ = tie_groups(whittle_index_table(cfg.p_vector(), cfg.l))
    return (group.max() - group) * cfg.k + np.arange(cfg.k)[:, None]


@lru_cache(maxsize=32)
def _greedy_rank(cfg: NetworkConfig) -> np.ndarray:
    """Rank of each (class, age) cell under (age desc, class asc)."""
    ages = np.arange(1, cfg.l + 1)
    return ((cfg.l - ages)[None, :] * cfg.k
            + np.arange(cfg.k)[:, None]).astype(np.int64)


@lru_cache(maxsize=32)
def _whittle_order(cfg: NetworkConfig) -> np.ndarray:
    """Flat cells in ascending _whittle_rank, ascending age within a rank."""
    order = np.argsort(_whittle_rank(cfg).ravel(), kind="stable")
    order.setflags(write=False)
    return order


@lru_cache(maxsize=32)
def _greedy_order(cfg: NetworkConfig) -> np.ndarray:
    """Flat cells in ascending _greedy_rank."""
    order = np.argsort(_greedy_rank(cfg).ravel(), kind="stable")
    order.setflags(write=False)
    return order


@lru_cache(maxsize=32)
def _p_cells(cfg: NetworkConfig) -> np.ndarray:
    """Success probability of each flat cell, class-major."""
    p_cells = np.repeat(cfg.p_vector(), cfg.l)
    p_cells.setflags(write=False)
    return p_cells


def _serve_in_order(amounts: np.ndarray, budget, order: np.ndarray) -> np.ndarray:
    """Serve each row's cells one by one in `order` until budget is spent.

    amounts is (rows, k*l): user counts or real masses. A cell gets the
    smaller of its own amount and the budget the cells before it left,
    clip(budget - cumsum + own, 0, own) in service order, so at most one
    cell per row is partly served.
    """
    ranked = amounts[:, order]
    left = budget - np.cumsum(ranked, axis=1) + ranked
    served = np.empty_like(amounts)
    served[:, order] = np.minimum(np.maximum(left, 0), ranked)
    return served


def _initial_array(initial, cfg: NetworkConfig) -> np.ndarray:
    """Explicit ages, checked and cast to int64, or a (k, l) occupancy.

    An occupancy's entries must be finite and nonnegative, and each
    class's mass must be gamma_k to within OCCUPANCY_TOL.
    """
    if isinstance(initial, OccupancyVector):
        initial = initial.z
    arr = np.asarray(initial)
    if arr.ndim != 1:
        if arr.shape != (cfg.k, cfg.l):
            raise ShapeError(f"occupancy shape {arr.shape} != {(cfg.k, cfg.l)}")
        if not (np.isfinite(arr) & (arr >= 0)).all():
            raise RangeError("occupancy entries must be finite and >= 0")
        miss = np.abs(arr.sum(axis=1) - cfg.gamma_vector()).max()
        if miss > OCCUPANCY_TOL:
            raise ShapeError(f"occupancy class mass misses gamma by {miss:.3e}")
        return arr
    if arr.shape != (cfg.n,):
        raise ShapeError(f"expected {cfg.n} ages, got {arr.shape}")
    ages = arr.astype(np.int64)
    if ages.min() < 1 or ages.max() > cfg.l:
        raise RangeError(f"ages must lie in 1..{cfg.l}")
    return ages


def _initial_counts(initial, cfg: NetworkConfig) -> np.ndarray:
    """The k*l cell counts of explicit ages or of an occupancy vector.

    Occupancies are rounded to the 1/n grid by largest-remainder
    apportionment within each class.
    """
    arr = _initial_array(initial, cfg)
    if arr.ndim == 1:
        return np.bincount(class_ids(cfg) * cfg.l + arr - 1,
                           minlength=cfg.k * cfg.l)
    target = arr * cfg.n
    counts = np.floor(target).astype(np.int64)
    for k, size in enumerate(cfg.class_sizes()):
        short = size - counts[k].sum()
        if short < 0:
            raise ShapeError(f"class {k}: occupancy mass exceeds gamma*n")
        if short > 0:
            remainder = target[k] - counts[k]
            top = np.argsort(-remainder, kind="stable")[:short]
            counts[k, top] += 1
    return counts.ravel()


def make_initial_ages(initial, cfg: NetworkConfig) -> np.ndarray:
    """Per-user ages from either explicit ages or an occupancy vector.

    Explicit ages are checked and returned as int64. An occupancy is
    rounded by _initial_counts, and users of a class get its ages in
    increasing order.
    """
    arr = _initial_array(initial, cfg)
    if arr.ndim == 1:
        return arr
    return np.repeat(np.tile(np.arange(1, cfg.l + 1), cfg.k),
                     _initial_counts(arr, cfg))


def _drawer(cfg: NetworkConfig, policy: PolicyKind, rows: int):
    """The policy's slot on (rows, k*l) counts: draw(counts, rng) -> successes.

    Each rule is an exact draw of the per-user law. Where users are drawn
    one by one, ids index the batch's flat cells and p_rows is their
    success probability.

    uniform_random has two exact draws of one multivariate hypergeometric
    law. Up to UNIFORM_PERMUTE_MAX_N users it expands the counts to R*n
    cell ids, one per user, shuffles each row and serves its first m ids,
    since the first m entries of a uniform permutation are a uniform
    m-subset; time and memory are O(R*n). Above the cutoff it makes one
    Generator.multivariate_hypergeometric call per row, whose cost does
    not grow with n; the permutation overtakes it between n = 1000 and
    1500 at k*l = 100. The two draws give different streams.
    """
    m = cfg.m
    p_cells = _p_cells(cfg)
    ids = np.arange(rows * cfg.k * cfg.l)
    p_rows = np.tile(p_cells, rows)

    def bernoulli(cell, rng):
        won = cell[rng.random(cell.size) < p_rows[cell]]
        return np.bincount(won, minlength=ids.size).reshape(rows, -1)

    if policy.kind in ("whittle", "greedy_max_age"):
        order = (_whittle_order(cfg) if policy.kind == "whittle"
                 else _greedy_order(cfg))
        # One uniform per served user costs O(R*m); Generator.binomial
        # costs about 6 us per call plus 8-10 ns per cell, served or not.
        # One success draw from Dirichlet-spread counts, R = 8 and
        # 16 rows (2 vCPUs, numpy 2.4): at k*l = 100 the uniforms took
        # 6-35 us against 15-59 us for m <= 100, and 20-56 against
        # 29-64 us at m = 200; at k*l = 1000, 58-176 against 157-390 us
        # for m <= 1000, but 598-650 against 487-497 us at m = 2000,
        # R = 16. So the crossover lies between k*l and 2*k*l.
        if m <= cfg.k * cfg.l:
            def draw(counts, rng):
                served = _serve_in_order(counts, m, order)
                return bernoulli(np.repeat(ids, served.ravel()), rng)
        else:
            def draw(counts, rng):
                return rng.binomial(_serve_in_order(counts, m, order), p_cells)
    elif policy.kind == "uniform_random" and cfg.n <= UNIFORM_PERMUTE_MAX_N:
        def draw(counts, rng):
            # Every row sums to n, so row r's n ids are its own cells.
            users = np.repeat(ids, counts.ravel()).reshape(rows, -1)
            return bernoulli(rng.permuted(users, axis=1)[:, :m].ravel(), rng)
    elif policy.kind == "uniform_random":
        def draw(counts, rng):
            served = np.array([rng.multivariate_hypergeometric(row, m)
                               for row in counts])
            return rng.binomial(served, p_cells)
    else:
        q_cells = rp_coins(policy.solution, cfg).ravel() * p_cells

        def draw(counts, rng):
            return rng.binomial(counts, q_cells)
    return draw


def _advance(counts, successes, l: int) -> np.ndarray:
    """Next counts: successes reset to age 1, every other user ages.

    Linear in successes, so real-valued expected successes give the
    expected next counts.
    """
    rest = (counts - successes).reshape(len(counts), -1, l)
    nxt = np.empty_like(rest)
    nxt[:, :, 1:] = rest[:, :, :-1]
    nxt[:, :, -1] += rest[:, :, -1]
    nxt[:, :, 0] = successes.reshape(rest.shape).sum(axis=2)
    return nxt.reshape(counts.shape)


def _expected_slot(masses: np.ndarray, cfg: NetworkConfig) -> np.ndarray:
    """The whittle kernel's expected slot on (rows, k*l) real masses.

    Each row is served by _serve_in_order in Whittle order with budget
    alpha, p times the served masses are the expected successes, and
    _advance, linear in them, gives the expected next masses.
    """
    served = _serve_in_order(masses, cfg.alpha, _whittle_order(cfg))
    return _advance(masses, served * _p_cells(cfg), cfg.l)


def _paths(cfg: NetworkConfig, policy: PolicyKind, initial, rows: int, rng):
    """Yield the (rows, k*l) counts of slots 0, 1, 2, ... without end.

    Every row starts from _initial_counts(initial). Callers must not
    modify a yielded array. Counts are int64, so n must be below 2**63.
    """
    if cfg.n >= 2 ** 63:
        raise RangeError(f"n = {cfg.n} must be below 2**63 (int64 counts)")
    draw = _drawer(cfg, policy, rows)
    counts = np.tile(_initial_counts(initial, cfg), (rows, 1))
    while True:
        yield counts
        counts = _advance(counts, draw(counts, rng), cfg.l)


def check_horizon(cfg: NetworkConfig, horizon: int) -> None:
    """RangeError unless horizon >= 1 and horizon*n*l, the largest age
    sum simulate accumulates per row in int64, is below 2**63."""
    if horizon < 1:
        raise RangeError(f"horizon must be >= 1, got {horizon}")
    if (total := int(horizon) * cfg.n * cfg.l) >= 2 ** 63:
        raise RangeError(f"horizon*n*l = {total} must be below 2**63 (int64 sums)")


def _check_rows(replications: int) -> None:
    if replications < 1:
        raise RangeError(f"replications must be >= 1, got {replications}")


def simulate(cfg: NetworkConfig, policy: PolicyKind, horizon: int,
             seed: int | np.random.SeedSequence, initial,
             replications: int | None = None):
    """Run seeded replications and return their averages.

    With replications None one replication runs and its SimRecord is
    returned; with an integer R the R replications run as one batch and
    a list of R records is returned, row r's record at index r. The
    per-user average age samples the state at slots 0..horizon-1 (the
    initial state is the first sample); the trimmed variant discards the
    first WARMUP_FRACTION of the horizon. final_occupancy is the state
    after horizon slots. Identical arguments give bit-identical records.
    Ages are summed in int64: check_horizon raises RangeError unless
    horizon*n*l is below 2**63.
    """
    check_horizon(cfg, horizon)
    rows = 1 if replications is None else replications
    _check_rows(rows)
    n, k, l = cfg.n, cfg.k, cfg.l
    cell_ages = np.tile(np.arange(1, l + 1), k)
    skip = int(horizon * WARMUP_FRACTION)
    head = np.zeros(rows, dtype=np.int64)
    tail = np.zeros(rows, dtype=np.int64)
    for t, counts in enumerate(_paths(cfg, policy, initial, rows,
                                      np.random.default_rng(seed))):
        if t == horizon:
            break
        if t < skip:
            head += counts @ cell_ages
        else:
            tail += counts @ cell_ages
    records = []
    for r in range(rows):
        records.append(SimRecord(
            per_user_avg_age=int(head[r] + tail[r]) / (horizon * n),
            per_user_avg_age_trimmed=int(tail[r]) / ((horizon - skip) * n),
            final_occupancy=OccupancyVector(z=counts[r].reshape(k, l) / n),
        ))
    return records[0] if replications is None else records


def hitting_times(cfg: NetworkConfig, initial, epsilon: float,
                  seed: int | np.random.SeedSequence, replications: int,
                  cap: int = HITTING_CAP,
                  sol: RelaxedSolution | None = None) -> list[int | None]:
    """First slot at which each Whittle replication is within epsilon of z_star.

    Euclidean norm over all (class, age) cells; the initial state counts
    as slot 0. The replications run as one batch; a row that has not
    entered the ball after cap slots reads None.
    """
    if not epsilon > 0:
        raise RangeError(f"epsilon must be > 0, got {epsilon}")
    if cap < 0:
        raise RangeError(f"cap must be >= 0, got {cap}")
    _check_rows(replications)
    if sol is None:
        sol = solve_rp(cfg)
    z_star = sol.z_star.z.ravel()
    hits: list[int | None] = [None] * replications
    waiting = np.ones(replications, dtype=bool)
    for t, counts in enumerate(_paths(cfg, whittle_policy(), initial,
                                      replications,
                                      np.random.default_rng(seed))):
        inside = np.linalg.norm(counts / cfg.n - z_star, axis=1) <= epsilon
        for r in np.flatnonzero(inside & waiting):
            hits[r] = t
        waiting &= ~inside
        if t == cap or not waiting.any():
            return hits


def hitting_time(cfg: NetworkConfig, initial, epsilon: float,
                 seed: int | np.random.SeedSequence, cap: int = HITTING_CAP,
                 sol: RelaxedSolution | None = None) -> int | None:
    """hitting_times of a single replication: an int, or None past cap."""
    return hitting_times(cfg, initial, epsilon, seed, 1, cap=cap, sol=sol)[0]


def fluid_deviation(cfg: NetworkConfig, horizon: int,
                    seed: int | np.random.SeedSequence, initial,
                    sol: RelaxedSolution | None = None) -> float:
    """sup_t ||empirical occupancy - fluid trajectory|| from a shared start.

    Runs the Whittle chain and the deterministic fluid iteration from the
    same initial occupancy (the empirical one after rounding) and returns
    the largest Euclidean gap over slots 0..horizon-1; the fluid side is
    _expected_slot on one row, fluid.fluid_step's own map. sol is not
    needed and is accepted for existing callers.
    """
    worst = 0.0
    z_fluid = None
    for t, counts in enumerate(_paths(cfg, whittle_policy(), initial, 1,
                                      np.random.default_rng(seed))):
        if t == horizon:
            return worst
        occ = counts / cfg.n
        if z_fluid is None:
            z_fluid = occ
        worst = max(worst, float(np.linalg.norm(occ[0] - z_fluid[0])))
        z_fluid = _expected_slot(z_fluid, cfg)
