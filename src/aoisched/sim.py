"""Seeded Monte Carlo simulator of the n-user scheduling system.

Every policy here ranks users only by their (class, age) cell, and the
users of one cell are exchangeable. So the simulator does not follow
users: its state is the number of users in each cell, flattened
class-major to k*l counts (cell k*l + age - 1). That count vector is a
Markov chain with the law of the per-user system for every statistic
reported here. A start, explicit ages or an occupancy, enters only as
its cell counts, by _initial_counts. R replications of one config are
a block of R rows, and one slot kernel, _paths, advances a stack of
blocks as one (blocks*R, k*l) integer array: simulate, hitting_times
and fluid_deviation pass one block, and cli.run_experiment passes
_simulate_blocks one block per n of a sweep, once per policy. Stacked
blocks share the policy kind, k, l and p; each keeps its own n, m,
draw rule and Generator, so its rows do not depend on the other blocks.

A served user who fails and an unserved user both age by one, so a slot
needs only each cell's successes. Each policy names its users at risk
and their success probability, and each block draws them by one of two
exact rules (see _drawer): one uniform per user at risk, drawn in
flat-cell order by one Bernoulli tail shared by the stacked blocks, up
to the policy's cutoff, and per-cell Binomial draws above it.

* whittle and greedy_max_age serve m users per row by _serve_in_order:
  cells in ascending _whittle_rank / _greedy_rank order (index or age
  descending, then class ascending), the budget left before each cell
  found by a cumsum against m. Cells that share a rank, a class's
  (l-1, l) truncation tie, are served in ascending age; every split of
  them has the same law, because an unsuccessful user of either cell
  moves to age l. _expected_slot is the same rule on real masses, with
  budget alpha, so it is the kernel's expected whittle slot; it is
  fluid.fluid_step on one row. When m <= min(2*k*l, 0.8*k*l + 120)
  each served user draws one uniform against its class's p; otherwise
  the successes are Binomial(served, p_k).
* uniform_random serves a uniform m-subset of the users. Up to
  UNIFORM_KEYS_MAX_N users each user draws one key, and a user succeeds
  when its key is below p * s, s being its row's (m+1)-th smallest key;
  above it, one multivariate_hypergeometric call per row serves the
  users, then Binomial(served, p_k); that call needs n < 10**9.
* rp_threshold schedules each user with its cell's coin and the channel
  succeeds with p, independently, the coins being relaxed.rp_coins of
  the policy's relaxed solution. When m is within the ordered
  policies' bound and n <= 4*k*l, every user of a cell with coin > 0
  draws one uniform against coin * p_k; otherwise a cell's successes
  are one Binomial(count, coin * p_k).

Successful users reset to age 1 and every other user ages by one,
truncated at l. All rows of a block draw from one Generator, so row r
depends on the number of rows as well as on the seed. Every entry point
takes that seed as an int or a numpy SeedSequence and hands it to
np.random.default_rng, which gives an int the stream of SeedSequence(int)
and passes a Generator through unchanged.
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
# Largest n at which uniform_random draws one key per user. One draw
# call from counts 60 slots after z_star, keys against the per-row
# multivariate_hypergeometric loop, 8 | 16 rows (2 vCPUs, numpy 2.4):
# at k*l = 100, 56 | 92 against 241 | 397 us at n = 320, 146 | 212
# against 279 | 407 us at n = 1000 and 280 | 489 against 368 | 440 us at
# n = 1500; at k*l = 1000, 849 | 1692 against 1071 | 1911 us at n = 4000
# and 1640 | 3455 against 1059 | 2037 us at n = 8000. The loop's cost
# grows with k*l and the keys' with n, but the cutoff is on n alone.
UNIFORM_KEYS_MAX_N = 1000


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


@lru_cache(maxsize=64)
def _order(cfg: NetworkConfig, kind: str) -> np.ndarray:
    """Flat cells in ascending _whittle_rank (kind "whittle") or
    _greedy_rank (kind "greedy_max_age"), ascending age within a rank."""
    rank = _whittle_rank(cfg) if kind == "whittle" else _greedy_rank(cfg)
    order = np.argsort(rank.ravel(), kind="stable")
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


def _initial_counts(initial, cfg: NetworkConfig) -> np.ndarray:
    """The k*l cell counts of explicit ages or of a (k, l) occupancy.

    Explicit ages are n integer values in 1..l. An occupancy's entries
    must be finite and nonnegative, and each class's mass must be gamma_k
    to within OCCUPANCY_TOL; it is rounded to the 1/n grid by
    largest-remainder apportionment within each class, over the cells of
    positive mass only. That rounds each such cell up by at most one
    user, so a class whose floored counts fall short of its size by more
    than its number of positive cells (a mass deficit within the
    tolerance but above l/n, possible once n > 1e9) is a ShapeError, as
    is one whose floored counts already exceed it.
    """
    if isinstance(initial, OccupancyVector):
        initial = initial.z
    arr = np.asarray(initial)
    if arr.ndim == 1:
        if arr.shape != (cfg.n,):
            raise ShapeError(f"expected {cfg.n} ages, got {arr.shape}")
        if not ((arr >= 1) & (arr <= cfg.l) & (arr == np.floor(arr))).all():
            raise RangeError(f"ages must be integers in 1..{cfg.l}")
        return np.bincount(class_ids(cfg) * cfg.l + arr.astype(np.int64) - 1,
                           minlength=cfg.k * cfg.l)
    if arr.shape != (cfg.k, cfg.l):
        raise ShapeError(f"occupancy shape {arr.shape} != {(cfg.k, cfg.l)}")
    if not (np.isfinite(arr) & (arr >= 0)).all():
        raise RangeError("occupancy entries must be finite and >= 0")
    miss = np.abs(arr.sum(axis=1) - cfg.gamma_vector()).max()
    if miss > OCCUPANCY_TOL:
        raise ShapeError(f"occupancy class mass misses gamma by {miss:.3e}")
    target = arr * cfg.n
    counts = np.floor(target).astype(np.int64)
    for k, size in enumerate(cfg.class_sizes()):
        short = size - counts[k].sum()
        positive = np.count_nonzero(target[k])
        if short < 0:
            raise ShapeError(f"class {k}: occupancy mass exceeds gamma*n")
        if short > positive:
            raise ShapeError(f"class {k}: occupancy mass is {short} users short "
                             f"of gamma*n, more than its {positive} cells of "
                             f"positive mass round up")
        if short > 0:
            # zero-mass cells rank last, below every real remainder
            remainder = np.where(target[k] > 0, target[k] - counts[k], -1.0)
            top = np.argsort(-remainder, kind="stable")[:short]
            counts[k, top] += 1
    return counts.ravel()


def _draws_per_user(cfg: NetworkConfig, kind: str) -> bool:
    """Whether a block of cfg draws one uniform per user at risk (True)
    or per cell or per row (False); see _drawer. Both are exact draws of
    one law, so the rule picks the cheaper one by cost alone, and with
    it the block's stream.

    A per-user draw costs O(R * users at risk), a Binomial call a few us
    plus 8-10 ns per cell, served or not. One draw call from counts 60
    slots after z_star (k = 2, alpha 0.5, p (0.8, 0.2)), per-user against
    Binomial, both forced, 8 | 16 rows (2 vCPUs, numpy 2.4), whittle:

        k*l = 16:    23 | 28 against  24 | 31 us at m = 32,
                     28 | 36 against  25 | 33 us at m = 100;
        k*l = 100:   40 | 62 against  40 | 62 us at m = 200,
                     45 | 65 against  42 | 60 us at m = 250;
        k*l = 400:  121 | 141 against 119 | 143 us at m = 440,
                     86 | 253 against  77 | 141 us at m = 600;
        k*l = 1000: 162 | 290 against 164 | 289 us at m = 920,
                    181 | 474 against 171 | 303 us at m = 1100.

    So the ordered policies, whose users at risk are the m served, draw
    per user while m <= min(2*k*l, 0.8*k*l + 120); greedy_max_age's
    crossover lies alike. rp_threshold's users at risk, every user of a
    cell with coin > 0, number about m in steady state, and its
    crossover lies alike, but m does not bound them: a `maxed` start
    puts every user at age l, so at n = 10**8, alpha = 1e-6 (m = 100)
    and k*l = 100 the 5*10**7 users of the class with coin > 0 there
    are all at risk. So rp_threshold also needs n <= 4*k*l, which bounds
    its per-user draw by 4*k*l uniforms per row. That bound forgoes
    little: at k*l = 100, alpha 0.1 and n = 800 the per-user draw took
    17 | 24 us against the Binomial's 22 | 34 us.
    """
    if kind == "uniform_random":
        return cfg.n <= UNIFORM_KEYS_MAX_N
    cells = cfg.k * cfg.l
    ordered = cfg.m <= 2 * cells and 5 * cfg.m <= 4 * cells + 600
    if kind == "rp_threshold":
        return ordered and cfg.n <= 4 * cells
    return ordered


def _drawer(blocks, rows: int):
    """The blocks' slot on their stacked counts: draw(counts) -> successes.

    A block is (cfg, policy, initial, rng) with `rows` rows; counts is
    (len(blocks)*rows, k*l), block b's rows at b*rows onward. The blocks
    must share policy.kind, k, l and the classes' p (ShapeError
    otherwise), so they share one service order and one p per cell;
    their n, m and policy solutions may differ. Each block draws from its
    own rng by the rule its own n and m select, in the order it would
    draw alone, so its successes do not depend on the other blocks. Each
    rule is an exact draw of the per-user law.

    Where _draws_per_user holds, a block draws per user: its policy
    names the users at risk and their success probability q, and one
    Bernoulli tail draws one uniform for each, in flat-cell order, from
    the block's rng; a user succeeds when its uniform is below q. The
    ordered policies' users at risk are the served ones, with q = p, and
    rp_threshold's are the users of every cell with coin > 0, with
    q = coin * p. uniform_random, up to UNIFORM_KEYS_MAX_N users, gives
    each user one key: the m smallest keys are held by a uniform m-subset
    of the users and, given s, the (m+1)-th smallest key (s = 1 when
    m = n), are i.i.d. U(0, s), so the key itself is the user's uniform,
    with q = p * s. Ties between keys, of probability at most about
    n**2 * 2**-53, are the only departure from the exact law. Elsewhere
    the successes are Binomial(served, p) for the ordered
    policies, Binomial(count, coin * p) for rp_threshold and, after one
    Generator.multivariate_hypergeometric call per row, whose cost does
    not grow with n, Binomial(served, p) for uniform_random.
    """
    cfg, policy = blocks[0][:2]
    for other, pol, _, _ in blocks[1:]:
        if (pol.kind, other.k, other.l, other.p_vector().tolist()) != (
                policy.kind, cfg.k, cfg.l, cfg.p_vector().tolist()):
            raise ShapeError("stacked blocks must share the policy kind, k, l and p")
    p_cells = _p_cells(cfg)
    if policy.kind == "rp_threshold":
        q_cells = [rp_coins(pol.solution, bcfg).ravel() * p_cells
                   for bcfg, pol, _, _ in blocks]
    else:
        q_cells = [p_cells] * len(blocks)
    q_rows = np.repeat(q_cells, rows, axis=0)
    ids = np.arange(q_rows.size)
    per_user = np.array([_draws_per_user(bcfg, policy.kind)
                         for bcfg, _, _, _ in blocks])
    tail_rows = np.repeat(per_user, rows)[:, None] & (q_rows > 0)
    tail, rest = [], []
    for b, (bcfg, _, _, rng) in enumerate(blocks):
        span = slice(b * rows, (b + 1) * rows)
        (tail if per_user[b] else rest).append((span, bcfg, rng, q_cells[b]))

    def bernoulli(users, q, uniforms=None):
        """Successes per stacked cell of the per-user blocks' `users`, each
        drawing one uniform in flat-cell order against q of its cell; the
        uniforms are drawn here unless given. The other blocks' rows are
        left for the caller to fill, and without a per-user block nothing
        is masked or drawn."""
        if not tail:
            return np.empty_like(users)
        users = users * tail_rows
        if uniforms is None:
            uniforms = [rng.random(users[span].sum()) for span, _, rng, _ in tail]
        cell = np.repeat(ids, users.ravel())
        won = cell[np.concatenate(uniforms) < q.ravel()[cell]]
        return np.bincount(won, minlength=ids.size).reshape(users.shape)

    if policy.kind in ("whittle", "greedy_max_age"):
        order = _order(cfg, policy.kind)
        budget = np.repeat([bcfg.m for bcfg, _, _, _ in blocks], rows)[:, None]

        def draw(counts):
            served = _serve_in_order(counts, budget, order)
            won = bernoulli(served, q_rows)
            for span, _, rng, q in rest:
                won[span] = rng.binomial(served[span], q)
            return won
    elif policy.kind == "uniform_random":
        def draw(counts):
            keys, scale = [], np.ones((len(counts), 1))
            for span, bcfg, rng, _ in tail:
                key = rng.random((rows, bcfg.n))
                if bcfg.m < bcfg.n:
                    scale[span, 0] = np.partition(key, bcfg.m, axis=1)[:, bcfg.m]
                keys.append(key.ravel())
            won = bernoulli(counts, q_rows * scale, keys)
            for span, bcfg, rng, q in rest:
                served = np.array([rng.multivariate_hypergeometric(row, bcfg.m)
                                   for row in counts[span]])
                won[span] = rng.binomial(served, q)
            return won
    else:
        def draw(counts):
            won = bernoulli(counts, q_rows)
            for span, _, rng, q in rest:
                won[span] = rng.binomial(counts[span], q)
            return won
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
    served = _serve_in_order(masses, cfg.alpha, _order(cfg, "whittle"))
    return _advance(masses, served * _p_cells(cfg), cfg.l)


def _paths(blocks, rows: int):
    """Yield the stacked counts of slots 0, 1, 2, ... without end.

    blocks are (cfg, policy, initial, rng) as _drawer takes them; the
    yielded array is (len(blocks)*rows, k*l), and block b's rows, from
    b*rows on, start from _initial_counts(initial, cfg). Callers must
    not modify a yielded array. _check_draw bounds each block's n.
    """
    for cfg, policy, _, _ in blocks:
        _check_draw(cfg, policy.kind)
    draw = _drawer(blocks, rows)
    counts = np.repeat([_initial_counts(initial, cfg)
                        for cfg, _, initial, _ in blocks], rows, axis=0)
    while True:
        yield counts
        counts = _advance(counts, draw(counts), blocks[0][0].l)


def _check_draw(cfg: NetworkConfig, kind: str) -> None:
    """RangeError unless n fits the policy's draws: counts are int64, so
    n < 2**63, and uniform_random's multivariate_hypergeometric (method
    "marginals") needs n < 10**9."""
    if cfg.n >= 2 ** 63:
        raise RangeError(f"n = {cfg.n} must be below 2**63 (int64 counts)")
    if kind == "uniform_random" and cfg.n >= 10 ** 9:
        raise RangeError(f"uniform_random needs n below 10**9, got {cfg.n}")


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


def _simulate_blocks(blocks, horizon: int, rows: int) -> list[list[SimRecord]]:
    """simulate for every block of one stacked batch (see _drawer).

    Returns, per block, its rows records, equal to those of a lone
    simulate with that block's arguments, since each block draws from
    its own rng in its own order.
    """
    for cfg, _, _, _ in blocks:
        check_horizon(cfg, horizon)
    _check_rows(rows)
    k, l = blocks[0][0].k, blocks[0][0].l
    cell_ages = np.tile(np.arange(1, l + 1), k)
    skip = int(horizon * WARMUP_FRACTION)
    head = np.zeros(len(blocks) * rows, dtype=np.int64)
    tail = np.zeros(len(blocks) * rows, dtype=np.int64)
    for t, counts in enumerate(_paths(blocks, rows)):
        if t == horizon:
            break
        if t < skip:
            head += counts @ cell_ages
        else:
            tail += counts @ cell_ages
    records = []
    for b, (cfg, _, _, _) in enumerate(blocks):
        records.append([SimRecord(
            per_user_avg_age=int(head[r] + tail[r]) / (horizon * cfg.n),
            per_user_avg_age_trimmed=int(tail[r]) / ((horizon - skip) * cfg.n),
            final_occupancy=OccupancyVector(z=counts[r].reshape(k, l) / cfg.n),
        ) for r in range(b * rows, (b + 1) * rows)])
    return records


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
    block = (cfg, policy, initial, np.random.default_rng(seed))
    records = _simulate_blocks([block], horizon,
                               1 if replications is None else replications)[0]
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
    block = (cfg, PolicyKind("whittle"), initial, np.random.default_rng(seed))
    for t, counts in enumerate(_paths([block], replications)):
        inside = np.linalg.norm(counts / cfg.n - z_star, axis=1) <= epsilon
        for r in np.flatnonzero(inside & waiting):
            hits[r] = t
        waiting &= ~inside
        if t == cap or not waiting.any():
            return hits


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
    block = (cfg, PolicyKind("whittle"), initial, np.random.default_rng(seed))
    for t, counts in enumerate(_paths([block], 1)):
        if t == horizon:
            return worst
        occ = counts / cfg.n
        if z_fluid is None:
            z_fluid = occ
        worst = max(worst, float(np.linalg.norm(occ[0] - z_fluid[0])))
        z_fluid = _expected_slot(z_fluid, cfg)
