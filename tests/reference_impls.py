"""Straightforward reference versions of the package's fast paths.

Each function here is a plain implementation, most of them what the
package once shipped: a Python loop over cells for the fluid map, one
over tie groups for the cell ranks and for the fluid map's old
proportional sharing of a tie, dense (k*l) x (k*l) flow matrices for
the linear region, a dense q written one class block at a time, the
served-tail check on dense class blocks, a dense eigensolve of every
undeflated class block, damped relative value iteration and
policy iteration one subsidy at a time for the single-user MDP, the
oracle-check payload built from that loop and scalar cost_pair calls,
a relaxed solver that recomputes the thresholds of each candidate
subsidy from scratch, per-user scheduling and slot rules with
a simulator that follows every user, the per-class loop that turned an
initial occupancy into per-user ages, the count kernel's old slot that
served cells first and drew Binomial(served, p) successes, and a
joint-MDP solver over every user-age vector.
Tests compare the package against them; nothing in src/ imports this
module.
"""
from __future__ import annotations

import itertools

import numpy as np

from aoisched.errors import (
    ConvergenceError,
    InfeasibleError,
    RangeError,
    ShapeError,
    SingularSystemError,
    SizeError,
)
from aoisched.fluid import AFFINE_TOL, NILPOTENT_TOL
from aoisched.index import (
    TIE_TOL,
    age_cost,
    cost_pair,
    optimal_thresholds,
    whittle_index_table,
)
from aoisched.model import OccupancyVector, validate_config
from aoisched.oracle import JOINT_STATE_CAP, RviResult
from aoisched.relaxed import (
    BUDGET_SLACK,
    RelaxedSolution,
    _mixture_z,
    rp_coin,
    scheduled_fraction,
)
from aoisched.sim import (
    UNIFORM_PERMUTE_MAX_N,
    WARMUP_FRACTION,
    _advance,
    _greedy_rank,
    _serve_in_order,
    _whittle_order,
    _whittle_rank,
    class_ids,
    make_initial_ages,
)

DAMPING = 0.5
SPAN_TOL = 1e-9
MAX_ITERS = 10 ** 6
GREEDY_TIE_TOL = 1e-12


def descending_groups(cfg) -> list[np.ndarray]:
    """Flat cell indices grouped by equal index value, best first."""
    table = whittle_index_table(cfg.p_vector(), cfg.l).ravel()
    order = np.argsort(-table, kind="stable")
    groups = []
    current = [order[0]]
    for c in order[1:]:
        if table[current[-1]] - table[c] <= TIE_TOL:
            current.append(c)
        else:
            groups.append(np.array(current, dtype=np.intp))
            current = [c]
    groups.append(np.array(current, dtype=np.intp))
    return groups


def whittle_rank(cfg) -> np.ndarray:
    """Rank of each (class, age) cell under (index desc, class asc)."""
    flat = whittle_index_table(cfg.p_vector(), cfg.l).ravel()
    order = np.argsort(-flat, kind="stable")
    group = np.empty(flat.size, dtype=np.int64)
    gid = 0
    group[order[0]] = 0
    for prev, cur in zip(order[:-1], order[1:]):
        if flat[prev] - flat[cur] > TIE_TOL:
            gid += 1
        group[cur] = gid
    return group.reshape(cfg.k, cfg.l) * cfg.k + np.arange(cfg.k)[:, None]


def _fluid_advance(zmat, sched, cfg) -> OccupancyVector:
    """Served mass resets to age 1 at rate p_k, the rest ages, capped at l."""
    p = cfg.p_vector()[:, None]
    nxt = np.empty_like(zmat)
    nxt[:, 0] = (p[:, 0] * sched.sum(axis=1))
    nxt[:, 1:] = zmat[:, :-1] - p * sched[:, :-1]
    nxt[:, -1] += zmat[:, -1] - p[:, 0] * sched[:, -1]
    return OccupancyVector(z=nxt)


def fluid_step(z, cfg) -> OccupancyVector:
    """One fluid slot, serving the tie groups one at a time.

    A partly served group shares the residual budget over its cells in
    proportion to their mass. This was the package's fluid map before it
    took the slot kernel's rule; the two differ only where the budget
    splits a tie group that spans several classes.
    """
    zmat = np.array(z, dtype=float)
    flat = zmat.ravel()
    frac = np.zeros_like(flat)
    residual = cfg.alpha
    for cells in descending_groups(cfg):
        if residual <= 0.0:
            break
        mass = flat[cells].sum()
        if mass <= residual:
            frac[cells] = 1.0
            residual -= mass
        else:
            if mass > 0.0:
                frac[cells] = residual / mass
            residual = 0.0
    return _fluid_advance(zmat, (frac * flat).reshape(cfg.k, cfg.l), cfg)


def kernel_fluid_step(z, cfg) -> OccupancyVector:
    """One fluid slot by the slot kernel's rule, one cell at a time.

    Cells go in ascending whittle_rank, ascending age within a rank, and
    each takes the smaller of its mass and the budget still left.
    """
    zmat = np.array(z, dtype=float)
    flat = zmat.ravel()
    served = np.zeros_like(flat)
    residual = cfg.alpha
    for c in np.argsort(whittle_rank(cfg).ravel(), kind="stable"):
        served[c] = min(flat[c], max(residual, 0.0))
        residual -= flat[c]
    return _fluid_advance(zmat, served.reshape(cfg.k, cfg.l), cfg)


def assemble_linear(cfg, sol) -> tuple[np.ndarray, np.ndarray]:
    """(q, c) of the linear region from dense full-coordinate flow matrices."""
    k_cls, l, m = cfg.k, cfg.l, sol.m
    p_vec = cfg.p_vector()
    gamma = cfg.gamma_vector()
    dim = k_cls * l

    def cell(k: int, age: int) -> int:
        return k * l + age - 1

    full = np.zeros(dim, dtype=bool)
    for k in range(k_cls):
        start = sol.thresholds[m][0] if k == m else sol.l_star[k]
        for age in range(start, l + 1):
            full[cell(k, age)] = True

    m_s = np.zeros((dim, dim))
    v_s = np.zeros(dim)
    m_s[full, full] = 1.0
    c0 = cell(m, sol.l_star[m])
    m_s[c0, full] -= 1.0
    v_s[c0] = cfg.alpha

    a_z = np.zeros((dim, dim))
    a_s = np.zeros((dim, dim))
    for k in range(k_cls):
        for age in range(1, l + 1):
            a_s[cell(k, 1), cell(k, age)] += p_vec[k]
        for age in range(2, l + 1):
            a_z[cell(k, age), cell(k, age - 1)] += 1.0
            a_s[cell(k, age), cell(k, age - 1)] -= p_vec[k]
        a_z[cell(k, l), cell(k, l)] += 1.0
        a_s[cell(k, l), cell(k, l)] -= p_vec[k]

    b = a_z + a_s @ m_s
    d = a_s @ v_s

    reduction = tuple(
        sol.l_star[k] if k == m else sol.l_star[k] - 1 for k in range(k_cls)
    )
    kept = np.array([
        cell(k, age)
        for k in range(k_cls)
        for age in range(1, l + 1)
        if age != reduction[k]
    ], dtype=np.intp)
    embed = np.zeros((dim, len(kept)))
    offset = np.zeros(dim)
    for col, c in enumerate(kept):
        embed[c, col] = 1.0
    for k in range(k_cls):
        dropped = cell(k, reduction[k])
        cols = [col for col, c in enumerate(kept) if c // l == k]
        embed[dropped, cols] = -1.0
        offset[dropped] = gamma[k]

    return (b @ embed)[kept, :], (b @ offset + d)[kept]


def assemble_linear_blocks(cfg, sol) -> tuple[np.ndarray, np.ndarray]:
    """(q, c) of the linear region, written one class block at a time
    into a dense (k*(l-1)) x (k*(l-1)) q, the critical block row in full."""
    k_cls, l, m = cfg.k, cfg.l, sol.m
    p_vec = cfg.p_vector()
    gamma = cfg.gamma_vector()
    reduction = tuple(
        sol.l_star[k] if k == m else sol.l_star[k] - 1 for k in range(k_cls)
    )
    full_from = tuple(
        sol.thresholds[m][0] if k == m else sol.l_star[k] for k in range(k_cls)
    )
    ages = np.arange(1, l + 1)
    full = [ages >= f for f in full_from]
    keep = [ages != reduction[k] for k in range(k_cls)]
    a_z = np.eye(l, k=-1)
    a_z[-1, -1] = 1.0
    reset = np.zeros((l, l))
    reset[0] = 1.0
    col0 = p_vec[m] * (reset - a_z)[:, sol.l_star[m] - 1]

    d = l - 1
    q = np.zeros((k_cls * d, k_cls * d))
    c_vec = np.zeros(k_cls * d)
    for k in range(k_cls):
        rows = slice(k * d, (k + 1) * d)
        for j in range(k_cls) if k == m else (k,):
            if j == k:
                a_s = p_vec[k] * (reset - a_z)
                s = a_s * full[k]
                if k == m:
                    s -= np.outer(col0, full[k])
                b = a_z + s
            else:
                b = -np.outer(col0, full[j])
            # Substituting the dropped coordinate of class j, whose mass
            # is gamma_j minus the kept ones, into the kept rows.
            b_rows = b[keep[k]]
            dropped = b_rows[:, reduction[j] - 1]
            q[rows, j * d:(j + 1) * d] = b_rows[:, keep[j]] - dropped[:, None]
            c_vec[rows] += dropped * gamma[j]
        if k == m:
            c_vec[rows] += col0[keep[k]] * cfg.alpha
    return q, c_vec


def dense_blocks(sys) -> list[np.ndarray]:
    """The (l-1) x (l-1) diagonal class blocks of a LinearRegionSystem:
    sub-diagonal sys.sub[k], then the rows sys.dense_at[k] from sys.dense[k]."""
    d = sys.l - 1
    blocks = []
    for sub, at, rows in zip(sys.sub, sys.dense_at, sys.dense):
        blk = np.zeros((d, d))
        blk[np.arange(1, d), np.arange(d - 1)] = sub
        blk[at] = rows
        blocks.append(blk)
    return blocks


def dense_q(sys) -> np.ndarray:
    """q of a LinearRegionSystem as one dense matrix: dense_blocks(sys) on
    the diagonal plus outer(u, v[j]) in the critical class's block row."""
    blocks = dense_blocks(sys)
    k_cls, d = len(blocks), sys.l - 1
    q = np.zeros((k_cls * d, k_cls * d))
    for k, blk in enumerate(blocks):
        q[k * d:(k + 1) * d, k * d:(k + 1) * d] = blk
    q[sys.m * d:(sys.m + 1) * d] += np.outer(sys.u, sys.v.ravel())
    return q


def rvi_one_dim(p: float, l: int, w: float) -> tuple[float, np.ndarray, int]:
    """(avg_cost, value_fn, threshold) by damped relative value iteration.

    value_fn is relative to age 1 on the aperiodicity-transformed kernel
    (1 - DAMPING)*I + DAMPING*P.
    """
    ages = np.arange(1, l + 1, dtype=float)
    nxt = np.minimum(np.arange(2, l + 2), l) - 1
    value = np.zeros(l)
    tau = DAMPING
    for _ in range(MAX_ITERS):
        q_idle = ages + tau * value[nxt]
        q_tx = ages + w + tau * (p * value[0] + (1.0 - p) * value[nxt])
        updated = (1.0 - tau) * value + np.minimum(q_idle, q_tx)
        diff = updated - value
        span = diff.max() - diff.min()
        value = updated - updated[0]
        if span < SPAN_TOL:
            q_idle = ages + tau * value[nxt]
            q_tx = ages + w + tau * (p * value[0] + (1.0 - p) * value[nxt])
            scheduled = np.flatnonzero(q_tx <= q_idle + GREEDY_TIE_TOL)
            threshold = int(scheduled[0]) + 1 if scheduled.size else l + 1
            return float(0.5 * (diff.max() + diff.min())), value, threshold
    raise AssertionError("reference rvi did not converge")


def policy_iteration(p: float, l: int, w: float) -> RviResult:
    """Policy iteration for one subsidy: one l x l solve per sweep.

    The loop oracle.rvi_grid stacks, run on a single subsidy with the
    same float operations, the same GREEDY_TIE_TOL switching rule and the
    same checks.
    """
    if w < 0.0:
        raise RangeError(f"subsidy must be >= 0, got {w!r}")
    ages = np.arange(1, l + 1, dtype=float)
    nxt = np.minimum(np.arange(2, l + 2), l) - 1
    states = np.arange(l)
    schedule = np.full(l, w <= GREEDY_TIE_TOL)
    for _ in range(MAX_ITERS):
        rate = p * schedule
        kernel = np.zeros((l, l))
        kernel[states, nxt] = 1.0 - rate
        kernel[:, 0] += rate
        system = np.eye(l) - kernel
        system[:, 0] = 1.0
        try:
            solution = np.linalg.solve(system, ages + w * schedule)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"policy evaluation singular: {exc}") from exc
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
        if not np.all(policy[threshold - 1:]):
            raise ConvergenceError("greedy policy is not a threshold policy")
        return RviResult(avg_cost=float(solution[0]), value_fn=h / DAMPING,
                         policy=policy, threshold=threshold)
    raise ConvergenceError(f"policy iteration did not settle in {MAX_ITERS} steps")


def oracle_check_payload(cfg) -> dict:
    """aoisched oracle-check's payload, one subsidy and one threshold at a time.

    policy_iteration at each grid point and the minimum of scalar
    cost_pair totals over thresholds 1..l+1.
    """
    worst, checked, per_class = 0.0, 0, []
    for k, spec_k in enumerate(cfg.classes):
        table = whittle_index_table(np.array([spec_k.p]), cfg.l)[0]
        class_worst = 0.0
        for w in sorted({0.0, *table, *(w + 0.5 for w in table[:-1])}):
            res = policy_iteration(spec_k.p, cfg.l, float(w))
            l1, l2 = optimal_thresholds(float(w), spec_k.p, cfg.l)
            assert res.threshold in (l1, l2)
            best = min(cost_pair(n, float(w), spec_k.p, cfg.l).total
                       for n in range(1, cfg.l + 2))
            class_worst = max(class_worst, abs(res.avg_cost - best))
            checked += 1
        worst = max(worst, class_worst)
        per_class.append({"class": k, "p": spec_k.p, "max_cost_error": class_worst})
    return {"grid_points": checked, "max_cost_error": worst,
            "per_class": per_class, "ok": bool(worst < 1e-6)}


def block_spectrum(sys) -> np.ndarray:
    """Eigenvalues of q from a dense eigensolve of each whole class block.

    Nilpotent blocks (the critical class and never-served classes) are
    certified by repeated squaring and contribute exact zeros.
    """
    d = sys.l - 1
    parts = []
    for k, blk in enumerate(dense_blocks(sys)):
        if k == sys.m or sys.l_star[k] == sys.l + 1:
            power = blk
            exponent = 1
            while exponent < 4 * d:
                power = power @ power
                exponent *= 2
            if float(np.abs(power).max()) > NILPOTENT_TOL:
                raise ConvergenceError(f"class {k}: expected nilpotent block")
            parts.append(np.zeros(d, dtype=complex))
        else:
            parts.append(np.linalg.eigvals(blk))
    return np.concatenate(parts)


def tail_quotient(blk: np.ndarray, h: int, k: int) -> np.ndarray:
    """Served-tail check and quotient of one dense class block.

    The moved tail columns blk[:, i] - blk[:, i+1] must have no head
    component, a zero tail sum, and zero prefix sums of their tail on and
    above the diagonal. Returns blk itself when there is no tail, else
    the (h+1) x (h+1) quotient on (head, tail sum).
    """
    if h >= len(blk):
        return blk
    moved = blk[:, h:-1] - blk[:, h + 1:]
    head = np.abs(moved[:h]).max(initial=0.0)
    coords = np.abs(np.cumsum(moved[h:], axis=0))
    tail = coords[-1].max(initial=0.0)
    upper = np.triu(coords).max(initial=0.0)
    residuals = (
        ("head component", head, AFFINE_TOL),
        ("tail sum", tail, AFFINE_TOL),
        ("non-nilpotent tail", upper, NILPOTENT_TOL),
    )
    for what, residual, tol in residuals:
        if residual > tol:
            raise ConvergenceError(
                f"class {k}: served tail not invariant, {what} residual "
                f"{residual:.3e}"
            )
    quot = blk[:h + 1, :h + 1].copy()
    quot[h] = blk[h:, :h + 1].sum(axis=0)
    return quot


def solve_rp(cfg) -> RelaxedSolution:
    """Relaxed optimum, calling optimal_thresholds for every candidate."""
    validate_config(cfg)
    alpha, l = cfg.alpha, cfg.l
    table = whittle_index_table(cfg.p_vector(), l)
    candidates = []
    for v in np.sort(np.unique(table.ravel())):
        if not candidates or v - candidates[-1] > TIE_TOL:
            candidates.append(float(v))

    for w_c in candidates:
        pairs = tuple(optimal_thresholds(w_c, cls.p, l) for cls in cfg.classes)
        a_hi = scheduled_fraction([p1 for p1, _ in pairs], cfg)
        a_lo = scheduled_fraction([p2 for _, p2 in pairs], cfg)
        if not (a_hi <= alpha + BUDGET_SLACK and alpha <= a_lo + BUDGET_SLACK):
            continue
        l_star = [p1 for p1, _ in pairs]
        a_cur = a_hi
        for k, (p1, p2) in enumerate(pairs):
            if p1 == p2:
                continue
            delta = scheduled_fraction(l_star[:k] + [p2] + l_star[k + 1:], cfg) - a_cur
            a_next = a_cur + delta
            if a_next + BUDGET_SLACK >= alpha:
                theta = 0.0 if delta <= 0.0 else (alpha - a_cur) / delta
                theta = min(max(theta, 0.0), 1.0)
                l_star[k] = p2
                c_rp = 0.0
                for j, cls in enumerate(cfg.classes):
                    if j == k:
                        c_rp += cls.gamma * (
                            theta * age_cost(pairs[j][1], cls.p, l)
                            + (1.0 - theta) * age_cost(pairs[j][0], cls.p, l)
                        )
                    else:
                        c_rp += cls.gamma * age_cost(l_star[j], cls.p, l)
                return RelaxedSolution(
                    w_star=w_c,
                    m=k,
                    theta_star=float(theta),
                    thresholds=pairs,
                    z_star=OccupancyVector(z=_mixture_z(cfg, pairs, k, theta, l_star)),
                    c_rp=float(c_rp),
                    l_star=tuple(l_star),
                )
            l_star[k] = p2
            a_cur = a_next
    raise InfeasibleError(f"no index candidate brackets the budget alpha={alpha}")


def top_m(rank_table, ages, cls, m, n, rng=None):
    """The m users with the smallest (rank, user id) keys; a permutation
    drawn from rng replaces the user id when given."""
    uid = np.arange(n) if rng is None else rng.permutation(n)
    keys = rank_table[cls, ages - 1] * n + uid
    return np.argpartition(keys, m - 1)[:m]


def whittle_schedule(ages, cfg, tie_break: str = "deterministic",
                     rng=None) -> np.ndarray:
    """The m users with the largest index values, ties by (class, user).

    tie_break="random" replaces the user-id tie-break with a seeded
    random permutation drawn from rng.
    """
    ages = np.asarray(ages)
    if ages.shape != (cfg.n,):
        raise ShapeError(f"expected {cfg.n} ages, got {ages.shape}")
    r = rng if tie_break == "random" else None
    sel = top_m(_whittle_rank(cfg), ages, class_ids(cfg), cfg.m, cfg.n, r)
    return np.sort(sel)


def step(ages, scheduled, p_user, l, rng, channel=None):
    """One per-user slot: scheduled successes reset, everyone else ages.

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


def simulate(cfg, policy, horizon: int, seed: int, initial) -> tuple[float, float]:
    """Per-user simulation of one replication: (average age, trimmed).

    Every user is tracked. whittle and greedy_max_age schedule the m
    users with the smallest (rank, user id) keys, uniform_random draws m
    users without replacement, and rp_threshold draws one uniform per
    user against its cell's rp_cell_coins probability. The averages are
    taken as in sim.simulate.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cls = class_ids(cfg)
    p_user = cfg.p_vector()[cls]
    ages = make_initial_ages(initial, cfg).copy()
    n, m, l = cfg.n, cfg.m, cfg.l
    if policy.kind == "whittle":
        rank = _whittle_rank(cfg)
    elif policy.kind == "greedy_max_age":
        rank = _greedy_rank(cfg)
    elif policy.kind == "rp_threshold":
        coin = rp_cell_coins(cfg, policy.solution)
    skip = int(horizon * WARMUP_FRACTION)
    total = total_tail = 0
    for t in range(horizon):
        total += int(ages.sum())
        if t >= skip:
            total_tail += int(ages.sum())
        if policy.kind in ("whittle", "greedy_max_age"):
            sched = top_m(rank, ages, cls, m, n)
        elif policy.kind == "uniform_random":
            sched = rng.choice(n, size=m, replace=False)
        else:
            sched = np.flatnonzero(rng.random(n) < coin[cls, ages - 1])
        ages = step(ages, sched, p_user, l, rng)
    return total / (horizon * n), total_tail / ((horizon - skip) * n)


def rp_cell_coins(cfg, sol) -> np.ndarray:
    """rp_threshold's per-cell scheduling probability, shape (k, l).

    Per-class (l1, l2) pairs: the critical class m keeps its thresholds
    pair and flips an rp_coin on [l2, l1); every other class has the pair
    (l_star[k], l_star[k]). Every class is scheduled surely from its l1.
    """
    ages = np.arange(1, cfg.l + 1)
    cells = np.zeros((cfg.k, cfg.l))
    for k, p in enumerate(cfg.p_vector()):
        l1, l2 = sol.thresholds[k] if k == sol.m else (sol.l_star[k],) * 2
        cells[k, ages >= l1] = 1.0
        if l2 < l1:
            cells[k, (ages >= l2) & (ages < l1)] = rp_coin(
                sol.theta_star, l1, l2, float(p), cfg.l)
    return cells


def initial_ages(initial, cfg) -> np.ndarray:
    """Per-user ages from explicit ages or an occupancy, class by class.

    Occupancies are rounded to the 1/n grid by largest-remainder
    apportionment within each class; users of a class get its ages in
    increasing order.
    """
    if isinstance(initial, OccupancyVector):
        initial = initial.z
    arr = np.asarray(initial)
    if arr.ndim == 1:
        return arr.astype(np.int64)
    ages = np.empty(cfg.n, dtype=np.int64)
    start = 0
    for k, size in enumerate(cfg.class_sizes()):
        target = arr[k] * cfg.n
        counts = np.floor(target).astype(np.int64)
        short = size - counts.sum()
        if short > 0:
            remainder = target - counts
            top = np.argsort(-remainder, kind="stable")[:short]
            counts[top] += 1
        ages[start : start + size] = np.repeat(np.arange(1, cfg.l + 1), counts)
        start += size
    return ages


def server(cfg, policy):
    """The policy's rule on counts: serve(counts, rng) -> served per cell.

    uniform_random has two exact draws of one multivariate hypergeometric
    law. Up to UNIFORM_PERMUTE_MAX_N users it expands the (R, k*l) counts
    to R*n cell ids, one per user, shuffles each row and serves its first
    m ids, since the first m entries of a uniform permutation are a
    uniform m-subset. Above the cutoff it makes one
    Generator.multivariate_hypergeometric call per row.
    """
    m = cfg.m
    if policy.kind in ("whittle", "greedy_max_age"):
        order = (_whittle_order(cfg) if policy.kind == "whittle"
                 else np.argsort(_greedy_rank(cfg).ravel(), kind="stable"))

        def serve(counts, rng):
            return _serve_in_order(counts, m, order)
    elif policy.kind == "uniform_random" and cfg.n <= UNIFORM_PERMUTE_MAX_N:
        def serve(counts, rng):
            ids = np.repeat(np.arange(counts.size), counts.ravel())
            kept = rng.permuted(ids.reshape(len(counts), -1), axis=1)[:, :m]
            return np.bincount(kept.ravel(), minlength=counts.size).reshape(
                counts.shape)
    elif policy.kind == "uniform_random":
        def serve(counts, rng):
            return np.array([rng.multivariate_hypergeometric(row, m)
                             for row in counts])
    else:
        coins = rp_cell_coins(cfg, policy.solution).ravel()

        def serve(counts, rng):
            return rng.binomial(counts, coins)
    return serve


def binomial_paths(cfg, policy, initial, rows: int, rng):
    """The count kernel's old slot: serve, then Binomial(served, p) successes.

    Yields the (rows, k*l) counts of slots 0, 1, 2, ... from the cell
    counts of initial_ages(initial).
    """
    serve = server(cfg, policy)
    p_cells = np.repeat(cfg.p_vector(), cfg.l)
    cells = class_ids(cfg) * cfg.l + initial_ages(initial, cfg) - 1
    counts = np.tile(np.bincount(cells, minlength=cfg.k * cfg.l), (rows, 1))
    while True:
        yield counts
        served = serve(counts, rng)
        counts = _advance(counts, rng.binomial(served, p_cells), cfg.l)


def joint_mdp_optimal(cfg) -> float:
    """Exact optimal per-user average age, over every user-age vector.

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
