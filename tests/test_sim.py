"""Discrete-event simulator: scheduling order, dynamics, and estimators."""

import hashlib
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import reference_impls as ref
from aoisched import ClassSpec, NetworkConfig
from aoisched.cli import ExperimentSpec, run_experiment
from aoisched.errors import RangeError, ShapeError
from aoisched.index import whittle_index_table
from aoisched.fluid import fluid_step
from aoisched.relaxed import rp_coins, solve_rp
from aoisched.sim import (
    OCCUPANCY_TOL,
    POLICY_NAMES,
    UNIFORM_KEYS_MAX_N,
    PolicyKind,
    _advance,
    _drawer,
    _draws_per_user,
    _greedy_rank,
    _initial_counts,
    _order,
    _paths,
    _serve_in_order,
    _simulate_blocks,
    _whittle_rank,
    class_ids,
    fluid_deviation,
    hitting_times,
    simulate,
)
from reference_impls import step, top_m, whittle_schedule


def one_class(p, l, alpha, n):
    return NetworkConfig(n=n, alpha=alpha, l=l, classes=(ClassSpec(p=p, gamma=1.0),))


def mixed_ref():
    # two classes with well separated success rates, small population
    return NetworkConfig(
        n=20, alpha=0.5, l=50,
        classes=(ClassSpec(p=0.8, gamma=0.5), ClassSpec(p=0.2, gamma=0.5)),
    )


def big_ref():
    return NetworkConfig(
        n=100, alpha=0.5, l=50,
        classes=(ClassSpec(p=0.5, gamma=0.5), ClassSpec(p=0.8, gamma=0.5)),
    )


def tie_heavy():
    # classes 1 and 2 share p, so every one of their cells is a
    # cross-class index tie
    return NetworkConfig(
        n=12, alpha=0.5, l=8,
        classes=(ClassSpec(p=0.8, gamma=1 / 3), ClassSpec(p=0.5, gamma=1 / 3),
                 ClassSpec(p=0.5, gamma=1 / 3)),
    )


def age_one_tie():
    # (1-p)**(l-1) < 1e-12 in both classes: the age-1 index is 1 within
    # TIE_TOL, one tie group across the classes at w_star
    return NetworkConfig(
        n=4, alpha=0.75, l=34,
        classes=(ClassSpec(p=0.58, gamma=0.5), ClassSpec(p=0.88, gamma=0.5)),
    )


def truncation_tie():
    # the critical class randomizes between l-1 and never (l+1)
    return NetworkConfig(
        n=20, alpha=0.25, l=8,
        classes=(ClassSpec(p=0.2, gamma=0.5), ClassSpec(p=0.7, gamma=0.5)),
    )


def policy_named(name, cfg):
    return PolicyKind(name, solve_rp(cfg) if name == "rp_threshold" else None)


def cell_counts(ages, cfg):
    cells = class_ids(cfg) * cfg.l + np.asarray(ages) - 1
    return np.bincount(cells, minlength=cfg.k * cfg.l)


def test_step_forced_outcomes():
    rng = np.random.default_rng(0)
    ages = np.array([2, 3, 5])
    out = step(ages, np.array([0, 2]), np.full(3, 0.5), 5, rng,
               channel=np.array([True, False, False]))
    # success resets, failure and idling both age, capped at l
    assert out.tolist() == [1, 4, 5]


def test_step_cap_without_scheduling():
    rng = np.random.default_rng(0)
    ages = np.array([4, 5, 5])
    out = step(ages, np.array([], dtype=int), np.full(3, 0.9), 5, rng)
    assert out.tolist() == [5, 5, 5]


def test_forced_failures_reach_all_stale():
    cfg = mixed_ref()
    rng = np.random.default_rng(1)
    ages = np.ones(cfg.n, dtype=np.int64)
    never = np.zeros(cfg.n, dtype=bool)
    for _ in range(cfg.l - 1):
        sel = whittle_schedule(ages, cfg)
        ages = step(ages, sel, cfg.p_vector()[class_ids(cfg)], cfg.l, rng,
                    channel=never)
    assert (ages == cfg.l).all()


def test_schedule_budget_and_shape():
    rng = np.random.default_rng(2)
    for cfg in (mixed_ref(), one_class(0.6, 12, 0.25, 8)):
        for _ in range(25):
            ages = rng.integers(1, cfg.l + 1, size=cfg.n)
            sel = whittle_schedule(ages, cfg)
            assert len(sel) == cfg.m
            assert (np.diff(sel) > 0).all()
            assert sel.min() >= 0 and sel.max() < cfg.n


def test_schedule_single_class_picks_oldest():
    # below the truncation tie the index is strictly increasing in age,
    # so the selection is the max-age prefix with user-id tie-break
    cfg = one_class(0.6, 12, 0.25, 8)
    rng = np.random.default_rng(3)
    for _ in range(50):
        ages = rng.integers(1, cfg.l - 1, size=cfg.n)
        ref = sorted(range(cfg.n), key=lambda u: (-ages[u], u))[: cfg.m]
        assert whittle_schedule(ages, cfg).tolist() == sorted(ref)


def test_schedule_truncation_tie_prefers_low_id():
    # ages l-1 and l share one index value, so user id decides between them
    cfg = one_class(0.5, 8, 1.0 / 3.0, 3)
    assert whittle_schedule(np.array([8, 7, 1]), cfg).tolist() == [0]
    assert whittle_schedule(np.array([7, 8, 1]), cfg).tolist() == [0]


def test_schedule_matches_index_sort_reference():
    cfg = mixed_ref()
    table = whittle_index_table(cfg.p_vector(), cfg.l)
    cls = class_ids(cfg)
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(60):
        ages = rng.integers(1, cfg.l - 2, size=cfg.n)
        w = table[cls, ages - 1]
        gaps = np.abs(w[:, None] - w[None, :])
        near = (gaps > 0) & (gaps <= 1e-9)
        if near.any():
            continue
        ref = sorted(range(cfg.n), key=lambda u: (-w[u], cls[u], u))[: cfg.m]
        assert whittle_schedule(ages, cfg).tolist() == sorted(ref)
        checked += 1
    assert checked >= 40


def test_whittle_rank_matches_group_loop_reference():
    rng = np.random.default_rng(5)
    cases = [mixed_ref(), big_ref(), one_class(1.0, 3, 0.5, 2),
             one_class(0.5, 8, 1.0 / 3.0, 3)]
    for _ in range(100):
        k = int(rng.integers(1, 5))
        # repeated p values tie whole classes, p = 1 ties every age
        ps = rng.choice([0.3, 0.5, 1.0, float(rng.uniform(0.05, 1.0))], size=k)
        cases.append(NetworkConfig(
            n=4 * k, alpha=0.25, l=int(rng.integers(2, 40)),
            classes=tuple(ClassSpec(p=float(p), gamma=1.0 / k) for p in ps),
        ))
    for cfg in cases:
        rank = _whittle_rank(cfg)
        expected = ref.whittle_rank(cfg)
        assert rank.dtype == expected.dtype
        np.testing.assert_array_equal(rank, expected)


def test_experiment_rows_are_pinned(tmp_path):
    # rows.csv of a tie-heavy sweep over all four policies; the digest
    # moves with any change to the RNG streams or the scheduled sets.
    # It last moved with the per-user draw (same law, new stream): one
    # uniform per user at risk for rp_threshold, whose Binomial it
    # replaced since m <= 2*k*l at both points, and one key per user for
    # uniform_random, which replaced the row-wise permutation.
    run_experiment(ExperimentSpec(
        base=tie_heavy(), n_sweep=(12, 24),
        policies=("whittle", "greedy_max_age", "rp_threshold", "uniform_random"),
        replications=2, horizon=300, seed=7, out=str(tmp_path),
        epsilon=0.5, initial="maxed",
    ))
    # summary.json and plot.csv are pinned too: both are reduced from the
    # same rows, so any change to how a point's statistics are computed
    # or written moves one of these digests while rows.csv stays put.
    want = {
        "rows.csv":
            "afa38d4a83b19be5b81beffd3165387d75b7dcbeee44dfe506a1c5e27fca4f85",
        "summary.json":
            "c7afc7cb4503aaffa71bf02181cbd2b3a84ab677ff74b6e0173e767410135e7e",
        "plot.csv":
            "975b6d689e8de20b039d7e47e832a8e19af528d3ca6b31c044dd51218b620fa3",
    }
    for name, digest in want.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name


def test_random_tie_break_spreads_selection():
    cfg = one_class(0.5, 10, 0.25, 8)
    ages = np.ones(cfg.n, dtype=int)
    seen = set()
    for s in range(20):
        sel = whittle_schedule(ages, cfg, tie_break="random",
                               rng=np.random.default_rng(s))
        assert len(sel) == cfg.m
        seen.update(sel.tolist())
    assert len(seen) > cfg.m
    # deterministic break always keeps the lowest ids
    assert whittle_schedule(ages, cfg).tolist() == [0, 1]


def test_greedy_matches_whittle_single_class():
    # one class far from the truncation tie: both rules serve oldest-first
    cfg = one_class(0.6, 40, 1.0 / 3.0, 6)
    ones = np.ones(cfg.n, dtype=int)
    a = simulate(cfg, PolicyKind("whittle"), 300, 11, ones)
    b = simulate(cfg, PolicyKind("greedy_max_age"), 300, 11, ones)
    assert a.per_user_avg_age == b.per_user_avg_age
    np.testing.assert_array_equal(a.final_occupancy.z, b.final_occupancy.z)


def test_alternation_is_exact():
    # two users, one sure slot per step: ages alternate between 1 and 2
    cfg = one_class(1.0, 3, 0.5, 2)
    rec = simulate(cfg, PolicyKind("whittle"), 10_000, 5, np.array([1, 2]))
    assert rec.per_user_avg_age == pytest.approx(1.5, abs=1e-12)
    assert rec.per_user_avg_age_trimmed == pytest.approx(1.5, abs=1e-12)


def test_horizon_one_reads_initial_state():
    cfg = mixed_ref()
    rec = simulate(cfg, PolicyKind("whittle"), 1, 0, np.ones(cfg.n, dtype=int))
    assert rec.per_user_avg_age == 1.0


def test_reproducible_and_seed_sensitive():
    cfg = mixed_ref()
    ones = np.ones(cfg.n, dtype=int)
    for pol in (PolicyKind("whittle"), PolicyKind("uniform_random"),
                PolicyKind("rp_threshold", solve_rp(cfg))):
        a = simulate(cfg, pol, 400, 42, ones)
        b = simulate(cfg, pol, 400, 42, ones)
        assert a.per_user_avg_age == b.per_user_avg_age
        np.testing.assert_array_equal(a.final_occupancy.z, b.final_occupancy.z)
    x = simulate(cfg, PolicyKind("whittle"), 400, 42, ones)
    y = simulate(cfg, PolicyKind("whittle"), 400, 43, ones)
    assert x.per_user_avg_age != y.per_user_avg_age


def test_trace_reconstructs_estimators():
    # the kernel's own per-slot counts, from the seed simulate hands it
    cfg = mixed_ref()
    horizon = 50
    ones = np.ones(cfg.n, dtype=int)
    rec = simulate(cfg, PolicyKind("whittle"), horizon, 9, ones)
    paths = _paths([(cfg, PolicyKind("whittle"), ones, np.random.default_rng(9))], 1)
    trace = np.array([counts[0].reshape(cfg.k, cfg.l) / cfg.n
                      for counts in itertools.islice(paths, horizon)])
    np.testing.assert_allclose(trace.sum(axis=(1, 2)), 1.0, atol=1e-12)
    ages = np.arange(1, cfg.l + 1)
    per_slot = (trace * ages).sum(axis=(1, 2))
    assert rec.per_user_avg_age == pytest.approx(per_slot.mean(), abs=1e-12)
    cut = int(horizon * 0.1)
    assert rec.per_user_avg_age_trimmed == pytest.approx(
        per_slot[cut:].mean(), abs=1e-12)


def test_uniform_random_is_worse():
    cfg = mixed_ref()
    ones = np.ones(cfg.n, dtype=int)
    w = simulate(cfg, PolicyKind("whittle"), 4000, 3, ones)
    u = simulate(cfg, PolicyKind("uniform_random"), 4000, 3, ones)
    assert u.per_user_avg_age_trimmed > w.per_user_avg_age_trimmed + 0.5


def test_rp_policy_tracks_relaxed_cost():
    # decoupled threshold policy: users are independent chains, so the
    # time average approaches the relaxed optimum
    cfg = big_ref()
    sol = solve_rp(cfg)
    rec = simulate(cfg, PolicyKind("rp_threshold", sol), 4000, 21,
                   np.ones(cfg.n, dtype=int))
    assert rec.per_user_avg_age_trimmed == pytest.approx(sol.c_rp, rel=0.05)


def test_initial_occupancy_rounding():
    cfg = NetworkConfig(
        n=10, alpha=0.5, l=4,
        classes=(ClassSpec(p=0.5, gamma=0.5), ClassSpec(p=0.8, gamma=0.5)),
    )
    occ = np.array([[0.26, 0.24, 0.0, 0.0], [0.0, 0.1, 0.1, 0.3]])
    np.testing.assert_array_equal(
        _initial_counts(occ, cfg), cell_counts([1, 1, 1, 2, 2, 2, 3, 4, 4, 4], cfg))


def test_initial_ages_validation():
    cfg = mixed_ref()
    good = np.ones(cfg.n, dtype=int)
    np.testing.assert_array_equal(_initial_counts(good, cfg), cell_counts(good, cfg))
    bad = good.copy()
    bad[0] = 0
    with pytest.raises(RangeError):
        _initial_counts(bad, cfg)
    bad[0] = cfg.l + 1
    with pytest.raises(RangeError):
        _initial_counts(bad, cfg)
    with pytest.raises(ShapeError):
        _initial_counts(np.ones(cfg.n - 1, dtype=int), cfg)
    with pytest.raises(ShapeError):
        whittle_schedule(np.ones(3, dtype=int), cfg)


def test_non_integral_ages_rejected():
    # 1.5 and 2.9 were truncated to 1 and 2; integral floats still run
    cfg = one_class(0.5, 3, 0.5, 4)
    with pytest.raises(RangeError):
        simulate(cfg, PolicyKind("whittle"), 10, 0, np.array([1.5, 2.9, 1.0, 3.0]))
    as_float = simulate(cfg, PolicyKind("whittle"), 10, 0,
                        np.array([1.0, 2.0, 1.0, 3.0]))
    as_int = simulate(cfg, PolicyKind("whittle"), 10, 0, np.array([1, 2, 1, 3]))
    assert as_float.per_user_avg_age == as_int.per_user_avg_age


def one_class_400():
    return NetworkConfig(n=400, alpha=0.5, l=3,
                         classes=(ClassSpec(p=0.5, gamma=1.0),))


@pytest.mark.parametrize("z, error", [
    # mass 0.75 of gamma 1: 303 of the 400 users, if it were rounded
    ([0.25, 0.25, 0.25], ShapeError),
    ([0.5, 0.5, 0.25], ShapeError),
    ([0.5, 0.5 + 2 * OCCUPANCY_TOL, 0.0], ShapeError),
    ([1.25, -0.25, 0.0], RangeError),
    ([np.nan, 0.5, 0.5], RangeError),
    ([np.inf, 0.0, 0.0], RangeError),
], ids=["short", "over", "past_tolerance", "negative", "nan", "inf"])
def test_invalid_occupancy_rejected(z, error):
    cfg = one_class_400()
    with pytest.raises(error):
        _initial_counts(np.array([z]), cfg)
    with pytest.raises(error):
        simulate(cfg, PolicyKind("whittle"), 10, 0, np.array([z]))


def test_occupancy_within_tolerance_accepted():
    cfg = one_class_400()
    z = np.array([[0.5, 0.5 - 0.5 * OCCUPANCY_TOL, 0.0]])
    assert _initial_counts(z, cfg).tolist() == [200, 200, 0]


def test_occupancy_short_of_more_users_than_cells_rejected():
    # within OCCUPANCY_TOL, but 400 users short at n = 10**12: rounding
    # up one user per cell added 3, left 397 missing and put one user in
    # the zero-mass cell ([499999999601, 500000000001, 1])
    cfg = NetworkConfig(n=10 ** 12, alpha=0.5, l=3,
                        classes=(ClassSpec(p=0.5, gamma=1.0),))
    z = np.array([[0.5 - 4e-10, 0.5, 0.0]])
    with pytest.raises(ShapeError, match="users short"):
        _initial_counts(z, cfg)
    # a deficit of at most l users still rounds up to the class size
    z = np.array([[0.5 - 2e-12, 0.5, 0.0]])
    assert _initial_counts(z, cfg).tolist() == [499999999999, 500000000001, 0]


def test_occupancy_rounds_up_only_cells_of_positive_mass():
    # within OCCUPANCY_TOL and two users short at n = 10**12: the
    # round-up went to the zero-mass cell first, by index, and gave
    # [1, 500000000001, 499999999998]
    cfg = NetworkConfig(n=10 ** 12, alpha=0.5, l=3,
                        classes=(ClassSpec(p=0.5, gamma=1.0),))
    z = np.array([[0.0, 0.5, 0.5 - 2e-12]])
    assert _initial_counts(z, cfg).tolist() == [0, 500000000001, 499999999999]
    # three users short, but only two cells of positive mass to round up
    with pytest.raises(ShapeError, match="users short"):
        _initial_counts(np.array([[0.0, 0.5, 0.5 - 3e-12]]), cfg)


def test_initial_counts_are_the_binned_initial_ages():
    # the kernel starts from _initial_counts: the reference's per-class
    # loop, binned to cells, for star, ones, maxed, a fractional
    # occupancy and explicit ages
    rng = np.random.default_rng(6)
    for cfg in (mixed_ref(), big_ref(), tie_heavy(), truncation_tie()):
        ones = np.zeros((cfg.k, cfg.l))
        ones[:, 0] = cfg.gamma_vector()
        maxed = np.zeros((cfg.k, cfg.l))
        maxed[:, -1] = cfg.gamma_vector()
        spread = cfg.gamma_vector()[:, None] * rng.dirichlet(np.ones(cfg.l), cfg.k)
        explicit = rng.integers(1, cfg.l + 1, size=cfg.n)
        for initial in (solve_rp(cfg).z_star, ones, maxed, spread, explicit):
            counts = _initial_counts(initial, cfg)
            assert counts.shape == (cfg.k * cfg.l,)
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(
                counts, cell_counts(ref.initial_ages(initial, cfg), cfg))


def test_policy_kind_validation():
    with pytest.raises(RangeError):
        PolicyKind(kind="bogus")
    sol = solve_rp(mixed_ref())
    pol = PolicyKind("rp_threshold", sol)
    assert pol.kind == "rp_threshold"
    assert pol.solution is sol


@pytest.mark.parametrize("make", [mixed_ref, big_ref, tie_heavy, age_one_tie,
                                  truncation_tie])
def test_rp_coins_match_the_per_class_rule(make):
    # the kernel's coins equal the per-user reference's, bit for bit
    cfg = make()
    sol = solve_rp(cfg)
    np.testing.assert_array_equal(rp_coins(sol, cfg), ref.rp_cell_coins(cfg, sol))


def test_hitting_time_zero_at_fixed_point():
    cfg = big_ref()
    sol = solve_rp(cfg)
    assert hitting_times(cfg, sol.z_star.z, 0.5, 1, 1, sol=sol)[0] == 0


def test_hitting_time_unresolved_returns_none():
    cfg = big_ref()
    sol = solve_rp(cfg)
    assert hitting_times(cfg, np.ones(cfg.n, dtype=int), 1e-9, 1, 1,
                         cap=50, sol=sol)[0] is None


def test_hitting_time_epsilon_validation():
    cfg = big_ref()
    with pytest.raises(RangeError):
        hitting_times(cfg, np.ones(cfg.n, dtype=int), 0.0, 1, 1)


def test_fluid_deviation_shared_start():
    cfg = big_ref()
    assert fluid_deviation(cfg, 1, 0, np.ones(cfg.n, dtype=int)) < 1e-12
    dev = fluid_deviation(cfg, 300, 0, np.ones(cfg.n, dtype=int))
    assert 0.0 < dev < 0.5


@pytest.mark.parametrize("kind", ["whittle", "greedy_max_age"])
def test_kernel_serves_the_per_user_selection(kind):
    # 20 000 consecutive slots of the per-user chain per config: the
    # kernel's served counts equal the per-user selection binned to
    # cells. Cells of one rank (a class's (l-1, l) truncation tie) are
    # compared as one bin, since user ids split them in the per-user rule
    # and ascending age in the kernel; an unsuccessful user of either
    # lands at l, so the split does not change the law.
    for cfg in (tie_heavy(), age_one_tie(), mixed_ref()):
        rank = (_whittle_rank(cfg) if kind == "whittle" else _greedy_rank(cfg)).ravel()
        order = _order(cfg, kind)
        cls = class_ids(cfg)
        p_user = cfg.p_vector()[cls]
        rng = np.random.default_rng(12)
        ages = rng.integers(1, cfg.l + 1, size=cfg.n)
        for _ in range(20_000):
            if kind == "whittle":
                sel = whittle_schedule(ages, cfg)
            else:
                sel = top_m(_greedy_rank(cfg), ages, cls, cfg.m, cfg.n)
            mine = _serve_in_order(cell_counts(ages, cfg)[None], cfg.m, order)[0]
            theirs = np.bincount(cls[sel] * cfg.l + ages[sel] - 1,
                                 minlength=cfg.k * cfg.l)
            np.testing.assert_array_equal(
                np.bincount(rank, weights=mine), np.bincount(rank, weights=theirs))
            ages = step(ages, sel, p_user, cfg.l, rng)


def test_kernel_advance_matches_forced_step():
    # per-cell successes binned from a forced per-user channel give the
    # per-user next state exactly
    rng = np.random.default_rng(13)
    for cfg in (tie_heavy(), age_one_tie(), mixed_ref(), big_ref()):
        cls = class_ids(cfg)
        p_user = cfg.p_vector()[cls]
        for _ in range(300):
            ages = rng.integers(1, cfg.l + 1, size=cfg.n)
            sel = whittle_schedule(ages, cfg)
            channel = rng.random(cfg.n) < 0.5
            nxt = step(ages, sel, p_user, cfg.l, None, channel=channel)
            won = sel[channel[sel]]
            successes = np.bincount(cls[won] * cfg.l + ages[won] - 1,
                                    minlength=cfg.k * cfg.l)
            got = _advance(cell_counts(ages, cfg)[None], successes[None], cfg.l)
            np.testing.assert_array_equal(got[0], cell_counts(nxt, cfg))


def test_kernel_one_slot_expectation_is_fluid_step():
    # E[next counts] / n, exact by linearity of _advance in the
    # successes, equals fluid_step on every draw, including those where
    # the budget boundary splits a cross-class tie group: fluid_step
    # serves it class by class, as the kernel does
    rng = np.random.default_rng(14)
    checked = cross = 0
    for _ in range(400):
        k = int(rng.integers(1, 4))
        l = int(rng.integers(2, 16))
        size = int(rng.integers(1, 6)) * 2
        n = k * size
        ps = rng.choice([0.5, 1.0, float(rng.uniform(0.05, 1.0))], size=k)
        cfg = NetworkConfig(
            n=n, alpha=int(rng.integers(1, n)) / n, l=l,
            classes=tuple(ClassSpec(p=float(p), gamma=1.0 / k) for p in ps))
        counts = np.concatenate([rng.multinomial(size, rng.dirichlet(np.ones(l)))
                                 for _ in range(k)])
        served = _serve_in_order(counts[None], cfg.m, _order(cfg, "whittle"))[0]
        group = _whittle_rank(cfg).ravel() // k
        mass = np.bincount(group, weights=counts)
        done = np.bincount(group, weights=served)
        split = np.flatnonzero((done > 0) & (done < mass))
        cross += any(len(np.unique(np.flatnonzero(group == g) // l)) > 1
                     for g in split)
        p_cells = np.repeat(cfg.p_vector(), l)
        expected = _advance(counts[None], (served * p_cells)[None], l)[0] / n
        fluid = fluid_step((counts / n).reshape(k, l), cfg).z.ravel()
        np.testing.assert_allclose(expected, fluid, rtol=0, atol=1e-12)
        checked += 1
    assert checked == 400 and cross >= 10


def sweep_configs(ns, l=8):
    return [NetworkConfig(n=n, alpha=0.25, l=l, classes=(
        ClassSpec(p=0.3, gamma=0.5), ClassSpec(p=0.8, gamma=0.5))) for n in ns]


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_stacked_blocks_equal_lone_simulate(name):
    # one batch over a sweep gives each block the records of simulate
    # with that block's seed alone: m = 6, 10 <= 2*k*l = 32 < m = 40, 300
    # for the ordered policies and rp_threshold, and n on both sides of
    # UNIFORM_KEYS_MAX_N; two blocks of each kind share a draw
    configs = sweep_configs((1200, 40, 160, 24))
    per_user = [_draws_per_user(cfg, name) for cfg in configs]
    assert per_user == ([False, True, True, True] if name == "uniform_random"
                        else [False, True, False, True])
    horizon, rows = 60, 3
    starts = [np.ones(cfg.n, dtype=int) for cfg in configs]
    starts[2] = solve_rp(configs[2]).z_star
    policies = [policy_named(name, cfg) for cfg in configs]
    blocks = [(cfg, pol, start, np.random.default_rng(seed))
              for seed, (cfg, pol, start)
              in enumerate(zip(configs, policies, starts))]
    batch = _simulate_blocks(blocks, horizon, rows)
    assert [len(recs) for recs in batch] == [rows] * 4
    for seed, (cfg, pol, start, recs) in enumerate(
            zip(configs, policies, starts, batch)):
        alone = simulate(cfg, pol, horizon, seed, start, replications=rows)
        for mine, theirs in zip(recs, alone):
            assert mine.per_user_avg_age == theirs.per_user_avg_age
            assert mine.per_user_avg_age_trimmed == theirs.per_user_avg_age_trimmed
            np.testing.assert_array_equal(mine.final_occupancy.z,
                                          theirs.final_occupancy.z)


@pytest.mark.parametrize("other", [
    sweep_configs((40,), l=9)[0],
    NetworkConfig(n=40, alpha=0.25, l=8, classes=(ClassSpec(p=0.3, gamma=1.0),)),
    NetworkConfig(n=40, alpha=0.25, l=8, classes=(
        ClassSpec(p=0.3, gamma=0.5), ClassSpec(p=0.7, gamma=0.5))),
], ids=["l", "k", "p"])
def test_stacked_blocks_must_share_the_cells(other):
    cfg = sweep_configs((40,))[0]
    blocks = [(c, PolicyKind("whittle"), np.ones(c.n, dtype=int),
               np.random.default_rng(0)) for c in (cfg, other)]
    with pytest.raises(ShapeError):
        _simulate_blocks(blocks, 5, 2)


def test_stacked_blocks_must_share_the_policy_kind():
    cfg = sweep_configs((40,))[0]
    blocks = [(cfg, PolicyKind(kind), np.ones(cfg.n, dtype=int),
               np.random.default_rng(0)) for kind in ("whittle", "greedy_max_age")]
    with pytest.raises(ShapeError):
        _simulate_blocks(blocks, 5, 2)


def test_batch_rows_rerun_identical_and_distinct():
    cfg = tie_heavy()
    ones = np.ones(cfg.n, dtype=int)
    for name in POLICY_NAMES:
        pol = policy_named(name, cfg)
        a = simulate(cfg, pol, 300, 5, ones, replications=6)
        b = simulate(cfg, pol, 300, 5, ones, replications=6)
        assert len(a) == 6
        for x, y in zip(a, b):
            assert x.per_user_avg_age == y.per_user_avg_age
            assert x.per_user_avg_age_trimmed == y.per_user_avg_age_trimmed
            np.testing.assert_array_equal(x.final_occupancy.z,
                                          y.final_occupancy.z)
        assert len({x.per_user_avg_age for x in a}) > 1
    sol = solve_rp(cfg)
    hits = hitting_times(cfg, ones, 0.3, 5, 6, cap=500, sol=sol)
    assert hits == hitting_times(cfg, ones, 0.3, 5, 6, cap=500, sol=sol)
    assert fluid_deviation(cfg, 100, 5, ones) == fluid_deviation(cfg, 100, 5, ones)


def test_simulate_replication_count_validated():
    cfg = mixed_ref()
    with pytest.raises(RangeError):
        simulate(cfg, PolicyKind("whittle"), 10, 0, np.ones(cfg.n, dtype=int),
                 replications=0)


def test_int64_bound_on_age_sums():
    # horizon*n*l = 2**62 fits the int64 age sums; 2**63 does not
    cfg = one_class(0.5, 2, 0.5, 2 ** 61)
    start = np.array([[0.5, 0.5]])
    for pol in (PolicyKind("whittle"), PolicyKind("greedy_max_age"),
                PolicyKind("rp_threshold", solve_rp(cfg))):
        rec = simulate(cfg, pol, 1, 0, start)
        assert 1.0 <= rec.per_user_avg_age <= cfg.l
        assert rec.final_occupancy.z.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(RangeError, match="2\\*\\*63"):
        simulate(cfg, PolicyKind("whittle"), 2, 0, start)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_kernel_mean_age_matches_per_user_reference(name):
    # same start, same horizon, 200 replications each: the two estimate
    # the same expectation, so their means agree within 3 standard errors
    reps, horizon = 200, 100
    cases = [(mixed_ref(), 1), (tie_heavy(), 8), (truncation_tie(), 1)]
    if name == "uniform_random":
        # above UNIFORM_KEYS_MAX_N: the per-row hypergeometric draw
        assert UNIFORM_KEYS_MAX_N < 1200
        cases.append((NetworkConfig(
            n=1200, alpha=0.25, l=8,
            classes=(ClassSpec(p=0.3, gamma=0.5), ClassSpec(p=0.8, gamma=0.5))), 1))
    for cfg, fill in cases:
        pol = policy_named(name, cfg)
        init = np.full(cfg.n, fill, dtype=int)
        mine = [rec.per_user_avg_age for rec in
                simulate(cfg, pol, horizon, 1, init, replications=reps)]
        theirs = [ref.simulate(cfg, pol, horizon, seed, init)[0]
                  for seed in range(reps)]
        se = np.hypot(np.std(mine, ddof=1), np.std(theirs, ddof=1)) / np.sqrt(reps)
        assert abs(np.mean(mine) - np.mean(theirs)) <= 3 * se, (name, cfg)


@pytest.mark.parametrize("n", [20, 320, 10_000])
def test_uniform_serve_is_multivariate_hypergeometric(n):
    # One slot from fixed counts, by the reference server's key draw
    # (n <= cutoff) or its per-row loop (n > cutoff). Each cell's served count is
    # hypergeometric with mean m*c/n and variance
    # m*(c/n)*(1 - c/n)*(n - m)/(n - 1); the mean over the rows lies
    # within 4 standard errors of that mean.
    cfg = NetworkConfig(
        n=n, alpha=0.25, l=10,
        classes=(ClassSpec(p=0.5, gamma=0.5), ClassSpec(p=0.8, gamma=0.5)))
    rng = np.random.default_rng(21)
    counts = np.concatenate([rng.multinomial(n // 2, rng.dirichlet(np.ones(cfg.l)))
                             for _ in range(cfg.k)])
    rows = 4000
    serve = ref.server(cfg, PolicyKind("uniform_random"))
    served = serve(np.tile(counts, (rows, 1)), rng)
    assert served.shape == (rows, cfg.k * cfg.l)
    assert (served.sum(axis=1) == cfg.m).all()
    assert ((served >= 0) & (served <= counts)).all()
    share = counts / n
    mean = cfg.m * share
    var = cfg.m * share * (1 - share) * (n - cfg.m) / (n - 1)
    se = np.sqrt(var / rows)
    assert (np.abs(served.mean(axis=0) - mean) <= 4 * se).all()
    # the cases straddle the cutoff, so both draws are checked
    assert 320 <= UNIFORM_KEYS_MAX_N < 10_000


def random_counts(cfg, rng):
    return np.concatenate([rng.multinomial(size, rng.dirichlet(np.ones(cfg.l)))
                           for size in cfg.class_sizes()])


def all_sure(n, l, alpha):
    return NetworkConfig(n=n, alpha=alpha, l=l, classes=(
        ClassSpec(p=1.0, gamma=0.5), ClassSpec(p=1.0, gamma=0.5)))


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_draw_at_p_one_is_the_reference_served_counts(name):
    # With every p = 1 each served user succeeds, so from one seed the
    # kernel's successes equal the reference server's served counts bit
    # for bit: coins * 1.0 == coins for rp_threshold, u < 1 always for
    # the ordered policies' uniforms, and for uniform_random a key below
    # 1 * s is one of the m smallest keys. The configs cover m <= k*l,
    # k*l < m <= 2*k*l and m > 2*k*l at k*l = 8 and 16, and m on both
    # sides of 0.8*k*l + 120 at k*l = 300, with rp_threshold coins of 1
    # and of 0.25 (alpha = 0.25) and on both sides of n = 4*k*l, and
    # uniform_random on both sides of its cutoff.
    cases = [all_sure(12, 8, 0.5), all_sure(24, 4, 0.25), all_sure(48, 4, 0.25),
             all_sure(40, 4, 0.5), all_sure(80, 4, 0.25),
             all_sure(720, 150, 0.5), all_sure(724, 150, 0.5)]
    if name == "uniform_random":
        cases.append(all_sure(1200, 4, 0.25))
        assert cases[-2].n <= UNIFORM_KEYS_MAX_N < cases[-1].n
    assert [cfg.m <= cfg.k * cfg.l for cfg in cases[:5]] == [1, 1, 0, 0, 0]
    assert [cfg.m <= 2 * cfg.k * cfg.l for cfg in cases[:5]] == [1, 1, 1, 0, 0]
    assert [cfg.m for cfg in cases[5:7]] == [360, 362]  # 0.8 * 300 + 120 = 360
    per_user = {"rp_threshold": [1, 1, 0, 0, 0, 1, 0],
                "uniform_random": [1, 1, 1, 1, 1, 1, 1, 0]}
    assert [_draws_per_user(cfg, name) for cfg in cases] == per_user.get(
        name, [1, 1, 1, 0, 0, 1, 0])
    rng = np.random.default_rng(15)
    rows = 5
    for cfg in cases:
        pol = policy_named(name, cfg)
        serve = ref.server(cfg, pol)
        for seed in range(20):
            counts = np.stack([random_counts(cfg, rng) for _ in range(rows)])
            mine = _drawer([(cfg, pol, None, np.random.default_rng(seed))],
                           rows)(counts)
            theirs = serve(counts, np.random.default_rng(seed))
            np.testing.assert_array_equal(mine, theirs)


def test_kernel_keeps_the_binomial_stream_where_the_draw_is_unchanged():
    # whittle and greedy_max_age with m > 2*k*l and uniform_random above
    # the cutoff still draw Binomial(served, p): slot for slot the counts,
    # and so simulate's records, equal the old serve-then-Binomial kernel
    horizon, rows = 200, 3
    gap480 = NetworkConfig(n=480, alpha=0.5, l=50, classes=(
        ClassSpec(p=0.8, gamma=0.5), ClassSpec(p=0.2, gamma=0.5)))
    big_uniform = NetworkConfig(n=1200, alpha=0.25, l=8, classes=(
        ClassSpec(p=0.3, gamma=0.5), ClassSpec(p=0.8, gamma=0.5)))
    cases = [(gap480, "whittle"), (gap480, "greedy_max_age"),
             (one_class(0.6, 12, 0.5, 60), "whittle"),
             (big_uniform, "uniform_random")]
    for cfg, name in cases:
        assert not _draws_per_user(cfg, name)
        pol = policy_named(name, cfg)
        ones = np.ones(cfg.n, dtype=int)
        mine = _paths([(cfg, pol, ones, np.random.default_rng(3))], rows)
        theirs = ref.binomial_paths(cfg, pol, ones, rows, np.random.default_rng(3))
        cell_ages = np.tile(np.arange(1, cfg.l + 1), cfg.k)
        total = np.zeros(rows, dtype=np.int64)
        for a, b in itertools.islice(zip(mine, theirs), horizon):
            np.testing.assert_array_equal(a, b)
            total += b @ cell_ages
        recs = simulate(cfg, pol, horizon, 3, ones, replications=rows)
        assert [r.per_user_avg_age for r in recs] == (
            (total / (horizon * cfg.n)).tolist())


def test_rp_threshold_with_many_users_at_risk_draws_per_cell():
    # m = 100 <= 2*k*l, but a maxed start puts the 5*10**7 users of class
    # 0 at age l, where its coin is > 0: a per-user draw would take 10**8
    # uniforms a slot. n > 4*k*l keeps one Binomial(count, coin * p) per
    # cell, so slot for slot the counts equal that draw from the same seed
    cfg = NetworkConfig(n=10 ** 8, alpha=1e-6, l=50, classes=(
        ClassSpec(p=0.8, gamma=0.5), ClassSpec(p=0.2, gamma=0.5)))
    assert cfg.m == 100 <= 2 * cfg.k * cfg.l
    assert not _draws_per_user(cfg, "rp_threshold")
    pol = PolicyKind("rp_threshold", solve_rp(cfg))
    q = rp_coins(pol.solution, cfg).ravel() * np.repeat(cfg.p_vector(), cfg.l)
    maxed = np.zeros((cfg.k, cfg.l))
    maxed[:, -1] = cfg.gamma_vector()
    rows = 2
    mine = _paths([(cfg, pol, maxed, np.random.default_rng(4))], rows)
    rng = np.random.default_rng(4)
    counts = next(mine)
    assert (counts[:, q > 0].sum(axis=1) == cfg.n // 2).all()
    for _ in range(5):
        expected = _advance(counts, rng.binomial(counts, q), cfg.l)
        counts = next(mine)
        np.testing.assert_array_equal(counts, expected)


@pytest.mark.parametrize("name,n", [
    ("whittle", 80), ("greedy_max_age", 80), ("whittle", 160),
    ("greedy_max_age", 160), ("rp_threshold", 20),
    ("rp_threshold", 320), ("uniform_random", 20), ("uniform_random", 320),
    ("uniform_random", 10_000)])
def test_one_slot_successes_have_the_per_user_law(name, n):
    # One slot from fixed counts at p < 1, 4000 rows. Each cell's mean
    # successes lie within 4 standard errors of its per-user expectation:
    # served*p for the ordered policies (served fixed by the counts; one
    # uniform per served user at m = k*l and at k*l < m = 2*k*l),
    # count*coin*p for rp_threshold, and m*(c/n)*p for uniform_random,
    # whose variance is p^2*Var_hyp + p*(1-p)*E_hyp.
    cfg = NetworkConfig(
        n=n, alpha=0.25, l=10,
        classes=(ClassSpec(p=0.5, gamma=0.5), ClassSpec(p=0.8, gamma=0.5)))
    rows = 4000
    rng = np.random.default_rng(22)
    counts = random_counts(cfg, rng)
    pol = policy_named(name, cfg)
    won = _drawer([(cfg, pol, None, rng)], rows)(np.tile(counts, (rows, 1)))
    assert won.shape == (rows, cfg.k * cfg.l)
    assert ((won >= 0) & (won <= counts)).all()
    p = np.repeat(cfg.p_vector(), cfg.l)
    if name in ("whittle", "greedy_max_age"):
        assert _draws_per_user(cfg, name)
        order = _order(cfg, name)
        served = _serve_in_order(counts[None], cfg.m, order)[0]
        assert (won <= served).all()
        mean, var = served * p, served * p * (1 - p)
    elif name == "rp_threshold":
        q = rp_coins(pol.solution, cfg).ravel() * p
        assert ((q > 0) & (q < p)).any()
        mean, var = counts * q, counts * q * (1 - q)
    else:
        assert (won.sum(axis=1) <= cfg.m).all()
        share = counts / n
        e_hyp = cfg.m * share
        var_hyp = cfg.m * share * (1 - share) * (n - cfg.m) / (n - 1)
        mean, var = p * e_hyp, p ** 2 * var_hyp + p * (1 - p) * e_hyp
    se = np.sqrt(var / rows)
    assert (np.abs(won.mean(axis=0) - mean) <= 4 * se).all()


@pytest.mark.parametrize("n", [20, 2000])
def test_rp_threshold_mean_age_is_c_rp(n):
    # the per-age coin on [l2, l1) makes the expected average age c_rp
    # at every n; the old per-slot theta coin read +0.9% at n=2000 on the
    # first config. With 10 rows at n=2000 the stderr is a 9-degree
    # estimate: over seeds 0-39 the 3-stderr gate failed in 3 of 120
    # config runs, with the old serve-then-Binomial draw and with the
    # thinned Binomial alike. So n=2000 pools 40 rows.
    reps = 100 if n == 20 else 40
    for alpha, l, ps in ((0.5, 50, (0.5, 0.8)), (0.5, 50, (0.8, 0.2)),
                         (0.25, 8, (0.2, 0.7))):
        cfg = NetworkConfig(n=n, alpha=alpha, l=l, classes=tuple(
            ClassSpec(p=p, gamma=0.5) for p in ps))
        sol = solve_rp(cfg)
        trimmed = [rec.per_user_avg_age_trimmed for rec in
                   simulate(cfg, PolicyKind("rp_threshold", sol), 1000, 2, sol.z_star.z,
                            replications=reps)]
        se = np.std(trimmed, ddof=1) / np.sqrt(reps)
        assert abs(np.mean(trimmed) - sol.c_rp) <= 3 * se, (ps, n)


def test_readme_library_quickstart_runs(capsys):
    # the README's example as written, so it cannot keep a removed name
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
