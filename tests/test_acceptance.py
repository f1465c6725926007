"""Acceptance gate.

Every deliverable property of the package is checked here at its stated
tolerance, one test per criterion. The conftest hook prints a PASS/FAIL
line per criterion in the terminal summary. Runtime for the whole module
is about a minute; the expensive tests are the Monte Carlo ones.
"""

import functools

import numpy as np
import pytest

from aoisched import ClassSpec, NetworkConfig
from aoisched.cli import ExperimentSpec, run_experiment
from aoisched.errors import DegenerateThresholdError, FixedPointError
from aoisched.fluid import (
    assemble_linear,
    fluid_step,
    fluid_trajectory,
    in_region,
    spectral_report,
)
from aoisched.index import (
    cost_pair,
    index_gap,
    optimal_thresholds,
    stationary_distribution,
    whittle_index,
    whittle_index_table,
)
from aoisched.oracle import joint_mdp_optimal, rvi_one_dim, stationary_by_balance
from aoisched.relaxed import solve_rp
from aoisched.sim import (
    fluid_deviation,
    hitting_time,
    make_initial_ages,
    simulate,
    whittle_policy,
)

P_GRID = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
L_GRID = (3, 10, 50)

RESULTS = {}


def criterion(num, label):
    """Record one PASS/FAIL summary line for this test."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                first = f"{type(exc).__name__}: {exc}".splitlines()[0]
                RESULTS[num] = (label, False, first[:160])
                raise
            RESULTS[num] = (label, True, detail or "")

        return wrapper

    return deco


def reference_config(n):
    return NetworkConfig(
        n=n, alpha=0.5, l=50,
        classes=(ClassSpec(p=0.5, gamma=0.5), ClassSpec(p=0.8, gamma=0.5)),
    )


def shrinking_gap_config(n):
    return NetworkConfig(
        n=n, alpha=0.5, l=50,
        classes=(ClassSpec(p=0.8, gamma=0.5), ClassSpec(p=0.2, gamma=0.5)),
    )


@criterion(1, "index solves the two-threshold cost intersection")
def test_intersection_identity():
    worst = 0.0
    for p in P_GRID:
        for l in L_GRID:
            for i in range(1, l):
                w = whittle_index(i, p, l)
                diff = abs(cost_pair(i, w, p, l).total
                           - cost_pair(i + 1, w, p, l).total)
                worst = max(worst, diff)
    assert worst < 1e-9
    return f"worst {worst:.2e}"


@criterion(2, "index is monotone in age (indexability)")
def test_index_monotonicity():
    low = np.inf
    for p in P_GRID:
        for l in L_GRID:
            for i in range(1, l):
                low = min(low, index_gap(i, p, l))
    assert low >= -1e-12
    return f"min gap {low:.2e}"


@criterion(3, "stationary closed form matches balance-equation solve")
def test_stationary_oracle_agreement():
    worst = 0.0
    for p in P_GRID:
        for l in L_GRID:
            for n in range(1, l + 2):
                diff = np.abs(stationary_distribution(n, p, l)
                              - stationary_by_balance(n, p, l)).max()
                worst = max(worst, float(diff))
    assert worst < 1e-10
    return f"worst {worst:.2e}"


@criterion(4, "value iteration lands on the closed-form thresholds")
def test_bellman_oracle_agreement():
    worst = 0.0
    points = 0
    for p in P_GRID:
        for l in L_GRID:
            table = whittle_index_table(np.array([p]), l)[0]
            grid = sorted({0.0, *map(float, table),
                           *(float(w) + 0.5 for w in table[:-1])})
            for w in grid:
                res = rvi_one_dim(p, l, w)
                pol = np.asarray(res.policy, dtype=bool)
                if pol.any():
                    first = int(np.argmax(pol))
                    assert pol[first:].all() and not pol[:first].any()
                    assert res.threshold == first + 1
                else:
                    assert res.threshold == l + 1
                l1, l2 = optimal_thresholds(w, p, l)
                assert res.threshold in (l1, l2)
                best = min(cost_pair(n, w, p, l).total
                           for n in range(1, l + 2))
                worst = max(worst, abs(res.avg_cost - best))
                points += 1
    assert worst < 1e-6
    return f"{points} points, worst {worst:.2e}"


@criterion(5, "spectral radius below one, both routes agree")
def test_spectral_certificate():
    rng = np.random.default_rng(20260819)

    def draw():
        while True:
            k = int(rng.integers(1, 5))
            sizes = rng.integers(1, 4, size=k) * int(rng.integers(1, 4))
            n = int(sizes.sum())
            if n >= 2:
                break
        l = int(rng.integers(3, 31))
        m = int(rng.integers(1, n))
        classes = tuple(
            ClassSpec(p=float(rng.uniform(0.1, 1.0)), gamma=int(s) / n)
            for s in sizes
        )
        return NetworkConfig(n=n, alpha=m / n, l=l, classes=classes)

    accepted = single_class = not_fixed = degenerate = 0
    worst_rho = worst_agree = single_rho = 0.0
    while accepted < 200:
        cfg = draw()
        sol = solve_rp(cfg)
        try:
            sysm = assemble_linear(cfg, sol)
        except FixedPointError:
            # z* not a fixed point of the fluid map: counted, and must
            # not happen, since fluid_step breaks ties as solve_rp does
            not_fixed += 1
            continue
        except DegenerateThresholdError:
            # a class pinned at threshold 1 has no linear region; redraw
            degenerate += 1
            continue
        rep = spectral_report(sysm)
        accepted += 1
        worst_rho = max(worst_rho, rep["rho"])
        worst_agree = max(worst_agree, rep["route_agreement"])
        if cfg.k == 1:
            single_class += 1
            single_rho = max(single_rho, rep["rho"])
    assert not_fixed == 0
    assert single_class >= 20
    assert worst_rho < 1.0 - 1e-9
    assert worst_agree < 1e-8
    assert single_rho <= 1e-10
    return (f"200 instances, max rho {worst_rho:.6f}, "
            f"agree {worst_agree:.1e}, K=1 rho {single_rho:.1e}, "
            f"{not_fixed} redrawn as z* not a fluid fixed point, "
            f"{degenerate} redrawn at a degenerate threshold")


@criterion(6, "fluid map fixes z* and contracts at the spectral rate")
def test_fluid_fixed_point_and_contraction():
    cfg = reference_config(100)
    sol = solve_rp(cfg)
    z_star = sol.z_star.z
    residual = float(np.abs(fluid_step(z_star, cfg).z - z_star).max())
    assert residual < 1e-10

    rho = spectral_report(assemble_linear(cfg, sol))["rho"]
    rng = np.random.default_rng(0)
    gamma = cfg.gamma_vector()[:, None]
    starts = []
    while len(starts) < 50:
        z = np.abs(z_star * (1.0 + 0.05 * rng.normal(size=z_star.shape)))
        z *= gamma / z.sum(axis=1, keepdims=True)
        if in_region(z, cfg, sol):
            starts.append(z)
    # 80 steps: deviations stay above float resolution, so the measured
    # tail factor reflects the true decay rate instead of collapsing to 0
    worst_tail = 0.0
    worst_final = 0.0
    for z0 in starts:
        traj = fluid_trajectory(z0, 80, cfg, sol)
        assert traj.converged
        worst_final = max(worst_final, float(traj.distances[-1]))
        assert traj.contraction is not None
        worst_tail = max(worst_tail, traj.contraction)
    assert worst_tail <= rho + 0.05
    assert worst_final < 1e-8
    return (f"fixed point {residual:.1e}, tail {worst_tail:.3f} "
            f"vs rho {rho:.3f}")


@criterion(7, "toy instance: relaxed bound, exact optimum, simulation agree")
def test_toy_optimality_sandwich():
    cfg = NetworkConfig(n=3, alpha=1.0 / 3.0, l=4,
                        classes=(ClassSpec(p=0.7, gamma=1.0),))
    sol = solve_rp(cfg)
    joint = joint_mdp_optimal(cfg)
    ones = np.ones(cfg.n, dtype=int)
    avgs = [rec.per_user_avg_age for rec in
            simulate(cfg, whittle_policy(), 200_000, 0, ones, replications=10)]
    mean = float(np.mean(avgs))
    se = float(np.std(avgs, ddof=1) / np.sqrt(len(avgs)))
    assert sol.c_rp <= joint + 1e-9
    assert joint <= mean + 3 * se
    assert abs(mean - joint) / joint < 0.05
    return (f"c_rp {sol.c_rp:.6f} <= joint {joint:.6f} <= "
            f"sim {mean:.6f} (se {se:.1e})")


@criterion(8, "index-policy gap is positive and shrinks with population")
def test_gap_shrinks_with_population():
    grid = (20, 80, 320)
    means, errs = [], []
    for n in grid:
        cfg = shrinking_gap_config(n)
        sol = solve_rp(cfg)
        ones = np.ones(cfg.n, dtype=int)
        gaps = [(rec.per_user_avg_age - sol.c_rp) / sol.c_rp for rec in
                simulate(cfg, whittle_policy(), 200_000, 0, ones,
                         replications=10)]
        means.append(float(np.mean(gaps)))
        errs.append(float(np.std(gaps, ddof=1) / np.sqrt(len(gaps))))
    for mean in means:
        assert mean > 0.0
    for i in range(len(grid) - 1):
        slack = 2.0 * np.hypot(errs[i], errs[i + 1])
        assert means[i + 1] < means[i] + slack
    assert means[-1] < 0.10
    return ("gaps " + " > ".join(f"{m:.4%}" for m in means))


@criterion(9, "hitting time of the z* ball stays bounded in N")
def test_hitting_time_bounded():
    grid = (50, 200, 800)
    epsilon = 0.05
    ratios = {}
    means = {}
    for name in ("ones", "maxed"):
        per_n = []
        for n in grid:
            cfg = reference_config(n)
            sol = solve_rp(cfg)
            fill = 1 if name == "ones" else cfg.l
            init = np.full(cfg.n, fill, dtype=int)
            times = [hitting_time(cfg, init, epsilon, seed, sol=sol)
                     for seed in range(30)]
            assert all(t is not None for t in times), f"{name} N={n} unresolved"
            per_n.append(float(np.mean(times)))
        means[name] = per_n
        ratios[name] = max(per_n) / min(per_n)
    detail = "; ".join(
        f"{name}: means {['%.1f' % m for m in means[name]]}, "
        f"ratio {ratios[name]:.2f}"
        for name in ratios
    )
    assert max(ratios.values()) <= 2.0, (
        f"mean hitting time varies more than 2x across N ({detail}); the "
        f"mean decreases with N but at N=50 the stationary occupancy "
        f"fluctuation exceeds epsilon={epsilon}, so early entries are rare"
    )
    return detail


@criterion(10, "occupancy tracks the fluid orbit more tightly as N grows")
def test_mean_field_deviation_shrinks():
    medians = {}
    for n in (100, 1000):
        cfg = reference_config(n)
        sol = solve_rp(cfg)
        init = make_initial_ages(sol.z_star.z, cfg)
        devs = [fluid_deviation(cfg, 100, seed, init, sol=sol)
                for seed in range(30)]
        medians[n] = float(np.median(devs))
    assert medians[1000] < medians[100]
    return f"median sup-dev N=100 {medians[100]:.4f}, N=1000 {medians[1000]:.4f}"


@criterion(11, "experiment reruns are byte-identical")
def test_experiment_rerun_identical(tmp_path):
    def spec(out):
        return ExperimentSpec(
            base=shrinking_gap_config(20), n_sweep=(20, 40),
            policies=("whittle", "uniform_random"), replications=2,
            horizon=500, seed=11, out=out,
        )

    run_experiment(spec(tmp_path / "a"))
    run_experiment(spec(tmp_path / "b"))
    matched = []
    for name in ("rows.csv", "plot.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
        matched.append(name)
    return "identical: " + ", ".join(matched)
