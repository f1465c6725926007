"""Fluid map, linearized region dynamics, and spectral stability checks."""

import dataclasses
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_impls as ref
from aoisched import ClassSpec, NetworkConfig, fluid
from aoisched.cli import main
from aoisched.errors import (
    ConvergenceError,
    DegenerateThresholdError,
    FixedPointError,
)
from aoisched.fluid import (
    AFFINE_TOL,
    REGION_TOL,
    assemble_linear,
    fluid_step,
    fluid_trajectory,
    in_region,
    reduce_occupancy,
    region_margin,
    spectral_radius,
    spectral_report,
)
from aoisched.index import (
    TIE_TOL,
    optimal_thresholds,
    tie_groups,
    whittle_index_table,
)
from aoisched.model import OccupancyVector
from aoisched.relaxed import solve_rp
from aoisched.sim import (
    PolicyKind,
    _order,
    _paths,
    _whittle_rank,
    fluid_deviation,
    simulate,
)
from test_relaxed import criterion5_config


def one_class(p, l, alpha, n=12):
    return NetworkConfig(n=n, alpha=alpha, l=l, classes=(ClassSpec(p=p, gamma=1.0),))


def two_class_ref():
    return NetworkConfig(
        n=100, alpha=0.5, l=50,
        classes=(ClassSpec(p=0.5, gamma=0.5), ClassSpec(p=0.8, gamma=0.5)),
    )


def cross_class_tie():
    # w_star ~ 1 ties age 1 of both classes at the budget boundary
    return NetworkConfig(
        n=4, alpha=0.75, l=34,
        classes=(ClassSpec(p=0.58, gamma=0.5), ClassSpec(p=0.88, gamma=0.5)),
    )


def chained_tie():
    # A class's age-1 index is 1 - (1 - p)**(l - 1). Classes 0 and 1 sit
    # 1.5e-12 and 0.75e-12 below 1, class 2 within 1e-33 of it: adjacent
    # values are 0.75e-12 apart, within TIE_TOL, but the ends 1.5e-12,
    # so the three chain into one tie group at w_star
    l, gaps = 34, (1.5e-12, 0.75e-12)
    ps = [1.0 - g ** (1.0 / (l - 1)) for g in gaps] + [0.9]
    return NetworkConfig(n=12, alpha=8 / 12, l=l, classes=tuple(
        ClassSpec(p=p, gamma=1 / 3) for p in ps))


def region_samples(cfg, sol, count=300, scale=0.05, seed=0):
    """Multiplicative perturbations of z*, renormalized per class, kept if
    they stay inside the linear region."""
    rng = np.random.default_rng(seed)
    z_star = sol.z_star.z
    gamma = cfg.gamma_vector()[:, None]
    out = []
    for _ in range(count):
        z = np.abs(z_star * (1.0 + scale * rng.normal(size=z_star.shape)))
        z *= gamma / z.sum(axis=1, keepdims=True)
        if in_region(z, cfg, sol):
            out.append(z)
    return out


def random_configs(seed):
    """Endless criterion-5-style instances: 1-4 classes, l in 3..30."""
    rng = np.random.default_rng(seed)
    while True:
        k = int(rng.integers(1, 5))
        sizes = rng.integers(1, 4, size=k) * int(rng.integers(1, 4))
        n = int(sizes.sum())
        if n < 2:
            continue
        l = int(rng.integers(3, 31))
        m = int(rng.integers(1, n))
        classes = tuple(
            ClassSpec(p=float(rng.uniform(0.1, 1.0)), gamma=int(s) / n)
            for s in sizes
        )
        yield NetworkConfig(n=n, alpha=m / n, l=l, classes=classes), rng


def test_fluid_step_sure_channel():
    cfg = one_class(1.0, 3, 0.5, n=10)
    out = fluid_step(np.array([[1.0, 0.0, 0.0]]), cfg).z
    np.testing.assert_allclose(out, [[0.5, 0.5, 0.0]], atol=1e-15)


def test_fixed_points():
    cases = (
        one_class(1.0, 3, 0.5, n=10),
        one_class(0.5, 3, 0.5, n=10),
        one_class(0.5, 3, 0.75, n=8),
        two_class_ref(),
    )
    for cfg in cases:
        sol = solve_rp(cfg)
        z = sol.z_star.z
        np.testing.assert_allclose(fluid_step(z, cfg).z, z, atol=1e-12)
        assert in_region(z, cfg, sol)


def test_linear_system_truncation_tie():
    cfg = one_class(0.5, 3, 0.5, n=10)
    sol = solve_rp(cfg)
    sysm = assemble_linear(cfg, sol)
    q = ref.dense_q(sysm)
    np.testing.assert_allclose(q, [[0.0, 0.0], [-1.0, 0.0]], atol=1e-14)
    np.testing.assert_allclose(sysm.c, [0.25, 0.75], atol=1e-14)
    assert spectral_radius(sysm) < 1e-12
    zred = reduce_occupancy(sol.z_star.z, sysm)
    np.testing.assert_allclose(q @ zred + sysm.c, zred, atol=1e-12)


def test_linear_system_singleton():
    cfg = one_class(0.5, 3, 0.75, n=8)
    sol = solve_rp(cfg)
    sysm = assemble_linear(cfg, sol)
    q = ref.dense_q(sysm)
    np.testing.assert_allclose(q, [[-0.5, -0.5], [0.5, 0.5]], atol=1e-14)
    # nilpotent: the deviation dies in a finite number of steps
    np.testing.assert_allclose(q @ q, np.zeros((2, 2)), atol=1e-14)
    assert spectral_radius(sysm) < 1e-12


def test_affine_map_matches_fluid_step_inside_region():
    cfg = two_class_ref()
    sol = solve_rp(cfg)
    sysm = assemble_linear(cfg, sol)
    q = ref.dense_q(sysm)
    samples = region_samples(cfg, sol)
    assert len(samples) >= 100
    worst = 0.0
    for z in samples:
        lhs = reduce_occupancy(fluid_step(z, cfg).z, sysm)
        rhs = q @ reduce_occupancy(z, sysm) + sysm.c
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-10


def test_spectral_routes_agree():
    cfg = two_class_ref()
    sol = solve_rp(cfg)
    rep = spectral_report(assemble_linear(cfg, sol))
    assert rep["route_agreement"] < 1e-8
    assert rep["rho"] == pytest.approx(rep["rho_closed_form"], abs=1e-8)
    assert 0.0 < rep["rho"] < 1.0
    # one eigenvalue per reduced coordinate: two classes, L-1 each
    assert len(rep["eigenvalues"]) == 2 * (cfg.l - 1)


@pytest.mark.parametrize("l, alpha, ps", [
    (50, 0.9, (0.1, 0.5)),
    (200, 0.6, (0.2, 0.95)),
])
def test_spectral_routes_agree_at_small_thresholds(l, alpha, ps):
    # a dense eigensolve of the whole class block returns a ring of
    # spurious eigenvalues around the defective served tail; the
    # deflated blocks match the closed form
    cfg = NetworkConfig(n=10, alpha=alpha, l=l,
                        classes=tuple(ClassSpec(p=p, gamma=0.5) for p in ps))
    sysm = assemble_linear(cfg, solve_rp(cfg))
    rep = spectral_report(sysm)
    assert rep["route_agreement"] < 1e-12
    assert len(rep["eigenvalues"]) == 2 * (l - 1)
    assert spectral_radius(sysm) == rep["rho"]


def test_block_spectrum_matches_full_block_reference():
    # Where the undeflated dense route is accurate, the deflated one gives
    # the same radius. At a first served age of 2 the true radius is p
    # and the spurious ring of the reference can sit a few 1e-9 away from
    # it, within ROUTE_TOL of the closed form, so such draws are not
    # compared.
    compared = 0
    draws = random_configs(20261018)
    while compared < 150:
        cfg, _ = next(draws)
        try:
            sysm = assemble_linear(cfg, solve_rp(cfg))
        except DegenerateThresholdError:
            continue
        rep = spectral_report(sysm)
        assert rep["route_agreement"] < 1e-12
        assert len(rep["eigenvalues"]) == cfg.k * (cfg.l - 1)
        ref_rho = float(np.abs(ref.block_spectrum(sysm)).max())
        if abs(ref_rho - rep["rho_closed_form"]) <= 1e-10:
            assert rep["rho"] == pytest.approx(ref_rho, rel=0, abs=1e-10)
            compared += 1


def bench_cases(l=500):
    """The analysis bench's four instances, at l ages."""
    for alpha, ps in ((0.5, (0.8, 0.2)), (0.25, (0.1, 0.3, 0.7, 0.9)),
                      (0.1, (0.5, 0.8)), (0.05, (0.2, 0.4, 0.6, 0.8))):
        yield NetworkConfig(n=400, alpha=alpha, l=l,
                            classes=tuple(ClassSpec(p=p, gamma=1.0 / len(ps))
                                          for p in ps))


def perturb(sysm, cells):
    """sysm with delta added to stored entries: ("sub", k, i) is sub[k][i],
    ("dense", k, (r, col)) is row r of dense[k] at column col."""
    sub = sysm.sub.copy()
    dense = [rows.copy() for rows in sysm.dense]
    for part, k, at, delta in cells:
        if part == "sub":
            sub[k][at] += delta
        else:
            dense[k][at] += delta
    return dataclasses.replace(sysm, sub=sub, dense=tuple(dense))


def reference_tail_checks(sysm):
    """The dense served-tail check on every materialized class block."""
    for k, blk in enumerate(ref.dense_blocks(sysm)):
        ref.tail_quotient(blk, sysm.full_from[k] - 2, k)


@pytest.mark.parametrize("cells, residual", [
    # one tail sub-diagonal entry (27, 26) of the non-critical class 0:
    # its column and the one before no longer sum to zero
    ([("sub", 0, 26, 1e-6)], "tail sum"),
    # the age-1 row (a head row) picking up a tail column
    ([("dense", 0, (0, 30), 1e-6)], "head component"),
    # one tail sub-diagonal entry of the critical class 1
    ([("sub", 1, 26, 1e-6)], "tail sum"),
    # mass moved from age l to the first tail row (the dense row after
    # the dropped age), on the diagonal: column sums unchanged, but a
    # prefix sum on the diagonal is not zero, so the tail is no longer
    # nilpotent
    ([("dense", 0, (1, 1), 1e-6), ("dense", 0, (2, 1), -1e-6)],
     "non-nilpotent tail"),
    # the same below the diagonal at 2e-9, with a head entry below the
    # head tolerance in that column: the head must not enter the tail's
    # prefix sums, or the residual would read 2.010e-09
    ([("dense", 0, (0, 20), 1e-11), ("dense", 0, (1, 20), 2e-9),
      ("dense", 0, (2, 20), -2e-9)], "non-nilpotent tail residual 2.000e-09"),
], ids=[f"cells{i}" for i in range(5)])
def test_perturbed_tail_is_rejected(cells, residual):
    cfg = two_class_ref()
    sysm = assemble_linear(cfg, solve_rp(cfg))
    assert sysm.full_from == (3, 3) and sysm.m == 1
    assert [at.tolist() for at in sysm.dense_at] == [[0, 1, 48]] * 2
    spectral_report(sysm)
    broken = perturb(sysm, cells)
    messages = set()
    for check in (spectral_report, spectral_radius, reference_tail_checks):
        with pytest.raises(ConvergenceError, match=f"served tail.*{residual}") as err:
            check(broken)
        messages.add(str(err.value))
    assert len(messages) == 1


def traced_peak(func, *args):
    """func(*args) and the bytes it allocated at its peak, beyond what was
    allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = func(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_linear_region_memory_is_its_blocks():
    # blocks stored in O(l): at L=3000, K=4 dense blocks alone would take
    # 288 MB, while assembling and certifying each stay within 4 MB
    cfg = list(bench_cases(l=3000))[1]
    sol = solve_rp(cfg)
    sysm, assembled = traced_peak(assemble_linear, cfg, sol)
    assert cfg.k == 4
    assert assembled <= 4e6
    _, certified = traced_peak(spectral_report, sysm)
    assert certified <= 4e6


@pytest.mark.parametrize("alpha, ps, l", [
    # class 0 is never served and is not the critical class
    (0.02, (0.01, 0.99), 200),
    # the critical class 0 is never fully served
    (0.02, (0.02, 0.9), 1000),
])
def test_block_without_served_tail_is_not_formed(monkeypatch, alpha, ps, l):
    # such a block is strictly lower triangular as stored, so it is
    # certified nilpotent without forming or squaring the (l-1)^2 block
    cfg = NetworkConfig(n=400, alpha=alpha, l=l, classes=tuple(
        ClassSpec(p=p, gamma=0.5) for p in ps))
    sysm = assemble_linear(cfg, solve_rp(cfg))
    assert sysm.full_from[0] == l + 1
    report, certified = traced_peak(spectral_report, sysm)
    assert certified < 8 * (l - 1) ** 2 / 4
    assert report["route_agreement"] < 1e-12
    # with the structural check off, the whole block goes down the
    # squaring route, with no tail and with a one-column tail
    monkeypatch.setattr(fluid, "_lower_quotient", lambda *args: False)
    assert report == spectral_report(sysm)
    assert report == spectral_report(
        dataclasses.replace(sysm, full_from=(l, sysm.full_from[1])))


def test_block_reaching_its_diagonal_is_squared():
    # a never-served block with an entry on its diagonal is not certified
    # by its shape; squaring finds the eigenvalue 1 that entry adds
    cfg = NetworkConfig(n=400, alpha=0.02, l=200, classes=(
        ClassSpec(p=0.01, gamma=0.5), ClassSpec(p=0.99, gamma=0.5)))
    sysm = assemble_linear(cfg, solve_rp(cfg))
    assert sysm.m == 1 and sysm.dense_at[0].tolist() == [0]
    with pytest.raises(ConvergenceError, match="class 0: expected nilpotent"):
        spectral_report(perturb(sysm, [("dense", 0, (0, 0), 1.0)]))


def test_lower_triangular_tail_quotient_is_not_squared(monkeypatch):
    # the critical class 0 is fully served from age 1388 at L = 2000.
    # Its 1387 x 1387 tail quotient is strictly lower triangular as
    # stored, so it is certified without being formed: squaring it peaks
    # at 46 MB
    cfg = NetworkConfig(n=400, alpha=0.02, l=2000, classes=(
        ClassSpec(p=0.02, gamma=0.5), ClassSpec(p=0.9, gamma=0.5)))
    sysm = assemble_linear(cfg, solve_rp(cfg))
    assert sysm.m == 0 and sysm.full_from[0] == 1388
    report, certified = traced_peak(spectral_report, sysm)
    assert certified < 8 * 1387 ** 2 / 4
    assert report["route_agreement"] < 1e-12
    monkeypatch.setattr(fluid, "_lower_quotient", lambda *args: False)
    assert report == spectral_report(sysm)


def test_tail_quotient_failing_the_check_is_squared():
    # one class, fully served from age 3: an entry on the diagonal of the
    # head's age-1 row leaves the tail check passing, but the quotient is
    # no longer lower triangular, so it is squared, which finds the
    # eigenvalue that entry adds
    cfg = NetworkConfig(n=2, alpha=0.5, l=6, classes=(ClassSpec(p=0.8, gamma=1.0),))
    sysm = assemble_linear(cfg, solve_rp(cfg))
    assert sysm.m == 0 and sysm.full_from == (3,)
    assert fluid._lower_quotient(sysm, 0, 1)
    broken = perturb(sysm, [("dense", 0, (0, 0), 1.0)])
    assert not fluid._lower_quotient(broken, 0, 1)
    with pytest.raises(ConvergenceError,
                       match="class 0: expected nilpotent.*after power"):
        spectral_report(broken)


def test_region_margin_at_z_star():
    for ps, margin in (((0.5, 0.8), 0.05), ((0.8, 0.2), 1.0 / 130)):
        cfg = NetworkConfig(n=100, alpha=0.5, l=50, classes=tuple(
            ClassSpec(p=p, gamma=0.5) for p in ps))
        sol = solve_rp(cfg)
        assert region_margin(sol.z_star, cfg, sol) == pytest.approx(
            margin, rel=0, abs=1e-12)


def old_j_w_star(z, cfg, sol):
    """Membership in all of j_w*: every tied cell counted as partly served."""
    table = whittle_index_table(cfg.p_vector(), cfg.l)
    above = z[table > sol.w_star + TIE_TOL].sum()
    tied = z[np.abs(table - sol.w_star) <= TIE_TOL].sum()
    return above < cfg.alpha + 1e-12 and above + tied >= cfg.alpha - 1e-12


@pytest.mark.parametrize("cfg", [cross_class_tie(), two_class_ref()],
                         ids=["cross_class_tie", "reference"])
def test_affine_map_holds_wherever_in_region_accepts(cfg):
    # in_region is the set where q z + c equals fluid_step: at a
    # cross-class tie the tied cells of classes before m count as fully
    # served and only class m's as partly served. All of j_w* is larger
    # there, and on 30% perturbations of z* the affine map breaks on
    # about a third of it; without a cross-class tie the two sets agree
    sol = solve_rp(cfg)
    sysm = assemble_linear(cfg, sol)
    q, c = ref.assemble_linear(cfg, sol)
    rng = np.random.default_rng(0)
    gamma = cfg.gamma_vector()[:, None]
    accepted = broken_in_j_w_star = 0
    for _ in range(3000):
        noise = rng.normal(size=sol.z_star.z.shape)
        z = np.abs(sol.z_star.z * (1.0 + 0.3 * noise))
        z *= gamma / z.sum(axis=1, keepdims=True)
        error = np.abs(q @ reduce_occupancy(z, sysm) + c
                       - reduce_occupancy(fluid_step(z, cfg).z, sysm)).max()
        if in_region(z, cfg, sol):
            assert old_j_w_star(z, cfg, sol)
            assert error <= AFFINE_TOL
            accepted += 1
        elif old_j_w_star(z, cfg, sol):
            broken_in_j_w_star += error > AFFINE_TOL
    assert accepted >= 1500
    if cfg == cross_class_tie():
        assert broken_in_j_w_star >= 500
    else:
        assert broken_in_j_w_star == 0


def test_region_margin_at_cross_class_tie():
    # z* has class 0 (= m) at its threshold age 1 with mass 0.5 - 3/188
    # served, and class 1's tied age-1 mass is not served: the margin is
    # 3/188, not the 0.25 of all of j_w*
    cfg = cross_class_tie()
    sol = solve_rp(cfg)
    assert sol.m == 0
    assert region_margin(sol.z_star, cfg, sol) == pytest.approx(
        3.0 / 188.0, rel=0, abs=1e-15)
    assert in_region(sol.z_star, cfg, sol)


def edge_occupancy(cfg, sol, served, tied):
    """z with `served` on one fully served cell, `tied` on one of class
    m's tied cells and the rest on a cell of neither kind."""
    above, at = fluid._region_cells(cfg, sol.w_star, sol.m)
    z = np.zeros(cfg.k * cfg.l)
    z[np.flatnonzero(above)[0]] = served
    z[np.flatnonzero(at)[0]] = tied
    z[np.flatnonzero(~above & ~at)[0]] = 1.0 - served - tied
    return z.reshape(cfg.k, cfg.l)


@pytest.mark.parametrize("cfg", [two_class_ref(), cross_class_tie()],
                         ids=["reference", "cross_class_tie"])
def test_region_edges_are_closed(cfg):
    # The fully served mass at alpha and that mass plus class m's tied
    # mass at alpha are both inside with margin 0; 2 * REGION_TOL past
    # either edge is outside. The masses are dyadic, so the sums are exact.
    sol = solve_rp(cfg)
    alpha, step = cfg.alpha, 2 * REGION_TOL
    edges = [(alpha, 0.0), (alpha - 0.0625, 0.0625)]
    outside = [(alpha + step, 0.0), (alpha - 0.0625, 0.0625 - step)]
    for served, tied in edges:
        z = edge_occupancy(cfg, sol, served, tied)
        assert in_region(z, cfg, sol)
        assert region_margin(z, cfg, sol) == 0.0
    for served, tied in outside:
        z = edge_occupancy(cfg, sol, served, tied)
        assert not in_region(z, cfg, sol)
        assert region_margin(z, cfg, sol) == pytest.approx(-step, rel=1e-3)


def stepwise_trajectory(z0, steps, cfg, sol):
    """Distances and in_region flags of a fluid_step loop on (k, l) arrays."""
    z = np.asarray(z0, dtype=float)
    distances, flags = [], []
    for t in range(steps + 1):
        if t:
            z = fluid_step(z, cfg).z
        distances.append(float(np.linalg.norm(z - sol.z_star.z)))
        flags.append(in_region(z, cfg, sol))
    return np.array(distances), np.array(flags)


@pytest.mark.parametrize("cfg, steps", [
    *((cfg, 40) for cfg in bench_cases()),
    (cross_class_tie(), 400),
    (two_class_ref(), 300),
])
def test_trajectory_rows_match_fluid_step_loop(cfg, steps):
    # fluid_trajectory iterates flat rows of sim._expected_slot with the
    # region masks read once: bit for bit the fluid_step loop
    sol = solve_rp(cfg)
    maxed = np.zeros((cfg.k, cfg.l))
    maxed[:, -1] = cfg.gamma_vector()
    distances, flags = stepwise_trajectory(maxed, steps, cfg, sol)
    traj = fluid_trajectory(maxed, steps, cfg, sol)
    assert traj.distances.tobytes() == distances.tobytes()
    assert traj.in_region.tolist() == flags.tolist()


@pytest.mark.parametrize("n, seed", [(80, 1), (320, 2)])
def test_fluid_deviation_matches_fluid_step_loop(n, seed):
    # the same kernel path, read from the slot kernel's generator, against
    # a fluid_step loop from its first state
    cfg = dataclasses.replace(two_class_ref(), n=n)
    sol = solve_rp(cfg)
    paths = _paths([(cfg, PolicyKind("whittle"), sol.z_star,
                    np.random.default_rng(seed))], 1)
    trace = [counts[0].reshape(cfg.k, cfg.l) / cfg.n
             for counts in itertools.islice(paths, 200)]
    z = trace[0]
    worst = 0.0
    for occ in trace:
        worst = max(worst, float(np.linalg.norm(occ - z)))
        z = fluid_step(z, cfg).z
    assert fluid_deviation(cfg, 200, seed, sol.z_star) == worst
    assert worst > 0.0


def test_trajectory_contracts_at_spectral_rate():
    cfg = two_class_ref()
    sol = solve_rp(cfg)
    rep = spectral_report(assemble_linear(cfg, sol))
    z0 = region_samples(cfg, sol, count=50, seed=7)[-1]
    traj = fluid_trajectory(z0, 500, cfg, sol)
    assert traj.converged
    assert traj.distances[-1] < 1e-10
    assert traj.contraction is not None
    assert traj.contraction <= rep["rho"] + 0.05
    assert all(traj.in_region)


def test_trajectory_from_all_stale_start():
    cfg = two_class_ref()
    sol = solve_rp(cfg)
    y0 = np.zeros_like(sol.z_star.z)
    y0[:, -1] = 0.5
    assert not in_region(y0, cfg, sol)
    traj = fluid_trajectory(y0, 2000, cfg, sol)
    assert traj.converged
    assert traj.distances[-1] < 1e-8
    # the orbit enters the linear region and stays there
    assert all(traj.in_region[-5:])


def test_degenerate_threshold_rejected():
    # a full cross-class tie pins one class at threshold 1, leaving that
    # class without a free coordinate in the reduced system
    cfg = NetworkConfig(
        n=10, alpha=0.9, l=5,
        classes=(ClassSpec(p=0.5, gamma=0.5), ClassSpec(p=0.5, gamma=0.5)),
    )
    sol = solve_rp(cfg)
    with pytest.raises(DegenerateThresholdError):
        assemble_linear(cfg, sol)


def test_cross_class_tie_at_w_star_is_certified():
    # fluid_step serves the tie group class by class, as the kernel and
    # solve_rp do, so z_star is its fixed point and the region map is
    # its affine form there. The proportional rule of
    # reference_impls.fluid_step moves z_star by 0.106, so the config
    # tells the two rules apart.
    cfg = cross_class_tie()
    sol = solve_rp(cfg)
    rep = spectral_report(assemble_linear(cfg, sol))
    moved = np.abs(fluid_step(sol.z_star, cfg).z - sol.z_star.z).max()
    assert moved <= AFFINE_TOL
    shared = np.abs(ref.fluid_step(sol.z_star.z, cfg).z - sol.z_star.z).max()
    assert shared > 0.1
    assert rep["rho"] == pytest.approx(0.88, abs=1e-12)
    assert rep["rho_closed_form"] == pytest.approx(0.88, abs=1e-12)
    assert rep["route_agreement"] <= 1e-12
    ones = np.zeros((cfg.k, cfg.l))
    ones[:, 0] = cfg.gamma_vector()
    traj = fluid_trajectory(ones, 400, cfg, sol)
    assert traj.converged
    assert traj.distances[-1] < 1e-12


def test_chained_class_quotient_is_squared():
    # p = 1e-13: the five index values of the one class lie within
    # TIE_TOL of their neighbours and chain into one tie group, so the
    # critical class is fully served only from l+1. Its stored quotient's
    # age-2 row is all -1, not strictly lower triangular, and the
    # squaring route certifies rho = 0 with no check switched off
    cfg = NetworkConfig(n=12, alpha=2 / 12, l=5,
                        classes=(ClassSpec(p=1e-13, gamma=1.0),))
    group, values = tie_groups(whittle_index_table(cfg.p_vector(), cfg.l))
    assert group.tolist() == [[0] * 5]
    sol = solve_rp(cfg)
    assert (sol.m, sol.l_star, sol.w_star) == (0, (1,), values[0])
    sysm = assemble_linear(cfg, sol)
    assert sysm.full_from == (6,)
    assert fluid._tail_quotient(sysm, 0, 4)[0].tolist() == [-1.0] * 4
    assert not fluid._lower_quotient(sysm, 0, 4)
    report = spectral_report(sysm)
    assert report["rho"] == 0.0 and report["route_agreement"] == 0.0


def test_chained_tie_is_one_group_for_solver_and_kernel(tmp_path, capsys):
    # the age-1 values chain within TIE_TOL but their ends do not, so
    # solve_rp must tie all three classes as the kernel does: a solver
    # that grouped by distance from a group's first value leaves class 0
    # out, and then fluid_step moves z_star by 5.9e-2, spectral exits 3
    # and fluid does not converge
    cfg = chained_tie()
    age_one = np.sort(whittle_index_table(cfg.p_vector(), cfg.l)[:, 0])
    assert np.diff(age_one).max() <= TIE_TOL < age_one[-1] - age_one[0]
    sol = solve_rp(cfg)
    moved = np.abs(fluid_step(sol.z_star, cfg).z - sol.z_star.z).max()
    assert moved <= AFFINE_TOL
    assemble_linear(cfg, sol)
    assert sol.c_rp == pytest.approx(ref.solve_rp(cfg).c_rp, rel=0, abs=1e-12)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "n": cfg.n, "alpha": cfg.alpha, "l": cfg.l,
        "classes": [{"p": c.p, "gamma": c.gamma} for c in cfg.classes]}))
    assert main(["spectral", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["stable"] is True
    assert main(["fluid", "--config", str(path), "--initial", "ones",
                 "--steps", "400"]) == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True


def test_chained_tie_thresholds_are_tie_group_counts():
    # thresholds count each class's cells in the groups below and at
    # w_star's. Class 2's age-1 value lies 1.5e-12 above w_star, more
    # than TIE_TOL, yet is chained into w_star's group, so solve_rp gives
    # it (2, 1) where the single-class optimal_thresholds gives (1, 1)
    cfg = chained_tie()
    sol = solve_rp(cfg)
    assert sol.thresholds == ((2, 1), (2, 1), (2, 1))
    assert sol.l_star == (1, 2, 2)
    p_2 = cfg.classes[2].p
    assert whittle_index_table(np.array([p_2]), cfg.l)[0, 0] - sol.w_star > TIE_TOL
    assert optimal_thresholds(sol.w_star, p_2, cfg.l) == (1, 1)


def assert_region_is_kernel_cut(cfg):
    """_region_cells' full mask is the cells before class m's first tied
    cell in the whittle _order, and its partial mask that cell's rank."""
    sol = solve_rp(cfg)
    above, at = fluid._region_cells(cfg, sol.w_star, sol.m)
    order = _order(cfg, "whittle")
    first = np.flatnonzero(at[order])[0]
    assert np.array_equal(np.flatnonzero(above), np.sort(order[:first]))
    rank = _whittle_rank(cfg).ravel()
    assert np.array_equal(at, rank == rank[order[first]])


def test_region_is_a_cut_of_the_kernel_order():
    rng = np.random.default_rng(2020)
    draws = (
        [criterion5_config(rng) for _ in range(200)]
        + [criterion5_config(rng, p_pool=(0.25, 0.5, 1.0)) for _ in range(100)]
        + [chained_tie()]
    )
    for cfg in draws:
        assert_region_is_kernel_cut(cfg)


def test_kernel_at_large_n_ends_near_cross_class_tie_z_star():
    # N = 1e6 from all ages 1: after 400 slots the kernel ends 6e-4 to
    # 1.3e-3 from z_star over seeds 0-4, about its stationary fluctuation
    # 0.8/sqrt(N); the proportional map of reference_impls.fluid_step
    # ends 0.12 from z_star after 400 steps from the same start
    cfg = dataclasses.replace(cross_class_tie(), n=10 ** 6)
    sol = solve_rp(cfg)
    rec = simulate(cfg, PolicyKind("whittle"), 400, 0, np.ones(cfg.n, dtype=int))
    assert np.linalg.norm(rec.final_occupancy.z - sol.z_star.z) < 0.005


def test_z_star_off_the_fluid_fixed_point_is_rejected():
    # no known config raises FixedPointError now. Move all of class 0
    # to age l: z leaves the linear region, so fluid_step moves it and
    # the affine map differs from fluid_step there, and the message
    # states both residuals
    cfg = two_class_ref()
    sol = solve_rp(cfg)
    z = sol.z_star.z.copy()
    z[0] = 0.0
    z[0, -1] = cfg.gamma_vector()[0]
    assert not in_region(z, cfg, sol)
    moved_sol = dataclasses.replace(sol, z_star=OccupancyVector(z=z))
    with pytest.raises(FixedPointError) as err:
        assemble_linear(cfg, moved_sol)
    moved, affine = (float(x) for x in re.findall(r"by (\S+)(?: and| there)",
                                                     str(err.value)))
    q, c = ref.assemble_linear(cfg, sol)
    nxt = fluid_step(z, cfg).z
    sysm = assemble_linear(cfg, sol)
    expected_affine = np.abs(q @ reduce_occupancy(z, sysm) + c
                             - reduce_occupancy(nxt, sysm)).max()
    assert moved == pytest.approx(np.abs(nxt - z).max(), rel=1e-3)
    assert affine == pytest.approx(expected_affine, rel=1e-3)
    assert moved > AFFINE_TOL and affine > AFFINE_TOL
    assert issubclass(FixedPointError, DegenerateThresholdError)


def assert_blocks_equal_dense_builder(cfg, sol, sysm):
    q, c = ref.assemble_linear_blocks(cfg, sol)
    assert np.array_equal(ref.dense_q(sysm), q)
    assert np.array_equal(sysm.c, c)
    # the served-tail quotients from the stored entries, against the
    # dense check on the materialized blocks, bit for bit
    for k, blk in enumerate(ref.dense_blocks(sysm)):
        h = sysm.full_from[k] - 2
        quot = fluid._tail_quotient(sysm, k, h)
        expected = ref.tail_quotient(blk, h, k)
        assert quot.shape == expected.shape
        assert quot.tobytes() == expected.tobytes()


def splits_cross_class_tie(z, cfg):
    """Whether the budget partly serves a tie group spanning classes."""
    flat = np.asarray(z, dtype=float).ravel()
    left = cfg.alpha
    for cells in ref.descending_groups(cfg):
        mass = flat[cells].sum()
        if 0.0 < left < mass:
            return len(np.unique(cells // cfg.l)) > 1
        left -= mass
    return False


def test_fast_paths_match_reference():
    # q and c from per-class blocks plus the rank-one coupling against
    # the dense-matrix reference, and fluid_step against the cell-by-cell
    # loop of the kernel's rule on every start; q, c and the served-tail
    # quotients also equal the dense block-by-block builder bit for bit.
    # The old proportional map agrees with fluid_step wherever the budget
    # splits no tie group that spans several classes.
    accepted = kernel_checked = proportional_checked = split = 0
    worst_q = worst_c = worst_step = worst_proportional = 0.0
    for cfg, rng in random_configs(20260819):
        sol = solve_rp(cfg)
        z_star = sol.z_star.z
        starts = (
            z_star,
            rng.dirichlet(np.ones(cfg.k * cfg.l)).reshape(cfg.k, cfg.l),
            rng.uniform(0.0, 0.2 * cfg.alpha / cfg.l, size=(cfg.k, cfg.l)),
        )
        for z in starts:
            out = fluid_step(z, cfg).z
            diff = np.abs(out - ref.kernel_fluid_step(z, cfg).z)
            worst_step = max(worst_step, float(diff.max()))
            kernel_checked += 1
            if splits_cross_class_tie(z, cfg):
                split += 1
                continue
            diff = np.abs(out - ref.fluid_step(z, cfg).z)
            worst_proportional = max(worst_proportional, float(diff.max()))
            proportional_checked += 1
        try:
            sysm = assemble_linear(cfg, sol)
        except DegenerateThresholdError:
            continue
        q, c = ref.assemble_linear(cfg, sol)
        sys_q = ref.dense_q(sysm)
        assert sys_q.shape == q.shape
        worst_q = max(worst_q, float(np.abs(sys_q - q).max()))
        worst_c = max(worst_c, float(np.abs(sysm.c - c).max()))
        assert_blocks_equal_dense_builder(cfg, sol, sysm)
        accepted += 1
        if accepted == 200:
            break
    assert worst_q <= 1e-12
    assert worst_c <= 1e-12
    assert worst_step <= 1e-12
    assert worst_proportional <= 1e-12
    assert kernel_checked > 0 and proportional_checked > 0 and split > 0
    # the analysis bench's four L=500 instances
    for cfg in bench_cases():
        sol = solve_rp(cfg)
        assert_blocks_equal_dense_builder(cfg, sol, assemble_linear(cfg, sol))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fluid_step_conserves_mass_and_spends_budget(data):
    k = data.draw(st.integers(1, 3))
    l = data.draw(st.integers(2, 12))
    # a small pool of p values makes cross-class index ties common
    p = st.sampled_from((0.25, 0.5, 1.0)) | st.floats(0.01, 1.0)
    ps = data.draw(st.lists(p, min_size=k, max_size=k))
    alpha = data.draw(st.floats(0.01, 0.99))
    cells = st.floats(0.0, 1.0) | st.just(0.0)
    z = np.array(data.draw(st.lists(cells, min_size=k * l, max_size=k * l)))
    z = z.reshape(k, l)
    cfg = NetworkConfig(n=100, alpha=alpha, l=l,
                        classes=tuple(ClassSpec(p=pk, gamma=1.0 / k) for pk in ps))
    out = fluid_step(z, cfg).z
    np.testing.assert_allclose(out.sum(axis=1), z.sum(axis=1), rtol=0, atol=1e-12)
    # served mass of class k returns to age 1 at rate p_k
    served = float((out[:, 0] / np.array(ps)).sum())
    assert served == pytest.approx(min(alpha, float(z.sum())), rel=0, abs=1e-12)
