"""Fluid map, linearized region dynamics, and spectral stability checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_impls as ref
from aoisched import ClassSpec, NetworkConfig, fluid
from aoisched.errors import (
    ConvergenceError,
    DegenerateThresholdError,
    FixedPointError,
)
from aoisched.fluid import (
    AFFINE_TOL,
    assemble_linear,
    fluid_step,
    fluid_trajectory,
    in_region,
    reduce_occupancy,
    spectral_radius,
    spectral_report,
)
from aoisched.relaxed import solve_rp


def one_class(p, l, alpha, n=12):
    return NetworkConfig(n=n, alpha=alpha, l=l, classes=(ClassSpec(p=p, gamma=1.0),))


def two_class_ref():
    return NetworkConfig(
        n=100, alpha=0.5, l=50,
        classes=(ClassSpec(p=0.5, gamma=0.5), ClassSpec(p=0.8, gamma=0.5)),
    )


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


def mutate(blocks, cells):
    blocks = [blk.copy() for blk in blocks]
    for k, row, col, delta in cells:
        blocks[k][row, col] += delta
    return tuple(blocks)


def bench_cases(l=500):
    """The analysis bench's four instances, at l ages."""
    for alpha, ps in ((0.5, (0.8, 0.2)), (0.25, (0.1, 0.3, 0.7, 0.9)),
                      (0.1, (0.5, 0.8)), (0.05, (0.2, 0.4, 0.6, 0.8))):
        yield NetworkConfig(n=400, alpha=alpha, l=l,
                            classes=tuple(ClassSpec(p=p, gamma=1.0 / len(ps))
                                          for p in ps))


# Tail chunk sizes: one column, chunks that split the tail unevenly, the
# default and twice it, and one chunk for the whole tail.
CHUNKS = (1, 7, fluid.TAIL_CHUNK, 2 * fluid.TAIL_CHUNK, 10 ** 6)


def test_tail_quotient_does_not_depend_on_chunk(monkeypatch):
    for cfg in bench_cases():
        sysm = assemble_linear(cfg, solve_rp(cfg))
        for k, (blk, f) in enumerate(zip(sysm.blocks, sysm.full_from)):
            quots = []
            for chunk in CHUNKS:
                monkeypatch.setattr(fluid, "TAIL_CHUNK", chunk)
                quots.append(fluid._tail_quotient(blk, f - 2, k))
            assert quots[0].shape == (f - 1, f - 1)
            for quot in quots[1:]:
                assert np.array_equal(quot, quots[0])


@pytest.mark.parametrize("cells", [
    # one tail entry of the non-critical class 0 (first served age 3)
    [(0, 20, 30, 1e-6)],
    # a head row picking up a tail column
    [(0, 0, 30, 1e-6)],
    # one tail entry of the critical class 1 (first served age 3)
    [(1, 20, 30, 1e-6)],
    # tail mass kept in place rather than shifted: column sums unchanged,
    # but the tail is no longer nilpotent
    [(0, 20, 20, 1e-6), (0, 21, 20, -1e-6)],
    # column 8 starts the second chunk of 7 tail columns (the tail starts
    # at column 1), so its two differences fall in different chunks
    [(0, 20, 8, 1e-6)],
])
def test_perturbed_tail_is_rejected(cells, monkeypatch):
    cfg = two_class_ref()
    sysm = assemble_linear(cfg, solve_rp(cfg))
    assert sysm.full_from == (3, 3) and sysm.m == 1
    spectral_report(sysm)
    broken = dataclasses.replace(sysm, blocks=mutate(sysm.blocks, cells))
    messages = set()
    for chunk in CHUNKS:
        monkeypatch.setattr(fluid, "TAIL_CHUNK", chunk)
        with pytest.raises(ConvergenceError, match="served tail") as err:
            spectral_report(broken)
        messages.add(str(err.value))
        with pytest.raises(ConvergenceError, match="served tail") as err:
            spectral_radius(broken)
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
    # no l x l temporaries: assembling costs the blocks it returns, and
    # certifying them costs less than one of them
    cfg = list(bench_cases(l=400))[1]
    sol = solve_rp(cfg)
    sysm, assembled = traced_peak(assemble_linear, cfg, sol)
    assert cfg.k == 4
    blocks = sum(blk.nbytes for blk in sysm.blocks)
    assert assembled <= 1.1 * blocks
    _, certified = traced_peak(spectral_report, sysm)
    assert certified < sysm.blocks[0].nbytes


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
    np.testing.assert_allclose(traj.final.z, sol.z_star.z, atol=1e-8)


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


def test_cross_class_tie_at_w_star_is_not_certified():
    # w_star ~ 1 ties age 1 of both classes; fluid_step shares the
    # residual budget over the tie group and moves z_star by 0.106, so
    # the region map (critical class alone randomizes) is not the fluid
    # map there and no spectral radius may be reported
    cfg = NetworkConfig(
        n=4, alpha=0.75, l=34,
        classes=(ClassSpec(p=0.58, gamma=0.5), ClassSpec(p=0.88, gamma=0.5)),
    )
    sol = solve_rp(cfg)
    moved = np.abs(fluid_step(sol.z_star, cfg).z - sol.z_star.z).max()
    assert moved == pytest.approx(0.106, abs=1e-3)
    with pytest.raises(FixedPointError):
        assemble_linear(cfg, sol)
    assert issubclass(FixedPointError, DegenerateThresholdError)


def assert_blocks_equal_dense_builder(cfg, sol, sysm):
    q, c = ref.assemble_linear_blocks(cfg, sol)
    assert np.array_equal(ref.dense_q(sysm), q)
    assert np.array_equal(sysm.c, c)


def test_fast_paths_match_reference():
    # q and c from per-class blocks plus the rank-one coupling, and
    # fluid_step from one cumsum over the tie groups, against the
    # dense-matrix and group-loop references; q and c also equal the
    # dense block-by-block builder bit for bit
    accepted = 0
    worst_q = worst_c = worst_step = 0.0
    for cfg, rng in random_configs(20260819):
        sol = solve_rp(cfg)
        z_star = sol.z_star.z
        starts = (
            z_star,
            rng.dirichlet(np.ones(cfg.k * cfg.l)).reshape(cfg.k, cfg.l),
            rng.uniform(0.0, 0.2 * cfg.alpha / cfg.l, size=(cfg.k, cfg.l)),
        )
        for z in starts:
            diff = np.abs(fluid_step(z, cfg).z - ref.fluid_step(z, cfg).z)
            worst_step = max(worst_step, float(diff.max()))
        try:
            sysm = assemble_linear(cfg, sol)
        except FixedPointError:
            # skipped only where fluid_step itself moves z_star
            assert np.abs(fluid_step(z_star, cfg).z - z_star).max() > AFFINE_TOL
            continue
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
