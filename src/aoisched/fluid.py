"""Deterministic fluid-limit dynamics of the occupancy vector.

fluid_step applies the one-slot expectation map of the simulator's slot
kernel: cells (class, age) are served in decreasing order of their index
value until the budget alpha is spent, a tie group class by class and
then by age, by the kernel's own serve function on real masses, and
every class then ages or resets with its own success probability.

Inside the linear region, where the budget saturates exactly around the
critical index value w_star, the map is affine. Without a cross-class
tie at w_star that region is all of j_wstar; with one, the tied cells of
classes before the critical class m must be fully served and only class
m's partly (in_region). assemble_linear builds that affine map
explicitly on the same cells: one coordinate per class is eliminated
through the per-class mass constraint (the age l_star_k - 1 coordinate
for k != m, age l_star_m for the critical class), giving z' = Q z + c on
the reduced coordinates. Q is kept as what is not zero in it: one
diagonal block per class plus a rank-one coupling of the critical class
to the others, so Q is block triangular by construction. The spectral
radius of Q certifies local geometric convergence to the fixed point
z_star and is computed by two independent routes that must agree:
eigenvalues read off the numbers in the diagonal blocks, and the
closed-form characteristic factors of each class.

The first route deflates each class block before any eigensolve. From
the first fully served age f_k on, the block acts on sum-zero tail
vectors as a (1-p_k)-scaled shift, a defective Jordan block whose dense
eigenvalues would come back as a spurious ring of size about
(1-p_k) eps**(1/dim). That tail is checked to be invariant and nilpotent
and contributes exact zeros; only the (f_k - 1)-dimensional quotient
(head coordinates plus the tail sum) is solved. A class block is stored
and checked as its O(l) nonzero numbers, a sub-diagonal and at most
three dense rows. A critical or never-served class is nilpotent by
construction, and its quotient is certified from those entries when
they make it strictly lower triangular; only a quotient that is not is
formed and squared, as for a class whose index values chain into one
tie group (one class, p = 1e-13, l = 5, alpha = 2/12).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateThresholdError,
    FixedPointError,
    RangeError,
    ShapeError,
)
from .index import tie_groups, whittle_index_table
from .model import NetworkConfig, OccupancyVector
from .relaxed import RelaxedSolution
from .sim import _expected_slot, _whittle_rank

REGION_TOL = 1e-12
AFFINE_TOL = 1e-10
ROUTE_TOL = 1e-8
NILPOTENT_TOL = 1e-9
ZERO_DIST = 1e-14


@dataclass(frozen=True, eq=False)
class LinearRegionSystem:
    """Affine map z' = q z + c on the reduced coordinates of j_wstar.

    reduction[k] is the 1-based age coordinate eliminated for class k,
    and full_from[k] its first fully served age (l+1 when none is).
    q is stored by its parts that are not zero. The (l-1) x (l-1)
    diagonal block of class k is the sub-diagonal sub[k] (entry i at
    (i+1, i), zero on dense rows) plus the dense rows dense[k] at the
    ascending indices dense_at[k]: age 1, the age after the dropped one
    and age l, where kept. The off-diagonal blocks, all in the critical
    class's block row, are the rank-one outer(u, v[j]). v has one row per
    class and v[m] is zero; c is flat, class-major like the reduced
    coordinates.
    """

    sub: np.ndarray
    dense_at: tuple[np.ndarray, ...]
    dense: tuple[np.ndarray, ...]
    u: np.ndarray
    v: np.ndarray
    c: np.ndarray
    reduction: tuple[int, ...]
    full_from: tuple[int, ...]
    p: tuple[float, ...]
    l_star: tuple[int, ...]
    m: int
    l: int


@dataclass(frozen=True, eq=False)
class FluidTrajectory:
    """Distances to z_star, region membership flags, and tail contraction."""

    distances: np.ndarray
    in_region: np.ndarray
    contraction: float | None
    converged: bool


def _as_array(z) -> np.ndarray:
    if isinstance(z, OccupancyVector):
        return np.array(z.z, dtype=float)
    return np.array(z, dtype=float)


def fluid_step(z, cfg: NetworkConfig) -> OccupancyVector:
    """One slot of the fluid dynamics: the slot kernel's expected slot.

    Masses are served by the kernel's own rule, sim._serve_in_order in
    Whittle order: index descending, a tie group class by class in
    ascending class order, then by ascending age, each cell getting the
    smaller of its mass and the budget alpha the cells before it left.
    p_k times the served mass are the expected successes, and
    sim._advance, linear in them, resets them to age 1 and ages the
    rest, truncated at l. Total on the occupancy simplex. This is
    sim._expected_slot on one row.
    """
    zmat = _as_array(z)
    if zmat.shape != (cfg.k, cfg.l):
        raise ShapeError(f"occupancy shape {zmat.shape} != {(cfg.k, cfg.l)}")
    return OccupancyVector(
        z=_expected_slot(zmat.reshape(1, -1), cfg).reshape(zmat.shape))


@lru_cache(maxsize=32)
def _region_cells(cfg: NetworkConfig, w_star: float, m: int) -> tuple:
    """Flat masks of the cells served in full and of those served in part.

    A cut of the kernel's service order: in part, class m's cells in the
    index.tie_groups group at w_star, one sim._whittle_rank; in full, the
    cells of lower rank, so higher groups and the tied cells of classes
    before m, which the kernel serves first in a tie group.
    """
    _, values = tie_groups(whittle_index_table(cfg.p_vector(), cfg.l))
    cut = (values.size - 1 - np.searchsorted(values, w_star)) * cfg.k + m
    rank = _whittle_rank(cfg).ravel()
    above, at = rank < cut, rank == cut
    above.setflags(write=False)
    at.setflags(write=False)
    return above, at


def _margin(flat: np.ndarray, cells: tuple, alpha: float) -> float:
    """alpha minus the fully served mass, or that mass plus class m's
    tied mass minus alpha, whichever is smaller."""
    above_cells, at_cells = cells
    above = flat[above_cells].sum()
    return float(min(alpha - above, above + flat[at_cells].sum() - alpha))


def in_region(z, cfg: NetworkConfig, sol: RelaxedSolution) -> bool:
    """Membership in the linear region, both edges included (closed set).

    The region is where the affine map of assemble_linear equals
    fluid_step: the fully served mass (cells above w_star and the tied
    cells of classes before the critical class m) is below alpha, and
    adding class m's tied mass covers alpha. So the scheduled fraction
    is exactly alpha and only class m's tied cells are partly served.
    Without a cross-class tie at w_star this is all of j_wstar. Both
    tests allow REGION_TOL: region_margin(z, cfg, sol) >= -REGION_TOL.
    """
    return region_margin(z, cfg, sol) >= -REGION_TOL


def region_margin(z, cfg: NetworkConfig, sol: RelaxedSolution) -> float:
    """Margin of z inside the linear region, negative outside: the
    smaller of alpha - fully served mass and that mass plus class m's
    tied mass - alpha (see in_region)."""
    cells = _region_cells(cfg, sol.w_star, sol.m)
    return _margin(_as_array(z).ravel(), cells, cfg.alpha)


def assemble_linear(cfg: NetworkConfig, sol: RelaxedSolution) -> LinearRegionSystem:
    """Build the affine map of the linear region from the flow structure.

    Near z_star the full-coordinate update is affine: the cells fully
    served at z_star stay so, the critical class's first tied cell c0
    carries the residual alpha minus the fully-served mass, and every
    other cell idles. This is fluid_step's rule: solve_rp flips tied
    classes in class order, so on a tie group at w_star the classes
    before m are fully served, m partly and those after m not at all,
    the order in which the kernel serves the group. `full` is
    _region_cells' mask, so in_region tests where this map holds; without
    a cross-class tie that is all of j_wstar. Per class the flows are
    z' = a_z z + a_s s, with a_z the truncated age shift and a_s the
    reset of served mass to age 1 at rate p_k, so the full-coordinate
    map is z' = b z + alpha a_s[:, c0] with

        b = a_z + a_s diag(full) - a_s[:, c0] full^T.

    The last term lives in the critical class's rows only, so b is block
    diagonal apart from that rank-one coupling. The per-class mass
    constraints then eliminate one coordinate per class (age
    l_star_k - 1 for k != m, age l_star_m for the critical class),
    yielding (q, c) on k*(l-1) coordinates. _class_block forms each
    diagonal block of q as its sub-diagonal and dense rows, with no l x l
    array. The coupling stays rank one: the dropped age l_star_j - 1 of
    a class j != m is never fully served, so substituting it adds
    nothing to the critical rows, and the (m, j) block of q is
    outer(u, v[j]), with u the kept rows of -a_s[:, c0] and v[j] the
    kept entries of class j's full mask.
    Raises FixedPointError when fluid_step moves z_star or q z + c
    disagrees with fluid_step at z_star (see _check_fixed_point).
    """
    k_cls, l, m = cfg.k, cfg.l, sol.m
    p_vec = cfg.p_vector()
    gamma = cfg.gamma_vector()

    for k in range(k_cls):
        if k != m and sol.l_star[k] < 2:
            raise DegenerateThresholdError(
                f"class {k}: effective threshold {sol.l_star[k]} leaves no "
                "coordinate to eliminate"
            )

    reduction = tuple(s if k == m else s - 1 for k, s in enumerate(sol.l_star))
    full = _region_cells(cfg, sol.w_star, m)[0].reshape(k_cls, l)
    full_from = tuple(int(f) for f in l + 1 - full.sum(axis=1))
    ages = np.arange(1, l + 1)
    keep = [ages != reduction[k] for k in range(k_cls)]
    col0 = _flows(ages - 1, sol.l_star[m] - 1, l, p_vec[m])[1]

    parts = [_class_block(p_vec[k], full[k], reduction[k] - 1, gamma[k],
                          col0 if k == m else None) for k in range(k_cls)]
    sub, dense_at, dense, c_vec = (list(x) for x in zip(*parts))
    c_vec[m] += col0[keep[m]] * cfg.alpha
    v = np.array([full[j][keep[j]] for j in range(k_cls)], dtype=float)
    v[m] = 0.0
    system = LinearRegionSystem(
        sub=np.array(sub),
        dense_at=tuple(dense_at),
        dense=tuple(dense),
        u=-col0[keep[m]],
        v=v,
        c=np.concatenate(c_vec),
        reduction=reduction,
        full_from=full_from,
        p=tuple(float(x) for x in p_vec),
        l_star=tuple(sol.l_star),
        m=m,
        l=l,
    )
    _check_fixed_point(system, cfg, sol)
    return system


def _flows(rows, cols, l: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Entries [rows, cols] (broadcast) of the age shift a_z and of a_s."""
    a_z = ((cols == rows - 1) | ((rows == l - 1) & (cols == l - 1))) * 1.0
    return a_z, p * ((rows == 0) * 1.0 - a_z)


def _class_block(p: float, full: np.ndarray, drop: int, gamma: float,
                 col0: np.ndarray | None) -> tuple:
    """(sub, dense_at, dense) of one class's block of q, and its part of c.

    Substituting the dropped coordinate, whose mass is gamma minus the
    kept ones, subtracts b's dropped column from its kept columns and
    adds gamma times it to c. Rows of b other than age 1, age l and the
    age after the dropped one (the rows that reset, truncate, touch col0
    or hold the dropped column) are the age shift, scaled by 1 - p on
    served ages: one sub-diagonal entry. Those three are the dense rows,
    formed with the dense b's float operations, so they match it bit for
    bit.
    """
    l = full.size
    sub = np.zeros(l - 2)
    i = np.setdiff1d(np.arange(1, l - 1), [drop, drop + 1])
    sub[i - 1 - (i - 1 > drop)] = np.where(full[i - 1], 1.0 - p, 1.0)
    rows = np.setdiff1d([0, drop + 1, l - 1], [drop, l])
    a_z, a_s = _flows(rows[:, None], np.arange(l), l, p)
    s = a_s * full
    if col0 is not None:
        s -= np.outer(col0[rows], full)
    b = a_z + s
    at = rows - (rows > drop)
    c = np.zeros(l - 1)
    c[at] = b[:, drop] * gamma
    return sub, at, np.delete(b, drop, axis=1) - b[:, drop, None], c


def _check_fixed_point(sys: LinearRegionSystem, cfg: NetworkConfig,
                       sol: RelaxedSolution) -> None:
    """Check on the numbers that the certificate is about the fluid map.

    z_star must be a fixed point of fluid_step, and q z + c must equal
    fluid_step there in reduced coordinates; a failure means that
    z_star, q and fluid_step do not share one service rule. q z is the
    sub-diagonal times the shifted z, the dense rows times z, and the
    coupling u (v . z).
    """
    z_star = sol.z_star.z
    nxt = fluid_step(z_star, cfg).z
    moved = float(np.abs(nxt - z_star).max())
    parts = reduce_occupancy(z_star, sys).reshape(len(sys.sub), -1)
    image = np.pad(sys.sub * parts[:, :-1], ((0, 0), (1, 0)))
    for k, (at, rows) in enumerate(zip(sys.dense_at, sys.dense)):
        image[k, at] = rows @ parts[k]
    image[sys.m] += sys.u * np.vdot(sys.v, parts)
    affine = float(np.abs(image.ravel() + sys.c
                          - reduce_occupancy(nxt, sys)).max())
    if moved > AFFINE_TOL or affine > AFFINE_TOL:
        raise FixedPointError(
            f"fluid_step moves z_star by {moved:.3e} and the affine map "
            f"differs from it by {affine:.3e} there (tolerance {AFFINE_TOL})"
        )


def _closed_form_radius(sys: LinearRegionSystem) -> float:
    """Spectral radius from the per-class characteristic factors.

    For a non-critical class with effective threshold l_star <= l the
    nonzero eigenvalues are the roots of
    lambda**(l_star-1) + p * sum_{i<l_star-1} lambda**i; a never-served
    class (l_star = l+1) and the critical class contribute only zeros.
    """
    rho = 0.0
    for k, l_star in enumerate(sys.l_star):
        if k == sys.m or l_star == sys.l + 1:
            continue
        coeffs = np.concatenate(([1.0], np.full(l_star - 1, sys.p[k])))
        roots = np.roots(coeffs)
        if roots.size:
            rho = max(rho, float(np.abs(roots).max()))
    return rho


def _block_rows(sys: LinearRegionSystem, k: int, rows, width: int) -> np.ndarray:
    """Rows `rows` (ascending) of class k's block, first width columns."""
    out = np.zeros((rows.size, width))
    on = (rows >= 1) & (rows <= width)
    out[on, rows[on] - 1] = sys.sub[k][rows[on] - 1]
    at = sys.dense_at[k]
    out[np.isin(rows, at)] = sys.dense[k][np.isin(at, rows), :width]
    return out


def _check_tail(sys: LinearRegionSystem, k: int, h: int) -> None:
    """Check that class k's served tail is invariant and nilpotent.

    The first h coordinates are the head (ages below the first fully
    served age), the rest the tail. With the basis
    v_i = e_{t_i} - e_{t_{i+1}} of the sum-zero tail vectors V, each
    column blk v_i must have no head component, a zero tail sum and
    strictly lower triangular V-coordinates (prefix sums of its tail).
    Then V is invariant and nilpotent, and the block's spectrum is that
    of its (h+1) x (h+1) quotient on (head, tail sum) plus one exact zero
    per dimension of V. blk v_i has at most five entries, rows i+1 and
    i+2 of the sub-diagonal and one per dense row; summed in ascending
    row order they give the dense column's prefix sums bit for bit.
    Nothing to check with no tail (h >= l-1).
    """
    d = sys.l - 1
    if h >= d:
        return
    at, dense = sys.dense_at[k], sys.dense[k]
    cols = np.arange(h, d - 1)
    sub = np.append(sys.sub[k], 0.0)
    where = np.concatenate(([cols + 1, cols + 2],
                            np.repeat(at[:, None], cols.size, axis=1)))
    moved = np.concatenate(([sub[cols], -sub[cols + 1]],
                            dense[:, cols] - dense[:, cols + 1]))
    head = np.abs(moved[where < h]).max(initial=0.0)
    moved[where < h] = 0.0
    order = np.argsort(where, axis=0, kind="stable")
    where = np.take_along_axis(where, order, axis=0)
    coords = np.abs(np.cumsum(np.take_along_axis(moved, order, axis=0), axis=0))
    residuals = (
        ("head component", head, AFFINE_TOL),
        ("tail sum", coords[-1].max(initial=0.0), AFFINE_TOL),
        ("non-nilpotent tail", coords[where <= cols].max(initial=0.0),
         NILPOTENT_TOL),
    )
    for what, residual, tol in residuals:
        if residual > tol:
            raise ConvergenceError(
                f"class {k}: served tail not invariant, {what} residual "
                f"{residual:.3e}"
            )


def _tail_rows(sys: LinearRegionSystem, k: int, h: int) -> np.ndarray:
    """The tail rows (ascending) with an entry in the first h+1 columns."""
    at = sys.dense_at[k]
    return np.union1d([h, min(h + 1, sys.l - 2)], at[at >= h])


def _tail_quotient(sys: LinearRegionSystem, k: int, h: int) -> np.ndarray:
    """Class k's block on the quotient by its served tail (see _check_tail).

    Head rows and columns, plus the tail-sum row, which adds the tail
    rows in ascending order, as numpy's axis-0 sum does; at h = 0 its
    one entry sums rows 0, 1 and l-2 alone, which numpy's pairwise sum of
    one column adds in the same order. With no tail (h >= l-1) the whole
    dense block is returned.
    """
    d = sys.l - 1
    if h >= d:
        return _block_rows(sys, k, np.arange(d), d)
    quot = _block_rows(sys, k, np.arange(h + 1), h + 1)
    quot[h] = _block_rows(sys, k, _tail_rows(sys, k, h), h + 1).sum(axis=0)
    return quot


def _lower_quotient(sys: LinearRegionSystem, k: int, h: int) -> bool:
    """Whether class k's tail quotient is strictly lower triangular.

    Read from the stored entries, without forming the quotient: the
    sub-diagonal lies below the diagonal, so it is enough that every
    dense head row is zero at and right of its own index and, with a
    tail, that the tail-sum row's diagonal entry, summed as
    _tail_quotient sums it, is exactly zero.
    """
    if any(row[a:h + 1].any() for a, row in zip(sys.dense_at[k], sys.dense[k])
           if a < h):
        return False
    if h >= sys.l - 1:
        return True
    return _block_rows(sys, k, _tail_rows(sys, k, h), h + 1)[:, h].sum() == 0.0


def _block_spectrum(sys: LinearRegionSystem) -> np.ndarray:
    """Eigenvalues of q, one deflated diagonal class block at a time.

    The only off-diagonal blocks of q, outer(u, v[j]), sit in the
    critical block row, so q's spectrum is that of its class blocks.
    Each block's served tail is checked by _check_tail: from the first
    fully served age f_k on, sum-zero tail vectors are shifted down the
    ages at rate 1-p_k, an exactly nilpotent action that a dense
    eigensolve would return as a spurious ring of size about
    (1-p_k) eps**(1/dim). Those l-f_k dimensions contribute exact zeros
    and only the (f_k-1)-dimensional quotient is solved. The critical
    class and never-served classes are nilpotent by construction: their
    quotient (the whole block when there is no tail) is certified from
    its stored entries when _lower_quotient finds it strictly lower
    triangular, and is otherwise formed and squared past the nilpotency
    index. The latter happens to a class whose index values chain into
    one tie group, fully served only from l+1: at p = 1e-13, l = 5 its
    quotient's age-2 row is all -1.
    """
    d = sys.l - 1
    parts = []
    for k, f in enumerate(sys.full_from):
        h = f - 2
        _check_tail(sys, k, h)
        nilpotent = k == sys.m or sys.l_star[k] == sys.l + 1
        if nilpotent and _lower_quotient(sys, k, h):
            parts.append(np.zeros(d, dtype=complex))
            continue
        quot = _tail_quotient(sys, k, h)
        parts.append(np.zeros(d - len(quot), dtype=complex))
        if nilpotent:
            power, exponent = quot, 1
            while exponent < 4 * len(quot):
                power = power @ power
                exponent *= 2
            residual = float(np.abs(power).max())
            if residual > NILPOTENT_TOL:
                raise ConvergenceError(
                    f"class {k}: expected nilpotent block, residual "
                    f"{residual:.3e} after power {exponent}"
                )
            parts.append(np.zeros(len(quot), dtype=complex))
            continue
        try:
            parts.append(np.linalg.eigvals(quot))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigenvalue solver failed: {exc}") from exc
    return np.concatenate(parts)


def spectral_report(sys: LinearRegionSystem) -> dict:
    """JSON-ready report: radius, eigenvalues, and route agreement.

    Raises ConvergenceError when the block-spectrum radius and the
    closed-form radius differ by more than ROUTE_TOL.
    """
    eigs = _block_spectrum(sys)
    dense = float(np.abs(eigs).max()) if eigs.size else 0.0
    closed = _closed_form_radius(sys)
    agreement = abs(dense - closed)
    if agreement > ROUTE_TOL:
        raise ConvergenceError(
            f"spectral routes disagree: dense {dense} vs closed form {closed}"
        )
    order = np.argsort(-np.abs(eigs))
    return {
        "rho": dense,
        "rho_closed_form": closed,
        "route_agreement": agreement,
        "eigenvalues": [[float(e.real), float(e.imag)] for e in eigs[order]],
    }


def spectral_radius(sys: LinearRegionSystem) -> float:
    """max |eigenvalue| of q, certified by two independent routes."""
    return spectral_report(sys)["rho"]


def reduce_occupancy(z, sys: LinearRegionSystem) -> np.ndarray:
    """Drop the eliminated coordinate of each class."""
    zmat = _as_array(z)
    keep = np.arange(1, sys.l + 1) != np.array(sys.reduction)[:, None]
    return zmat[keep]


def fluid_trajectory(
    z0, steps: int, cfg: NetworkConfig, sol: RelaxedSolution
) -> FluidTrajectory:
    """Iterate fluid_step and report convergence toward z_star.

    Records the Euclidean distance to z_star and region membership at
    every step, plus the geometric mean of the tail distance ratios as
    the empirical contraction factor. The iterate stays one flat row of
    sim._expected_slot, and the region masks are read once.
    """
    if steps < 0:
        raise RangeError(f"steps must be >= 0, got {steps}")
    zmat = _as_array(z0)
    if zmat.shape != (cfg.k, cfg.l):
        raise ShapeError(f"occupancy shape {zmat.shape} != {(cfg.k, cfg.l)}")
    z = zmat.reshape(1, -1)
    z_star = sol.z_star.z.ravel()
    cells = _region_cells(cfg, sol.w_star, sol.m)
    distances = np.empty(steps + 1)
    flags = np.empty(steps + 1, dtype=bool)
    for t in range(steps + 1):
        if t:
            z = _expected_slot(z, cfg)
        distances[t] = float(np.linalg.norm(z[0] - z_star))
        flags[t] = _margin(z[0], cells, cfg.alpha) >= -REGION_TOL
    ratios = []
    for t in range(steps // 2, steps):
        if distances[t] > ZERO_DIST and distances[t + 1] > ZERO_DIST:
            ratios.append(distances[t + 1] / distances[t])
    if ratios:
        contraction = float(np.exp(np.mean(np.log(ratios))))
    elif distances[-1] <= 1e-10:
        contraction = 0.0
    else:
        contraction = None
    return FluidTrajectory(
        distances=distances,
        in_region=flags,
        contraction=contraction,
        converged=bool(distances[-1] < 1e-8),
    )
