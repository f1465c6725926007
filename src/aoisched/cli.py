"""Command line harness for solving, simulating, and sweeping configs.

One executable with subcommands: solve-rp, simulate, hitting-time,
fluid, spectral, oracle-check, experiment. Every run is driven by a
JSON config file plus flags; all randomness flows from --seed. Exit
codes: 0 success, 2 invalid input, 3 computation failure or a problem
too large for memory; failures print a one-line JSON error object to
stderr.

Experiment sweeps write three files into --out: rows.csv with one row
per (n, policy, replication), summary.json with per-point means and
standard errors, and plot.csv with the same per-point statistics, one
line per point sorted by (n, policy). Each (n, policy) point runs its
replications as one batch of the simulator's count kernel, seeded from
the master seed and the point by one rule, _point_seeds; _point_rows
builds a point's rows for both experiment and simulate, and
hitting-time takes its seed from the same rule. Rows are written in a
fixed nested order and floats use repr round-trip formatting, so reruns
with the same master seed produce byte-identical bodies.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ComputationError,
    ConvergenceError,
    ParseError,
    RangeError,
    ValidationError,
)
from .fluid import (assemble_linear, fluid_trajectory, region_margin,
                    spectral_report)
from .index import optimal_thresholds, threshold_costs, whittle_index_table
from .model import NetworkConfig, load_config, validate_config
from .oracle import rvi_grid
from .relaxed import solve_rp
from .sim import (
    HITTING_CAP,
    POLICY_NAMES,
    PolicyKind,
    check_horizon,
    hitting_times,
    rp_policy,
    simulate,
)

CSV_HEADER = "seed,n,policy,horizon,avg_age_per_user,c_rp,rel_gap,hitting_time"
PLOT_HEADER = ("n,policy,replications,avg_age_mean,avg_age_stderr,"
               "rel_gap_mean,rel_gap_stderr,hitting_time_mean,hitting_time_stderr")
INITIAL_KINDS = ("ones", "maxed", "star")


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: base config rescaled over n_sweep, per policy and seed."""

    base: NetworkConfig
    n_sweep: tuple[int, ...]
    policies: tuple[str, ...]
    replications: int
    horizon: int
    seed: int
    out: str
    epsilon: float | None = None
    initial: str = "ones"
    cap: int = HITTING_CAP


def _config_with_n(base: NetworkConfig, n: int) -> NetworkConfig:
    cfg = NetworkConfig(n=n, alpha=base.alpha, l=base.l, classes=base.classes)
    return validate_config(cfg)


def _initial_occupancy(kind: str, cfg: NetworkConfig, sol) -> np.ndarray:
    z = np.zeros((cfg.k, cfg.l))
    if kind == "ones":
        z[:, 0] = cfg.gamma_vector()
    elif kind == "maxed":
        z[:, -1] = cfg.gamma_vector()
    elif kind == "star":
        z = sol.z_star.z.copy()
    else:
        raise RangeError(f"unknown initial state kind {kind!r}")
    return z


def _point_seeds(seed: int, n: int, name: str) -> list[np.random.SeedSequence]:
    """Simulation and hitting-time seeds of the (n, policy) point.

    SeedSequence([seed, n, POLICY_NAMES.index(name)]) spawns two
    children: the first seeds the simulate batch, the second the
    hitting_times batch.
    """
    return np.random.SeedSequence([seed, n, POLICY_NAMES.index(name)]).spawn(2)


def _point_rows(cfg: NetworkConfig, sol, name: str, init, seed: int,
                horizon: int, replications: int, epsilon: float | None,
                cap: int) -> list[tuple]:
    """CSV rows of one (n, policy) point, replication index ascending.

    The replications run as one simulate batch and, for whittle when
    epsilon is set, one hitting_times batch capped at cap slots; the
    hitting_time field is None on every other row.
    """
    policy = rp_policy(sol) if name == "rp_threshold" else PolicyKind(kind=name)
    sim_seed, hit_seed = _point_seeds(seed, cfg.n, name)
    records = simulate(cfg, policy, horizon, sim_seed, init,
                       replications=replications)
    hits = [None] * replications
    if epsilon is not None and name == "whittle":
        hits = hitting_times(cfg, init, epsilon, hit_seed, replications,
                             cap=cap, sol=sol)
    rows = []
    for r, (rec, hit) in enumerate(zip(records, hits)):
        age = rec.per_user_avg_age
        rows.append((r, cfg.n, name, horizon, age, sol.c_rp,
                     (age - sol.c_rp) / sol.c_rp, hit))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # repr of the builtin float is the shortest round-trip form;
        # numpy scalars are coerced so their repr never leaks into CSV.
        return repr(float(value))
    return str(value)


def _mean_stderr(values) -> tuple[float | None, float | None]:
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None
    mean = float(np.mean(vals))
    if len(vals) < 2:
        return mean, 0.0
    return mean, float(np.std(vals, ddof=1) / np.sqrt(len(vals)))


def _check_policies(names) -> None:
    """RangeError unless names lists known policies, none of them twice."""
    if not names:
        raise RangeError("policy list is empty")
    for name in names:
        if name not in POLICY_NAMES:
            raise RangeError(f"unknown policy {name!r}")
    if len(set(names)) < len(names):
        raise RangeError(f"repeated policy in {list(names)}")


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run the sweep and write rows.csv, summary.json, and plot.csv.

    Row order is deterministic: n in sweep order, then policies in the
    given order, then replication index; each point's rows come from
    _point_rows under the _point_seeds rule. A point's rows therefore do
    not depend on the other points of the sweep, but row r depends on
    the replication count, because all rows of a batch share one
    generator. Each point's means and stderrs are computed once, by
    _mean_stderr, for summary.json; plot.csv writes the same points
    sorted by (n, policy). Every input is checked, out included (an
    empty or missing out is a RangeError, never the working directory)
    and every point by check_horizon, before the output directory is
    created and the first simulation runs.
    """
    if not spec.out:
        raise RangeError("experiment requires --out, a directory for result files")
    _check_policies(spec.policies)
    if not spec.n_sweep:
        raise RangeError("n sweep is empty")
    if len(set(spec.n_sweep)) < len(spec.n_sweep):
        raise RangeError(f"repeated n in sweep {list(spec.n_sweep)}")
    if spec.replications < 1:
        raise RangeError(f"replications must be >= 1, got {spec.replications}")
    if spec.epsilon is not None and not spec.epsilon > 0:
        raise RangeError(f"epsilon must be > 0, got {spec.epsilon}")
    if spec.cap < 0:
        raise RangeError(f"cap must be >= 0, got {spec.cap}")
    if spec.initial not in INITIAL_KINDS:
        raise RangeError(f"unknown initial state kind {spec.initial!r}")
    configs = [_config_with_n(spec.base, n) for n in spec.n_sweep]
    for cfg in configs:
        check_horizon(cfg, spec.horizon)
    out_dir = Path(spec.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise RangeError(f"cannot create output directory {out_dir}: {err}") from err

    rows = []
    points = []
    for cfg in configs:
        sol = solve_rp(cfg)
        init = _initial_occupancy(spec.initial, cfg, sol)
        for name in spec.policies:
            point = _point_rows(cfg, sol, name, init, spec.seed, spec.horizon,
                                spec.replications, spec.epsilon, spec.cap)
            rows += point
            want_hit = spec.epsilon is not None and name == "whittle"
            hits = [row[7] for row in point]
            age_mean, age_se = _mean_stderr([row[4] for row in point])
            gap_mean, gap_se = _mean_stderr([row[6] for row in point])
            hit_mean, hit_se = _mean_stderr(hits)
            points.append({
                "n": cfg.n,
                "policy": name,
                "replications": spec.replications,
                "c_rp": sol.c_rp,
                "avg_age_mean": age_mean,
                "avg_age_stderr": age_se,
                "rel_gap_mean": gap_mean,
                "rel_gap_stderr": gap_se,
                "hitting_time_mean": hit_mean,
                "hitting_time_stderr": hit_se,
                "hitting_time_unresolved": sum(h is None for h in hits)
                if want_hit else 0,
            })

    rows_path = out_dir / "rows.csv"
    _write_rows(rows, rows_path)
    summary = {
        "n_sweep": list(spec.n_sweep),
        "policies": list(spec.policies),
        "replications": spec.replications,
        "horizon": spec.horizon,
        "seed": spec.seed,
        "epsilon": spec.epsilon,
        "cap": spec.cap,
        "initial": spec.initial,
        "points": points,
    }
    summary_path = out_dir / "summary.json"
    _emit(summary, summary_path)
    plot_path = out_dir / "plot.csv"
    _write_plot(points, plot_path)
    return {
        "rows": str(rows_path),
        "summary": str(summary_path),
        "plot": str(plot_path),
    }


def _output(text: str, out) -> None:
    """Write text to the path out, or to stdout when out is empty."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as err:
        raise RangeError(f"cannot write {out}: {err}") from err


def _emit(payload: dict, out) -> None:
    _output(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _solution_payload(sol) -> dict:
    return {
        "w_star": sol.w_star,
        "critical_class": sol.m,
        "theta_star": sol.theta_star,
        "thresholds": [list(pair) for pair in sol.thresholds],
        "effective_thresholds": list(sol.l_star),
        "c_rp": sol.c_rp,
        "z_star": [[float(v) for v in row] for row in sol.z_star.z],
    }


def _cmd_solve_rp(args) -> int:
    cfg = load_config(args.config)
    sol = solve_rp(cfg)
    _emit(_solution_payload(sol), args.out)
    return 0


def _write_rows(rows, out, header=CSV_HEADER) -> None:
    """Write header and one line per row to out (stdout when empty)."""
    body = "\n".join(",".join(_fmt(v) for v in row) for row in rows)
    _output(header + "\n" + body + "\n", out)


def _write_plot(points, out) -> None:
    """Write plot.csv: the PLOT_HEADER fields of each point, by (n, policy)."""
    keys = PLOT_HEADER.split(",")
    rows = [[point[key] for key in keys]
            for point in sorted(points, key=lambda p: (p["n"], p["policy"]))]
    _write_rows(rows, out, PLOT_HEADER)


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    names = _parse_policies(args.policies)
    sol = solve_rp(cfg)
    init = _initial_occupancy(args.initial, cfg, sol)
    rows = []
    for name in names:
        rows += _point_rows(cfg, sol, name, init, args.seed, args.horizon,
                            args.replications, None, HITTING_CAP)
    _write_rows(rows, args.out)
    return 0


def _cmd_hitting_time(args) -> int:
    cfg = load_config(args.config)
    sol = solve_rp(cfg)
    init = _initial_occupancy(args.initial, cfg, sol)
    hits = hitting_times(cfg, init, args.epsilon,
                         _point_seeds(args.seed, cfg.n, "whittle")[1],
                         args.replications, cap=args.cap, sol=sol)
    rows = [(r, cfg.n, "whittle", args.cap, None, sol.c_rp, None, hit)
            for r, hit in enumerate(hits)]
    _write_rows(rows, args.out)
    return 0


def _cmd_fluid(args) -> int:
    cfg = load_config(args.config)
    sol = solve_rp(cfg)
    z0 = _initial_occupancy(args.initial, cfg, sol)
    traj = fluid_trajectory(z0, args.steps, cfg, sol)
    payload = {
        "steps": args.steps,
        "converged": traj.converged,
        "contraction": traj.contraction,
        "final_distance": float(traj.distances[-1]),
        "distances": [float(d) for d in traj.distances],
        "in_region": [bool(b) for b in traj.in_region],
    }
    _emit(payload, args.out)
    return 0


def _cmd_spectral(args) -> int:
    cfg = load_config(args.config)
    sol = solve_rp(cfg)
    report = spectral_report(assemble_linear(cfg, sol))
    report["stable"] = report["rho"] < 1.0
    report["region_margin"] = region_margin(sol.z_star, cfg, sol)
    _emit(report, args.out)
    return 0


def _cmd_oracle_check(args) -> int:
    """Cross-check closed-form costs and thresholds against policy iteration.

    Per class, one rvi_grid call solves the whole subsidy grid and one
    threshold_costs array gives the closed-form minimum at every point.
    """
    cfg = load_config(args.config)
    worst = 0.0
    checked = 0
    per_class = []
    for k, spec_k in enumerate(cfg.classes):
        table = whittle_index_table(np.array([spec_k.p]), cfg.l)[0]
        grid = sorted({0.0, *table, *(w + 0.5 for w in table[:-1])})
        results = rvi_grid(spec_k.p, cfg.l, grid)
        best = threshold_costs(grid, spec_k.p, cfg.l).min(axis=1)
        for w, res in zip(grid, results):
            l1, l2 = optimal_thresholds(float(w), spec_k.p, cfg.l)
            if res.threshold not in (l1, l2):
                raise ConvergenceError(
                    f"class {k}, w={w}: threshold {res.threshold} not in "
                    f"{{{l1}, {l2}}}"
                )
        costs = np.array([res.avg_cost for res in results])
        class_worst = float(np.abs(costs - best).max())
        checked += len(grid)
        worst = max(worst, class_worst)
        per_class.append({"class": k, "p": spec_k.p,
                          "max_cost_error": class_worst})
    payload = {
        "grid_points": checked,
        "max_cost_error": worst,
        "per_class": per_class,
        "ok": bool(worst < 1e-6),
    }
    if not payload["ok"]:
        raise ConvergenceError(f"oracle disagreement {worst:.3e} exceeds 1e-6")
    _emit(payload, args.out)
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Integers of a comma-separated flag, empty entries dropped."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as err:
        raise ParseError(f"bad integer list {text!r}") from err
    if not values:
        raise RangeError(f"no integer named in {text!r}")
    return values


def _parse_policies(text: str) -> tuple[str, ...]:
    """Names of a comma-separated --policies flag, empty entries dropped."""
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    _check_policies(names)
    return names


def _u64(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec(
        base=load_config(args.config),
        n_sweep=_parse_int_list(args.n_sweep),
        policies=_parse_policies(args.policies),
        replications=args.replications,
        horizon=args.horizon,
        seed=args.seed,
        out=args.out,
        epsilon=args.epsilon,
        initial=args.initial,
        cap=args.cap,
    )
    paths = run_experiment(spec)
    _emit(paths, None)
    return 0


def _report(name: str, message: str) -> None:
    """Write the one-line JSON error object to stderr."""
    sys.stderr.write(json.dumps({"error": name, "message": message}) + "\n")


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as a ParseError and exits 2.

    Subparsers are built from the same class, so every subcommand does.
    """

    def error(self, message):
        _report("ParseError", f"{self.prog}: {message}")
        raise SystemExit(2)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = _Parser(
        prog="aoisched",
        description="Age-minimizing scheduling: relaxed optimum, fluid "
                    "stability, and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(func=func)
        return p

    add("solve-rp", _cmd_solve_rp, "solve the relaxed problem")

    p = add("simulate", _cmd_simulate, "run seeded policy simulations")
    p.add_argument("--policies", default="whittle",
                   help="comma-separated policy names")
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--seed", type=_u64, default=0)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--initial", choices=INITIAL_KINDS, default="ones")

    p = add("hitting-time", _cmd_hitting_time,
            "measure first entry into the epsilon ball around z_star")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=_u64, default=0)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--initial", choices=INITIAL_KINDS, default="ones")
    p.add_argument("--cap", type=int, default=HITTING_CAP,
                   help="give up after this many slots")

    p = add("fluid", _cmd_fluid, "iterate the fluid map toward z_star")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--initial", choices=INITIAL_KINDS, default="ones")

    add("spectral", _cmd_spectral, "spectral certificate of the linear region")

    add("oracle-check", _cmd_oracle_check,
        "closed forms vs policy-iteration ground truth")

    p = add("experiment", _cmd_experiment, "sweep n and policies, write CSVs")
    p.add_argument("--n-sweep", required=True, help="comma-separated n values")
    p.add_argument("--policies", default="whittle")
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--seed", type=_u64, default=0)
    p.add_argument("--replications", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--initial", choices=INITIAL_KINDS, default="ones")
    p.add_argument("--cap", type=int, default=HITTING_CAP,
                   help="give up a hitting time after this many slots")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ComputationError, MemoryError) as err:
        # numpy raises a MemoryError subclass; report it by the builtin name
        name = "MemoryError" if isinstance(err, MemoryError) else type(err).__name__
        _report(name, str(err))
        return 2 if isinstance(err, ValidationError) else 3


if __name__ == "__main__":
    sys.exit(main())
