"""The two benchmark workloads: configs, timed body and output checks.

A repetition of a workload is set-up (import aoisched afresh, build,
validate and write the configs) followed by the timed body, which only
calls public aoisched functions, and then the checks, which read the
files and values the body produced. Every public call made by the body
and every check counts as one attempted operation; a call that raises,
a CLI call that exits non-zero and a check that fails count as failed.
"""
from __future__ import annotations

import csv
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALL_POLICIES = ("whittle", "greedy_max_age", "rp_threshold", "uniform_random")
# Policies that schedule exactly m users per slot, so c_rp lower-bounds
# their average age.
EXACT_M_POLICIES = ("whittle", "greedy_max_age", "uniform_random")
SMALL_N = (20, 80, 320)
LARGE_N = (10_000, 100_000)
LARGE_POLICIES = ("whittle", "uniform_random")
HITTING_N = (50, 200)
DEVIATION_N = (80, 320)

REFERENCE_P = (0.5, 0.8)
SHRINKING_GAP_P = (0.8, 0.2)
CERTIFY_CASES = (
    (0.5, (0.8, 0.2)),
    (0.25, (0.1, 0.3, 0.7, 0.9)),
    (0.1, (0.5, 0.8)),
    (0.05, (0.2, 0.4, 0.6, 0.8)),
)
# Joint-MDP instances: criterion 7's toy and a 46 656-state one.
JOINT_CASES = {
    "joint_n3": {"n": 3, "alpha": 1.0 / 3.0, "l": 4,
                 "classes": [{"p": 0.7, "gamma": 1.0}]},
    "joint_n6": {"n": 6, "alpha": 1.0 / 3.0, "l": 6,
                 "classes": [{"p": 0.5, "gamma": 1.0}]},
}
GAP_SIGMAS = 4.0
ROUTE_LIMIT = 1e-8
FIXED_POINT_LIMIT = 1e-9
SANDWICH_SLACK = 1e-9


def config_doc(n: int, alpha: float, l: int, ps) -> dict:
    """Config document with equal class shares."""
    gamma = 1.0 / len(ps)
    return {"n": n, "alpha": alpha, "l": l,
            "classes": [{"p": p, "gamma": gamma} for p in ps]}


@dataclass
class Run:
    """State of one repetition: inputs, outputs and operation counts."""

    pkg: object
    seed: int
    params: dict
    dir: Path
    configs: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def call(self, label: str, func, *args, **kwargs):
        """One public-API call; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return func(*args, **kwargs)
        except Exception:  # the benchmark must keep running and report it
            self.failed += 1
            self.errors.append({"op": label, "error": traceback.format_exc()})
            return None

    def cli(self, label: str, argv: list[str], out: Path) -> None:
        """aoisched CLI call writing to out; a non-zero exit is a failure."""
        self.outputs[label] = out
        try:
            code = self.call(label, self.pkg.cli.main, argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects bad flags by exiting
            code = exc.code
        if code not in (0, None):
            self.failed += 1
            self.errors.append({"op": label, "error": f"exit code {code}"})

    def check(self, name: str, ok: bool, detail=None) -> bool:
        self.attempted += 1
        ok = bool(ok)
        if not ok:
            self.failed += 1
        self.checks.append({"check": name, "ok": ok, "detail": detail})
        return ok

    def read_json(self, label: str):
        """Parsed JSON output of label (checked to parse), or None."""
        try:
            doc = json.loads(self.outputs[label].read_text())
        except (KeyError, OSError, ValueError) as err:
            self.check(f"{label} output parses", False, repr(err))
            return None
        self.check(f"{label} output parses", True)
        return doc


def setup(pkg, workload, params: dict, seed: int, rep_dir: Path) -> Run:
    """Build, validate and write the workload's configs."""
    rep_dir.mkdir(parents=True)
    run = Run(pkg=pkg, seed=seed, params=params, dir=rep_dir)
    for name, doc in workload.config_docs(params).items():
        path = rep_dir / f"{name}.json"
        path.write_text(json.dumps(doc))
        run.configs[name] = pkg.load_config(path)
        run.paths[name] = str(path)
    return run


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class MonteCarlo:
    """Shared body and checks of the run_experiment workloads."""

    key = ""  # prefix of this sweep's parameters, config and outputs
    n_sweep: tuple[int, ...] = ()
    policies: tuple[str, ...] = ()

    def experiment(self, run: Run) -> None:
        cli = run.pkg.cli
        spec = cli.ExperimentSpec(
            base=run.configs[f"{self.key}_base"], n_sweep=self.n_sweep,
            policies=self.policies,
            replications=run.params[f"{self.key}_replications"],
            horizon=run.params[f"{self.key}_horizon"], seed=run.seed,
            out=str(run.dir / f"{self.key}_experiment"), initial="star",
        )
        paths = run.call(f"{self.key}.experiment", cli.run_experiment, spec)
        if paths is not None:
            for name in ("rows", "summary", "plot"):
                run.outputs[f"{self.key}.experiment.{name}"] = Path(paths[name])

    def check_experiment(self, run: Run) -> None:
        rows_path = run.outputs.get(f"{self.key}.experiment.rows")
        plot_path = run.outputs.get(f"{self.key}.experiment.plot")
        if rows_path is None or plot_path is None:
            run.check(f"{self.key} experiment wrote rows.csv and plot.csv", False)
            return
        rows = _read_rows(rows_path)
        want = (len(self.n_sweep) * len(self.policies)
                * run.params[f"{self.key}_replications"])
        run.check(f"{self.key} rows.csv row count", len(rows) == want,
                  {"rows": len(rows), "expected": want})
        points = {(int(r["n"]), r["policy"]): r for r in _read_rows(plot_path)}
        gaps = {}
        for n in self.n_sweep:
            for policy in self.policies:
                point = points.get((n, policy))
                if point is None:
                    run.check(f"plot.csv has n={n} {policy}", False)
                    continue
                mean = float(point["rel_gap_mean"])
                se = float(point["rel_gap_stderr"])
                gaps[(n, policy)] = (mean, se)
                if policy in EXACT_M_POLICIES:
                    run.check(f"gap lower bound n={n} {policy}",
                              mean + GAP_SIGMAS * se >= 0.0,
                              {"rel_gap_mean": mean, "rel_gap_stderr": se})
            if (n, "whittle") in gaps and (n, "uniform_random") in gaps:
                run.check(f"uniform_random gap exceeds whittle gap n={n}",
                          gaps[(n, "uniform_random")][0] > gaps[(n, "whittle")][0],
                          {"whittle": gaps[(n, "whittle")][0],
                           "uniform_random": gaps[(n, "uniform_random")][0]})
        # rp_threshold is reported, not gated: see README.md.
        rp = {f"n{n}": {"rel_gap_mean": g[0], "rel_gap_stderr": g[1]}
              for (n, policy), g in gaps.items() if policy == "rp_threshold"}
        if rp:
            run.info["rp_threshold_rel_gap"] = rp


class McSmallN(MonteCarlo):
    """Small N: per-slot Python overhead and the 4-worker pool dominate."""

    key = "small"
    n_sweep = SMALL_N
    policies = ALL_POLICIES
    defaults = {"small_horizon": 500, "small_replications": 8, "hit_cap": 2000,
                "hit_replications": 4, "dev_horizon": 200}
    tiny = {"small_horizon": 200, "small_replications": 4, "hit_cap": 20,
            "hit_replications": 2, "dev_horizon": 5}

    def config_docs(self, params):
        docs = {"small_base": config_doc(SMALL_N[0], 0.5, 50, SHRINKING_GAP_P)}
        for n in HITTING_N + DEVIATION_N:
            docs[f"ref_n{n}"] = config_doc(n, 0.5, 50, REFERENCE_P)
        return docs

    def body(self, run: Run) -> None:
        pkg = run.pkg
        self.experiment(run)
        for n in HITTING_N:
            run.cli(f"hitting-time.n{n}", [
                "hitting-time", "--config", run.paths[f"ref_n{n}"],
                "--epsilon", "0.05", "--initial", "maxed",
                "--cap", str(run.params["hit_cap"]), "--seed", str(run.seed),
                "--replications", str(run.params["hit_replications"]),
            ], run.dir / f"hitting_n{n}.csv")
        for n in DEVIATION_N:
            cfg = run.configs[f"ref_n{n}"]
            sol = run.call(f"solve_rp.n{n}", pkg.relaxed.solve_rp, cfg)
            if sol is None:
                continue
            run.values[f"fluid_deviation.n{n}"] = run.call(
                f"fluid_deviation.n{n}", pkg.sim.fluid_deviation, cfg,
                run.params["dev_horizon"], run.seed, sol.z_star.z, sol=sol)

    def check(self, run: Run) -> None:
        self.check_experiment(run)
        cap = run.params["hit_cap"]
        unresolved = {}
        for n in HITTING_N:
            label = f"hitting-time.n{n}"
            try:
                rows = _read_rows(run.outputs[label])
                times = [None if r["hitting_time"] == "" else int(r["hitting_time"])
                         for r in rows]
                ok = (len(rows) == run.params["hit_replications"]
                      and all(t is None or 0 <= t <= cap for t in times))
            except (KeyError, OSError, ValueError) as err:
                run.check(f"{label} rows parse", False, repr(err))
                continue
            ratio = sum(t is None for t in times) / max(len(times), 1)
            unresolved[f"n{n}"] = ratio
            run.check(f"{label} rows parse", ok, {"unresolved_ratio": ratio})
        run.info["hitting_time_unresolved_ratio"] = unresolved
        for n in DEVIATION_N:
            dev = run.values.get(f"fluid_deviation.n{n}")
            run.check(f"fluid_deviation n={n} finite",
                      dev is not None and math.isfinite(dev) and dev >= 0.0, dev)


class McLargeN(MonteCarlo):
    """Large N: O(N) numpy work per slot; memory grows with N."""

    key = "large"
    n_sweep = LARGE_N
    policies = LARGE_POLICIES
    # 16 short replications rather than 8 longer ones: the whittle gap is
    # near 0 at this N, so the gap check's false-alarm rate is set by the
    # t-tail of the stderr estimate (see README.md).
    defaults = {"large_horizon": 25, "large_replications": 16}
    tiny = {"large_horizon": 4, "large_replications": 4}

    def config_docs(self, params):
        return {"large_base": config_doc(LARGE_N[0], 0.5, 50, SHRINKING_GAP_P)}

    def body(self, run: Run) -> None:
        self.experiment(run)

    def check(self, run: Run) -> None:
        self.check_experiment(run)


class CertifyLargeL:
    """solve-rp, spectral and fluid through the CLI at large L."""

    defaults = {"l": 500, "n": 400, "steps": 200}
    tiny = {"l": 40, "n": 400, "steps": 10}

    def config_docs(self, params):
        return {f"case{i}": config_doc(params["n"], alpha, params["l"], ps)
                for i, (alpha, ps) in enumerate(CERTIFY_CASES)}

    def body(self, run: Run) -> None:
        steps = str(run.params["steps"])
        for name in self.config_docs(run.params):
            path = run.paths[name]
            run.cli(f"solve-rp.{name}", ["solve-rp", "--config", path],
                    run.dir / f"{name}_solve_rp.json")
            run.cli(f"spectral.{name}", ["spectral", "--config", path],
                    run.dir / f"{name}_spectral.json")
            run.cli(f"fluid.{name}", ["fluid", "--config", path, "--steps", steps,
                                      "--initial", "maxed"],
                    run.dir / f"{name}_fluid.json")

    def check(self, run: Run) -> None:
        fluid_step = run.pkg.fluid.fluid_step
        for name in self.config_docs(run.params):
            cfg = run.configs[name]
            spectral = run.read_json(f"spectral.{name}")
            if spectral is not None:
                run.check(f"{name} rho < 1", spectral["rho"] < 1.0, spectral["rho"])
                run.check(f"{name} route agreement",
                          spectral["route_agreement"] <= ROUTE_LIMIT,
                          spectral["route_agreement"])
            solution = run.read_json(f"solve-rp.{name}")
            if solution is not None:
                z_star = np.array(solution["z_star"], dtype=float)
                residual = float(np.abs(fluid_step(z_star, cfg).z - z_star).max())
                run.check(f"{name} z_star fixed point",
                          residual <= FIXED_POINT_LIMIT, residual)
            run.read_json(f"fluid.{name}")


class OracleCheck:
    """oracle-check's damped RVI solves plus two exact joint-MDP solves."""

    defaults = {"oracle_l": 25}
    tiny = {"oracle_l": 5}

    def config_docs(self, params):
        docs = {
            "reference": config_doc(100, 0.5, params["oracle_l"], REFERENCE_P),
            "shrinking_gap": config_doc(100, 0.5, params["oracle_l"], SHRINKING_GAP_P),
        }
        docs.update(JOINT_CASES)
        return docs

    def body(self, run: Run) -> None:
        for name in ("reference", "shrinking_gap"):
            run.cli(f"oracle-check.{name}",
                    ["oracle-check", "--config", run.paths[name]],
                    run.dir / f"{name}_oracle.json")
        for name in JOINT_CASES:
            run.values[name] = run.call(name, run.pkg.oracle.joint_mdp_optimal,
                                        run.configs[name])

    def check(self, run: Run) -> None:
        for name in ("reference", "shrinking_gap"):
            report = run.read_json(f"oracle-check.{name}")
            if report is not None:
                run.check(f"{name} oracle-check ok", report["ok"] is True,
                          report["max_cost_error"])
        for name in JOINT_CASES:
            joint = run.values.get(name)
            c_rp = run.pkg.relaxed.solve_rp(run.configs[name]).c_rp
            run.check(f"{name} c_rp <= joint optimum",
                      joint is not None and c_rp <= joint + SANDWICH_SLACK,
                      {"c_rp": c_rp, "joint": joint})


class Composite:
    """A workload made of parts that run one after another.

    Two workloads of two parts each rather than four: on a shared 2-vCPU
    machine the speed of deterministic work drifts over half a minute and
    more, so a run must be long enough to average over that, and four
    workloads of that run length do not fit the benchmark's time budget.
    """

    def __init__(self, name: str, why: str, parts: tuple):
        self.name, self.why, self.parts = name, why, parts
        self.defaults = {k: v for part in parts for k, v in part.defaults.items()}
        self.tiny = {k: v for part in parts for k, v in part.tiny.items()}

    def config_docs(self, params):
        return {k: v for part in self.parts
                for k, v in part.config_docs(params).items()}

    def body(self, run: Run) -> None:
        for part in self.parts:
            part.body(run)

    def check(self, run: Run) -> None:
        for part in self.parts:
            part.check(run)


WORKLOADS = {w.name: w for w in (
    Composite("monte_carlo",
              "simulator only: run_experiment at N=20-320 (per-slot Python cost, "
              "pool overhead) and N=1e4-1e5 (O(N) numpy), hitting-time, "
              "fluid_deviation",
              (McSmallN(), McLargeN())),
    Composite("analysis",
              "analysis layers only: solve-rp, spectral and fluid at L=500, then "
              "oracle-check and two joint-MDP solves; sim idles",
              (CertifyLargeL(), OracleCheck())),
)}
